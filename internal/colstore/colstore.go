// Package colstore is malnetd's one query engine: a dictionary-encoded
// columnar copy of a snapshot's sample table, built once per store
// generation, plus the filter/aggregate kernels and the small
// expression language that /v1/query compiles into them.
//
// Every /v1 filter is a selection made here. /v1/query parses its
// expression into a Plan; the point endpoints in internal/serve
// (/v1/samples, /v1/c2/{addr}, /v1/attacks, /v1/families) build the
// same Cmp/Logic nodes, take the plan's selection bitmap, and page
// through it. The profiling questions the paper asks ("count alive
// mirai C2s by day", "top attack types per family") are
// filter-and-aggregate over the whole table, where a row-at-a-time
// walk pays a pointer chase and a string compare per record. Encode
// interns the low-cardinality fields (family, disposition, C2
// address, attack type) into per-column dictionaries of uint32 IDs
// and lays the counters out as flat int64 arrays, so a filter is a
// tight loop over a uint32 column producing a selection bitmap, and
// an aggregation is one counts[id]++ pass over the selected rows.
//
// Everything here is a pure function of the snapshot bytes and the
// query string: no wall clock, no math/rand (tools/vettime enforces
// both), so results are byte-identical across worker counts — the
// property the differential suite in internal/serve pins against a
// naive row-at-a-time reference evaluator (RefEval).
package colstore

import (
	"sort"

	"malnet/internal/core"
	"malnet/internal/world"
)

// Dict is one column's interning table: Vals in first-occurrence
// order, IDs mapping each string to its uint32 slot. Write-once at
// encode time, then safe for concurrent readers.
type Dict struct {
	Vals []string
	ids  map[string]uint32
}

func newDict() *Dict { return &Dict{ids: map[string]uint32{}} }

// intern returns s's ID, assigning the next slot on first sight.
func (d *Dict) intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.Vals))
	d.Vals = append(d.Vals, s)
	d.ids[s] = id
	return id
}

// Lookup resolves a query literal to its dict ID. Unknown values are
// not an error — a filter against them selects nothing.
func (d *Dict) Lookup(s string) (uint32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Sorted returns the vocabulary in ascending order as a fresh slice,
// never nil: an empty dictionary encodes to JSON as [], not null.
func (d *Dict) Sorted() []string {
	out := make([]string, len(d.Vals))
	copy(out, d.Vals)
	sort.Strings(out)
	return out
}

// DictCol is a single-valued dictionary column: one ID per row.
type DictCol struct {
	Dict *Dict
	IDs  []uint32
}

// NewDictCol dictionary-encodes an n-row string column whose row i
// holds val(i), interning in first-occurrence order — for a table
// other than the sample batch (D-DDOS's attack type).
func NewDictCol(n int, val func(i int) string) DictCol {
	c := DictCol{Dict: newDict(), IDs: make([]uint32, n)}
	for i := range c.IDs {
		c.IDs[i] = c.Dict.intern(val(i))
	}
	return c
}

// Eq selects the rows holding v: the kernel behind `field == "v"`.
// ok is false, and the selection empty, when v is not in the
// dictionary.
func (c DictCol) Eq(v string) (sel *Bitmap, ok bool) {
	sel = NewBitmap(len(c.IDs))
	id, ok := c.Dict.Lookup(v)
	if ok {
		eqU32(c.IDs, id, sel)
	}
	return sel, ok
}

// ListDictCol is a multi-valued dictionary column (a sample's C2
// endpoints, its observed attack types): row i's values are
// IDs[Offs[i]:Offs[i+1]], deduplicated within the row in first-seen
// order, so a row that names a value twice matches and counts once.
type ListDictCol struct {
	Dict *Dict
	Offs []uint32
	IDs  []uint32
}

// Batch is the columnar encoding of one snapshot's sample table.
// All columns share row numbering with the snapshot's feed order.
type Batch struct {
	NumRows int

	Family      DictCol
	Disposition DictCol
	C2          ListDictCol
	Attack      ListDictCol

	Day        []int64
	Detections []int64
	Retries    []int64
}

// dayOf is the study-day derivation Encode and the reference
// evaluator share — the two must agree or the differential suite
// fails.
func dayOf(rec *core.SampleRecord, start int64) int64 {
	return (rec.Date.Unix() - start) / 86400
}

// rowC2s appends rec's C2 addresses, deduplicated in first-seen
// order, to buf. Shared by Encode and RefEval.
func rowC2s(rec *core.SampleRecord, buf []string) []string {
	for _, c := range rec.C2s {
		if !containsStr(buf, c.Address) {
			buf = append(buf, c.Address)
		}
	}
	return buf
}

// rowAttacks appends rec's observed attack-type names, deduplicated
// in first-seen order, to buf. Shared by Encode and RefEval.
func rowAttacks(rec *core.SampleRecord, buf []string) []string {
	for _, o := range rec.DDoS {
		if name := o.Command.Attack.String(); !containsStr(buf, name) {
			buf = append(buf, name)
		}
	}
	return buf
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Encode builds the columnar batch for a snapshot's samples. Rows
// keep feed order; dictionaries intern in first-occurrence order, so
// the batch — like everything downstream of a snapshot — is a pure
// function of the snapshot bytes.
func Encode(samples []*core.SampleRecord) *Batch {
	n := len(samples)
	b := &Batch{
		NumRows:     n,
		Family:      DictCol{Dict: newDict(), IDs: make([]uint32, n)},
		Disposition: DictCol{Dict: newDict(), IDs: make([]uint32, n)},
		C2:          ListDictCol{Dict: newDict(), Offs: make([]uint32, n+1)},
		Attack:      ListDictCol{Dict: newDict(), Offs: make([]uint32, n+1)},
		Day:         make([]int64, n),
		Detections:  make([]int64, n),
		Retries:     make([]int64, n),
	}
	start := world.StudyStart().Unix()
	var scratch []string
	for i, rec := range samples {
		b.Family.IDs[i] = b.Family.Dict.intern(rec.Family)
		b.Disposition.IDs[i] = b.Disposition.Dict.intern(rec.Disposition.String())
		b.Day[i] = dayOf(rec, start)
		b.Detections[i] = int64(rec.Detections)
		b.Retries[i] = int64(rec.C2Retries)

		scratch = rowC2s(rec, scratch[:0])
		for _, addr := range scratch {
			b.C2.IDs = append(b.C2.IDs, b.C2.Dict.intern(addr))
		}
		b.C2.Offs[i+1] = uint32(len(b.C2.IDs))

		scratch = rowAttacks(rec, scratch[:0])
		for _, name := range scratch {
			b.Attack.IDs = append(b.Attack.IDs, b.Attack.Dict.intern(name))
		}
		b.Attack.Offs[i+1] = uint32(len(b.Attack.IDs))
	}
	return b
}

// Vocab returns the sorted value vocabulary of a dictionary field
// ("family", "disposition", "c2", "attack") — what the query
// generator samples literals from. Nil for non-dict fields.
func (b *Batch) Vocab(field string) []string {
	var d *Dict
	switch field {
	case "family":
		d = b.Family.Dict
	case "disposition":
		d = b.Disposition.Dict
	case "c2":
		d = b.C2.Dict
	case "attack":
		d = b.Attack.Dict
	default:
		return nil
	}
	return d.Sorted()
}
