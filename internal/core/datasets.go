package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"malnet/internal/checkpoint"
	"malnet/internal/vuln"
)

// The datasets.bin section: a snapshot's four datasets in a binary
// layout. Fields follow one another with no names, tags or padding,
// each record's in declaration order; integers are varints, always
// minimal, unsigned (uvarint) or zig-zag signed (varint):
//
//	string      uvarint length, then the bytes
//	[]byte      uvarint 0 for nil, else length+1, then the bytes
//	slice, map  uvarint 0 for nil, else count+1, then the elements
//	pointer     1 byte, 0 for nil or 1, then the record
//	int         varint (time.Duration too)
//	bool        1 byte, 0 or 1
//	enum        1 byte (every uint8 kind: address, disposition,
//	            attack type, patch status)
//	port        2 bytes big-endian
//	address     as checkpoint.AppendIP writes it (no IPv6 zone)
//	time.Time   varint Unix seconds, uvarint nanoseconds, varint zone
//	            offset in seconds (0 decodes as UTC)
//
// The section is the samples ([]*SampleRecord), the D-C2s map as
// (key, *C2Record) entries in ascending key order, the exploit
// findings and the DDoS observations. So the bytes are a pure function
// of the datasets, and nil stays apart from empty wherever JSON would
// write null rather than [] or {}.

// Fewest bytes an element encodes to, for the count checks: one per
// string, slice, varint, bool, enum and address, two per port, three
// per time. TestDatasetsMinSizes holds them to the encoder.
const (
	minCandidate = 8  // address, kind, IP, port, attempts, live, signature
	minExploit   = 10 // SHA, date, vulns, downloader, loader, port, payload
	minDDoS      = 15 // time, SHA, C2, C2 IP, method, command (7), verified
	minC2Entry   = 2  // key, presence
)

// dsCodec walks a CheckpointDatasets field by field, one way or the
// other: encoding appends each field to b, decoding reads each into a
// zero value from b. Each record type lists its fields once, in its
// walk method, so the two directions cannot disagree on the layout.
type dsCodec struct {
	dec bool
	b   []byte // encoding: the output; decoding: the bytes left
	// s is, while decoding, the bytes left as one string: the section
	// is copied once and every decoded string is a substring of it.
	s   string
	n   int // decoding: the section's length, for error offsets
	err error
}

// appendDatasets appends ds to b in the datasets.bin layout.
func appendDatasets(b []byte, ds *CheckpointDatasets) []byte {
	c := dsCodec{b: b}
	c.datasets(ds)
	return c.b
}

// decodeDatasets decodes a datasets.bin section. It refuses a
// truncated field, trailing bytes, a non-minimal varint, a bad address
// length, a bool or presence byte other than 0 or 1, D-C2s keys out of
// ascending order, a time or integer that would not re-encode to the
// same bytes, and a count the bytes left cannot hold, checked before
// allocating; so every section it accepts re-encodes to its own bytes.
func decodeDatasets(b []byte) (CheckpointDatasets, error) {
	c := dsCodec{dec: true, b: b, s: string(b), n: len(b)}
	var ds CheckpointDatasets
	c.datasets(&ds)
	if c.err == nil && len(c.b) != 0 {
		c.fail(fmt.Errorf("%d trailing bytes", len(c.b)))
	}
	if c.err != nil {
		return CheckpointDatasets{}, fmt.Errorf("%s: %w", datasetsSection, c.err)
	}
	return ds, nil
}

func (c *dsCodec) datasets(ds *CheckpointDatasets) {
	ptrs(c, &ds.Samples, (*dsCodec).sample)
	c.c2s(&ds.C2s)
	slice(c, &ds.Exploits, minExploit, (*dsCodec).exploit)
	slice(c, &ds.DDoS, minDDoS, (*dsCodec).ddos)
}

func (c *dsCodec) sample(r *SampleRecord) {
	text(c, &r.SHA)
	c.time(&r.Date)
	text(c, &r.FamilyYARA)
	text(c, &r.FamilyAVClass)
	text(c, &r.Family)
	integer(c, &r.Detections)
	c.bool(&r.P2P)
	c.bool(&r.Activated)
	slice(c, &r.C2s, minCandidate, (*dsCodec).candidate)
	c.bool(&r.LiveDay0)
	slice(c, &r.Exploits, minExploit, (*dsCodec).exploit)
	slice(c, &r.DDoS, minDDoS, (*dsCodec).ddos)
	enum(c, &r.Disposition)
	integer(c, &r.C2Retries)
	f := &r.Faults
	integer(c, &f.SYNsDropped)
	integer(c, &f.SegmentsDropped)
	integer(c, &f.ResetsInjected)
	integer(c, &f.LatencySpikes)
	integer(c, &f.Blackouts)
	integer(c, &f.SlowDrips)
}

func (c *dsCodec) candidate(r *C2Candidate) {
	text(c, &r.Address)
	enum(c, &r.Kind)
	c.ip(&r.IP)
	c.port(&r.Port)
	integer(c, &r.Attempts)
	c.bool(&r.Live)
	text(c, &r.Signature)
}

func (c *dsCodec) c2Record(r *C2Record) {
	text(c, &r.Address)
	enum(c, &r.Kind)
	c.ip(&r.IP)
	c.port(&r.Port)
	slice(c, &r.Samples, 1, text[string])
	c.time(&r.FirstSeen)
	c.time(&r.LastSeen)
	c.bool(&r.EverLive)
	text(c, &r.Signature)
	c.bool(&r.Day0Malicious)
	integer(c, &r.Day0Vendors)
	c.bool(&r.May7Malicious)
	integer(c, &r.May7Vendors)
	c.bool(&r.Verified)
}

func (c *dsCodec) exploit(r *ExploitFinding) {
	text(c, &r.SHA256)
	c.time(&r.Date)
	ptrs(c, &r.Vulns, (*dsCodec).vuln)
	text(c, &r.Downloader)
	text(c, &r.Loader)
	c.port(&r.Port)
	c.bytes(&r.Payload)
}

func (c *dsCodec) vuln(v *vuln.Vulnerability) {
	integer(c, &v.ID)
	text(c, &v.Key)
	slice(c, &v.CVEs, 1, text[string])
	text(c, &v.ExploitID)
	text(c, &v.Source)
	c.time(&v.Published)
	text(c, &v.Device)
	c.port(&v.Port)
	text(c, &v.Signature)
	enum(c, &v.Patch)
	integer(c, &v.PaperSamples)
}

func (c *dsCodec) ddos(o *DDoSObservation) {
	c.time(&o.Time)
	text(c, &o.SHA256)
	text(c, &o.C2)
	c.ip(&o.C2IP)
	text(c, &o.Method)
	cmd := &o.Command
	enum(c, &cmd.Attack)
	c.ip(&cmd.Target)
	c.port(&cmd.Port)
	integer(c, &cmd.Duration)
	c.bool(&cmd.TCPTransport)
	c.bytes(&cmd.Raw)
	c.bool(&o.Verified)
}

// c2s walks the D-C2s map in ascending key order; decoding refuses a
// key that does not sort after the one before it.
func (c *dsCodec) c2s(m *map[string]*C2Record) {
	n, ok := c.count(*m == nil, len(*m), minC2Entry)
	if !ok {
		return
	}
	if !c.dec {
		keys := make([]string, 0, n)
		for k := range *m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r := (*m)[k]
			text(c, &k)
			ptr(c, &r, (*dsCodec).c2Record)
		}
		return
	}
	*m = make(map[string]*C2Record, n)
	prev := ""
	for i := 0; i < n && c.err == nil; i++ {
		var k string
		var r *C2Record
		text(c, &k)
		if i > 0 && k <= prev {
			c.fail(fmt.Errorf("D-C2s key %q does not sort after %q", k, prev))
		}
		ptr(c, &r, (*dsCodec).c2Record)
		(*m)[k], prev = r, k
	}
}

// slice walks a slice whose elements encode to at least minSize bytes.
func slice[T any](c *dsCodec, s *[]T, minSize int, elem func(*dsCodec, *T)) {
	n, ok := c.count(*s == nil, len(*s), minSize)
	if !ok {
		return
	}
	if c.dec {
		*s = make([]T, n)
	}
	for i := range *s {
		if c.err != nil {
			return
		}
		elem(c, &(*s)[i])
	}
}

// ptrs walks a slice of records held by pointer.
func ptrs[T any](c *dsCodec, s *[]*T, walk func(*dsCodec, *T)) {
	slice(c, s, 1, func(c *dsCodec, p **T) { ptr(c, p, walk) })
}

// ptr walks one record held by pointer, behind its presence byte.
func ptr[T any](c *dsCodec, p **T, walk func(*dsCodec, *T)) {
	present := *p != nil
	c.bool(&present)
	if !present {
		return
	}
	if c.dec {
		*p = new(T)
	}
	walk(c, *p)
}

// count walks a slice or map header. Decoding refuses a count of
// elements of at least minSize bytes that the bytes left cannot hold.
func (c *dsCodec) count(isNil bool, n, minSize int) (int, bool) {
	if !c.dec {
		if isNil {
			c.b = append(c.b, 0)
			return 0, false
		}
		c.b = binary.AppendUvarint(c.b, uint64(n)+1)
		return n, true
	}
	v := c.uvarint()
	if v == 0 {
		return 0, false
	}
	if v-1 > uint64(len(c.b)/minSize) {
		c.fail(fmt.Errorf("count %d, but %d bytes left", v-1, len(c.b)))
		return 0, false
	}
	return int(v - 1), true
}

func text[T ~string](c *dsCodec, p *T) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(*p)))
		c.b = append(c.b, *p...)
		return
	}
	n := c.uvarint()
	if n > uint64(len(c.b)) {
		c.fail(checkpoint.ErrTruncated)
		return
	}
	*p = T(c.s[:n])
	c.skip(int(n))
}

func (c *dsCodec) bytes(p *[]byte) {
	n, ok := c.count(*p == nil, len(*p), 1)
	if !ok {
		return
	}
	if !c.dec {
		c.b = append(c.b, *p...)
		return
	}
	*p = make([]byte, n)
	c.skip(copy(*p, c.b))
}

func integer[T ~int | ~int64](c *dsCodec, p *T) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, int64(*p))
		return
	}
	v := c.varint()
	if *p = T(v); int64(*p) != v {
		c.fail(fmt.Errorf("integer %d out of range", v))
	}
}

func enum[T ~uint8](c *dsCodec, p *T) {
	if !c.dec {
		c.b = append(c.b, byte(*p))
		return
	}
	if len(c.b) < 1 {
		c.fail(checkpoint.ErrTruncated)
		return
	}
	*p = T(c.b[0])
	c.skip(1)
}

func (c *dsCodec) bool(p *bool) {
	v := uint8(0)
	if *p {
		v = 1
	}
	enum(c, &v)
	if !c.dec {
		return
	}
	if v > 1 {
		c.fail(fmt.Errorf("bool byte %d, want 0 or 1", v))
	}
	*p = v == 1
}

func (c *dsCodec) port(p *uint16) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint16(c.b, *p)
		return
	}
	if len(c.b) < 2 {
		c.fail(checkpoint.ErrTruncated)
		return
	}
	*p = binary.BigEndian.Uint16(c.b)
	c.skip(2)
}

func (c *dsCodec) ip(p *netip.Addr) {
	if !c.dec {
		c.b = checkpoint.AppendIP(c.b, *p)
		return
	}
	ip, rest, err := checkpoint.ReadIP(c.b)
	if err != nil {
		c.fail(err)
		return
	}
	*p = ip
	c.skip(len(c.b) - len(rest))
}

func (c *dsCodec) time(p *time.Time) {
	if !c.dec {
		_, off := p.Zone()
		c.b = binary.AppendVarint(c.b, p.Unix())
		c.b = binary.AppendUvarint(c.b, uint64(p.Nanosecond()))
		c.b = binary.AppendVarint(c.b, int64(off))
		return
	}
	sec, nsec, off := c.varint(), c.uvarint(), c.varint()
	if c.err != nil {
		return
	}
	if nsec >= uint64(time.Second) || int64(int32(off)) != off {
		c.fail(errors.New("time out of range"))
		return
	}
	*p = time.Unix(sec, int64(nsec)).UTC()
	if off != 0 {
		*p = p.In(time.FixedZone("", int(off)))
	}
}

func (c *dsCodec) uvarint() uint64 {
	v, rest, err := checkpoint.ReadUvarint(c.b)
	if err != nil {
		c.fail(err)
		return 0
	}
	c.skip(len(c.b) - len(rest))
	return v
}

func (c *dsCodec) varint() int64 {
	u := c.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (c *dsCodec) skip(k int) { c.b, c.s = c.b[k:], c.s[k:] }

// fail records the first decoding error, at the offset it was found.
func (c *dsCodec) fail(err error) {
	if c.err == nil {
		c.err = fmt.Errorf("byte %d: %w", c.n-len(c.b), err)
	}
	c.b, c.s = nil, ""
}
