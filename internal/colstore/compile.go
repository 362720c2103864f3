package colstore

import "sort"

// Field kinds of the sample schema.
const (
	kindDict = iota // single-valued string, dictionary-encoded
	kindList        // multi-valued string, dictionary-encoded
	kindInt         // flat int64 counter
)

// sampleSchema is the one table the query language sees: the
// snapshot's sample records. Validation, the columnar engine, and
// the row reference evaluator all dispatch on it.
var sampleSchema = map[string]int{
	"family":      kindDict,
	"disposition": kindDict,
	"c2":          kindList,
	"attack":      kindList,
	"day":         kindInt,
	"detections":  kindInt,
	"retries":     kindInt,
}

// Fields lists the queryable field names, sorted (for error
// messages and the README grammar table).
func Fields() []string {
	out := make([]string, 0, len(sampleSchema))
	for f := range sampleSchema {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// maxTopK bounds topk so a query can't demand an unbounded response.
const maxTopK = 1000

// Validate type-checks a parsed query against the sample schema:
// fields exist, string literals only meet string fields, ordering and
// ranges only meet integer fields, aggregations group only by
// dictionary fields. Both evaluators run it, so they reject exactly
// the same queries.
func (q *Query) Validate() error {
	if q.Filter != nil {
		if err := validateExpr(q.Filter); err != nil {
			return err
		}
	}
	return validateAgg(q.Agg)
}

func fieldList() string {
	fs := Fields()
	out := ""
	for i, f := range fs {
		if i > 0 {
			out += ", "
		}
		out += f
	}
	return out
}

func validateExpr(e Expr) *ParseError {
	switch e := e.(type) {
	case *Cmp:
		kind, ok := sampleSchema[e.Field]
		if !ok {
			return errf(e.pos, "unknown field %q (known: %s)", e.Field, fieldList())
		}
		strField := kind == kindDict || kind == kindList
		if e.IsStr != strField {
			if strField {
				return errf(e.pos, "field %q holds strings; compare it to a quoted literal", e.Field)
			}
			return errf(e.pos, "field %q holds integers; compare it to a number", e.Field)
		}
		if e.Op != "==" && e.Op != "!=" && kind != kindInt {
			return errf(e.pos, "ordering operator %q needs an integer field, and %q holds strings", e.Op, e.Field)
		}
		return nil
	case *In:
		kind, ok := sampleSchema[e.Field]
		if !ok {
			return errf(e.pos, "unknown field %q (known: %s)", e.Field, fieldList())
		}
		if e.IsRange {
			if kind != kindInt {
				return errf(e.pos, "range lo..hi needs an integer field, and %q holds strings", e.Field)
			}
			return nil
		}
		strField := kind == kindDict || kind == kindList
		if e.isStr != strField {
			if strField {
				return errf(e.pos, "field %q holds strings; list quoted literals", e.Field)
			}
			return errf(e.pos, "field %q holds integers; list numbers", e.Field)
		}
		return nil
	case *Not:
		return validateExpr(e.X)
	case *Logic:
		if err := validateExpr(e.X); err != nil {
			return err
		}
		return validateExpr(e.Y)
	}
	return errf(0, "internal: unknown filter node")
}

func validateAgg(a Agg) error {
	switch a.Fn {
	case "count":
	case "sum":
		if kind, ok := sampleSchema[a.Arg]; !ok {
			return errf(a.pos, "unknown field %q (known: %s)", a.Arg, fieldList())
		} else if kind != kindInt {
			return errf(a.pos, "sum needs an integer field, and %q holds strings", a.Arg)
		}
	case "topk":
		if a.K < 1 || a.K > maxTopK {
			return errf(a.pos, "topk group count must be in 1..%d, got %d", maxTopK, a.K)
		}
	}
	if a.By != "" {
		if kind, ok := sampleSchema[a.By]; !ok {
			return errf(a.pos, "unknown group field %q (known: %s)", a.By, fieldList())
		} else if kind == kindInt {
			return errf(a.pos, "group by needs a dictionary field (family, disposition, c2, attack), and %q holds integers", a.By)
		}
	}
	return nil
}

// Result is a query's answer, identical (byte for byte once JSON
// encoded) between the columnar engine and the reference evaluator.
type Result struct {
	// Matched is how many sample rows passed the filter.
	Matched int64 `json:"matched"`
	// Agg and By echo the aggregation that produced Rows.
	Agg string `json:"agg"`
	By  string `json:"by,omitempty"`
	// Rows are the aggregation output: one row for a scalar
	// count/sum, else one per non-empty group — sorted by key for
	// count/sum, by descending value (key ascending on ties) for
	// topk.
	Rows []ResultRow `json:"rows"`
}

// ResultRow is one aggregation output row.
type ResultRow struct {
	Key   string `json:"key,omitempty"`
	Value int64  `json:"value"`
}

// Plan is a validated query bound to a batch, ready to run any
// number of times.
type Plan struct {
	b *Batch
	q *Query
}

// Compile validates q against the sample schema and binds it to the
// batch. The returned plan is read-only over the batch and safe for
// concurrent Run calls.
func (b *Batch) Compile(q *Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &Plan{b: b, q: q}, nil
}

// Run evaluates the plan: filter kernels produce the selection
// bitmap, aggregate kernels fold it.
func (p *Plan) Run() *Result {
	sel := p.Select()
	res := &Result{Matched: sel.Count(), Agg: p.q.Agg.Fn, By: p.q.Agg.By}
	res.Rows = p.aggregate(p.q.Agg, sel)
	return res
}

// Select is the filter half of Run: the bitmap of the rows the
// plan's filter keeps, every row when it has none. Callers that list
// rows rather than aggregate them page through it (Bitmap.Page).
func (p *Plan) Select() *Bitmap {
	sel := NewBitmap(p.b.NumRows)
	if p.q.Filter == nil {
		sel.SetAll()
	} else {
		p.eval(p.q.Filter, sel)
	}
	return sel
}

// eval computes e's selection into out (sized for the batch).
func (p *Plan) eval(e Expr, out *Bitmap) {
	switch e := e.(type) {
	case *Cmp:
		p.evalCmp(e, out)
	case *In:
		p.evalIn(e, out)
	case *Not:
		p.eval(e.X, out)
		out.Not()
	case *Logic:
		p.eval(e.X, out)
		rhs := NewBitmap(p.b.NumRows)
		p.eval(e.Y, rhs)
		if e.Op == "and" {
			out.And(rhs)
		} else {
			out.Or(rhs)
		}
	}
}

func (p *Plan) evalCmp(e *Cmp, out *Bitmap) {
	switch sampleSchema[e.Field] {
	case kindDict:
		col := p.dictCol(e.Field)
		id, ok := col.Dict.Lookup(e.Str)
		if !ok {
			out.Clear() // unknown value: matches nothing
		} else {
			eqU32(col.IDs, id, out)
		}
		if e.Op == "!=" {
			out.Not()
		}
	case kindList:
		col := p.listCol(e.Field)
		id, ok := col.Dict.Lookup(e.Str)
		if !ok {
			out.Clear()
		} else {
			listAnyEq(col, id, out)
		}
		if e.Op == "!=" {
			out.Not()
		}
	default:
		vals := p.intCol(e.Field)
		const maxI64 = int64(^uint64(0) >> 1)
		switch e.Op {
		case "==":
			rangeI64(vals, e.Int, e.Int, out)
		case "!=":
			rangeI64(vals, e.Int, e.Int, out)
			out.Not()
		case "<":
			// Literals are non-negative (the lexer has no unary
			// minus), so e.Int-1 cannot underflow.
			rangeI64(vals, -maxI64-1, e.Int-1, out)
		case "<=":
			rangeI64(vals, -maxI64-1, e.Int, out)
		case ">":
			if e.Int == maxI64 {
				out.Clear()
			} else {
				rangeI64(vals, e.Int+1, maxI64, out)
			}
		case ">=":
			rangeI64(vals, e.Int, maxI64, out)
		}
	}
}

func (p *Plan) evalIn(e *In, out *Bitmap) {
	switch sampleSchema[e.Field] {
	case kindDict:
		col := p.dictCol(e.Field)
		inU32(col.IDs, memberSet(col.Dict, e.Strs), out)
	case kindList:
		col := p.listCol(e.Field)
		listAnyIn(col, memberSet(col.Dict, e.Strs), out)
	default:
		vals := p.intCol(e.Field)
		if e.IsRange {
			rangeI64(vals, e.Lo, e.Hi, out)
		} else {
			inI64(vals, e.Ints, out)
		}
	}
}

// memberSet compiles string literals into a vocabulary-sized
// membership table; unknown literals simply mark nothing.
func memberSet(d *Dict, vals []string) []bool {
	member := make([]bool, len(d.Vals))
	for _, v := range vals {
		if id, ok := d.Lookup(v); ok {
			member[id] = true
		}
	}
	return member
}

func (p *Plan) dictCol(field string) DictCol {
	if field == "family" {
		return p.b.Family
	}
	return p.b.Disposition
}

func (p *Plan) listCol(field string) ListDictCol {
	if field == "c2" {
		return p.b.C2
	}
	return p.b.Attack
}

func (p *Plan) intCol(field string) []int64 {
	switch field {
	case "day":
		return p.b.Day
	case "retries":
		return p.b.Retries
	}
	return p.b.Detections
}

func (p *Plan) aggregate(a Agg, sel *Bitmap) []ResultRow {
	if a.By == "" {
		switch a.Fn {
		case "sum":
			return []ResultRow{{Value: sumI64(p.intCol(a.Arg), sel)}}
		default: // count
			return []ResultRow{{Value: sel.Count()}}
		}
	}
	var dict *Dict
	var acc []int64
	byList := sampleSchema[a.By] == kindList
	switch {
	case a.Fn == "sum" && byList:
		col := p.listCol(a.By)
		dict, acc = col.Dict, sumByList(p.intCol(a.Arg), col, sel)
	case a.Fn == "sum":
		col := p.dictCol(a.By)
		dict, acc = col.Dict, sumByDict(p.intCol(a.Arg), col, sel)
	case byList:
		col := p.listCol(a.By)
		dict, acc = col.Dict, countByList(col, sel)
	default:
		col := p.dictCol(a.By)
		dict, acc = col.Dict, countByDict(col, sel)
	}
	// Sums can legitimately be zero for a selected group, so group
	// presence (for sum) is tracked by count, not by the sum value.
	var present []int64
	if a.Fn == "sum" {
		if byList {
			present = countByList(p.listCol(a.By), sel)
		} else {
			present = countByDict(p.dictCol(a.By), sel)
		}
	} else {
		present = acc
	}
	rows := make([]ResultRow, 0, len(acc))
	for id, n := range present {
		if n > 0 {
			rows = append(rows, ResultRow{Key: dict.Vals[id], Value: acc[id]})
		}
	}
	return finishGroups(rows, a)
}

// finishGroups orders (and for topk, truncates) group rows: count
// and sum sort by key; topk sorts by value descending with key
// ascending as the deterministic tiebreak.
func finishGroups(rows []ResultRow, a Agg) []ResultRow {
	if a.Fn == "topk" {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Value != rows[j].Value {
				return rows[i].Value > rows[j].Value
			}
			return rows[i].Key < rows[j].Key
		})
		if int64(len(rows)) > a.K {
			rows = rows[:a.K]
		}
		return rows
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows
}
