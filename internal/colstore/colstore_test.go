package colstore

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"malnet/internal/c2"
	"malnet/internal/core"
	"malnet/internal/world"
)

// testSamples fabricates n sample records with the field mix the
// kernels dispatch on: zipf-ish families, a year of days, multi-C2
// rows, attack observations, and the full disposition range.
func testSamples(n int) []*core.SampleRecord {
	families := []string{"mirai", "gafgyt", "tsunami", "hajime", "xorddos"}
	start := world.StudyStart()
	out := make([]*core.SampleRecord, n)
	for i := 0; i < n; i++ {
		rec := &core.SampleRecord{
			SHA:         fmt.Sprintf("%064x", i),
			Date:        start.AddDate(0, 0, i%365),
			Family:      families[i%len(families)],
			Detections:  i % 9,
			C2Retries:   i % 4,
			Disposition: core.Disposition(i % 5),
		}
		// Two C2s per row with overlap across rows; every third row
		// references its first endpoint twice (dedup must collapse it).
		a := fmt.Sprintf("10.0.%d.%d:23", i%7, i%13)
		b := fmt.Sprintf("10.0.%d.%d:23", (i+1)%7, (i+1)%13)
		rec.C2s = []core.C2Candidate{{Address: a}, {Address: b}}
		if i%3 == 0 {
			rec.C2s = append(rec.C2s, core.C2Candidate{Address: a})
		}
		if i%4 == 0 {
			rec.DDoS = []core.DDoSObservation{
				{Command: c2.Command{Attack: c2.AttackType(i % 8)}},
				{Command: c2.Command{Attack: c2.AttackType(i % 3)}},
			}
		}
		out[i] = rec
	}
	return out
}

func TestEncodeShape(t *testing.T) {
	samples := testSamples(200)
	b := Encode(samples)
	if b.NumRows != 200 {
		t.Fatalf("NumRows = %d", b.NumRows)
	}
	if got := len(b.Family.Dict.Vals); got != 5 {
		t.Fatalf("family vocabulary %d, want 5", got)
	}
	for i, rec := range samples {
		if b.Family.Dict.Vals[b.Family.IDs[i]] != rec.Family {
			t.Fatalf("row %d family decodes to %q, want %q", i, b.Family.Dict.Vals[b.Family.IDs[i]], rec.Family)
		}
		if b.Disposition.Dict.Vals[b.Disposition.IDs[i]] != rec.Disposition.String() {
			t.Fatalf("row %d disposition mismatch", i)
		}
		if want := int64(rec.Date.Sub(world.StudyStart()).Hours() / 24); b.Day[i] != want {
			t.Fatalf("row %d day = %d, want %d", i, b.Day[i], want)
		}
		// List rows carry the deduplicated address set in first-seen
		// order.
		var got []string
		for _, id := range b.C2.IDs[b.C2.Offs[i]:b.C2.Offs[i+1]] {
			got = append(got, b.C2.Dict.Vals[id])
		}
		want := rowC2s(rec, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d c2 list %v, want %v", i, got, want)
		}
		if len(got) != 2 {
			t.Fatalf("row %d c2 list not deduplicated: %v", i, got)
		}
	}
	// Encode of an empty table must still produce a runnable batch.
	empty := Encode(nil)
	plan, err := empty.Compile(mustParse(t, `family=="x" | count() by c2`))
	if err != nil {
		t.Fatal(err)
	}
	if res := plan.Run(); res.Matched != 0 || len(res.Rows) != 0 {
		t.Fatalf("empty batch result: %+v", res)
	}
}

func mustParse(t testing.TB, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

// runBoth evaluates src through the columnar plan and the reference
// evaluator and requires byte-identical JSON.
func runBoth(t testing.TB, src string, b *Batch, samples []*core.SampleRecord) *Result {
	t.Helper()
	q := mustParse(t, src)
	plan, err := b.Compile(q)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	col := plan.Run()
	ref, err := RefEval(q, samples)
	if err != nil {
		t.Fatalf("RefEval(%q): %v", src, err)
	}
	cj, _ := json.Marshal(col)
	rj, _ := json.Marshal(ref)
	if string(cj) != string(rj) {
		t.Fatalf("columnar and reference disagree on %q:\ncolumnar:  %s\nreference: %s", src, cj, rj)
	}
	return col
}

// TestKernelsAgainstReference spot-checks each kernel family with
// hand-written queries whose answers are independently verifiable.
func TestKernelsAgainstReference(t *testing.T) {
	samples := testSamples(500)
	b := Encode(samples)

	if res := runBoth(t, "", b, samples); res.Matched != 500 || res.Rows[0].Value != 500 {
		t.Fatalf("empty query: %+v", res)
	}
	if res := runBoth(t, `family=="mirai"`, b, samples); res.Rows[0].Value != 100 {
		t.Fatalf("family eq: %+v", res)
	}
	if res := runBoth(t, `family!="mirai"`, b, samples); res.Rows[0].Value != 400 {
		t.Fatalf("family neq: %+v", res)
	}
	if res := runBoth(t, `family in ("mirai", "gafgyt")`, b, samples); res.Rows[0].Value != 200 {
		t.Fatalf("family in: %+v", res)
	}
	if res := runBoth(t, `day in 0..364`, b, samples); res.Rows[0].Value != 500 {
		t.Fatalf("day full range: %+v", res)
	}
	// day = i%365 never reaches 365, so the high range selects nothing.
	if res := runBoth(t, `day in 365..999`, b, samples); res.Rows[0].Value != 0 {
		t.Fatalf("day out of range matched: %+v", res)
	}
	if res := runBoth(t, `detections >= 9`, b, samples); res.Rows[0].Value != 0 {
		t.Fatalf("detections cap: %+v", res)
	}
	if res := runBoth(t, `family=="no-such-family"`, b, samples); res.Matched != 0 {
		t.Fatalf("unknown literal matched: %+v", res)
	}
	runBoth(t, `retries in (1, 3)`, b, samples)
	runBoth(t, `day < 100 or day > 300`, b, samples)
	runBoth(t, `not (day < 100 or day > 300)`, b, samples)
	runBoth(t, `c2=="10.0.0.0:23"`, b, samples)
	runBoth(t, `not c2=="10.0.0.0:23"`, b, samples)
	runBoth(t, `attack=="UDP Flood" | count() by family`, b, samples)
	runBoth(t, `attack in ("UDP Flood", "SYN Flood") | count() by attack`, b, samples)
	runBoth(t, `| count() by c2`, b, samples)
	runBoth(t, `| count() by disposition`, b, samples)
	runBoth(t, `| sum(detections)`, b, samples)
	runBoth(t, `| sum(detections) by family`, b, samples)
	runBoth(t, `| sum(retries) by c2`, b, samples)
	runBoth(t, `| topk(3) by family`, b, samples)
	runBoth(t, `| topk(1000) by c2`, b, samples)
	runBoth(t, `family=="mirai" and day in 100..200 | count() by c2`, b, samples)

	// Grouped counts partition the matched rows for single-valued
	// group fields.
	res := runBoth(t, `day in 50..250 | count() by family`, b, samples)
	var total int64
	for _, row := range res.Rows {
		total += row.Value
	}
	if total != res.Matched {
		t.Fatalf("count() by family sums to %d, want matched %d", total, res.Matched)
	}

	// topk is the count-by head: same keys, descending values.
	full := runBoth(t, `| count() by family`, b, samples)
	top2 := runBoth(t, `| topk(2) by family`, b, samples)
	if len(top2.Rows) != 2 {
		t.Fatalf("topk(2) returned %d rows", len(top2.Rows))
	}
	for _, row := range top2.Rows {
		found := false
		for _, f := range full.Rows {
			if f.Key == row.Key && f.Value == row.Value {
				found = true
			}
		}
		if !found {
			t.Fatalf("topk row %+v not in count-by output %+v", row, full.Rows)
		}
	}
	if len(top2.Rows) == 2 && top2.Rows[0].Value < top2.Rows[1].Value {
		t.Fatalf("topk not descending: %+v", top2.Rows)
	}
}

// TestGeneratedQueriesDiffer is the package-local differential
// sweep over generator output (the serve-level suite repeats this
// against real study snapshots): 700 generated queries, columnar
// byte-identical to reference.
func TestGeneratedQueriesDiffer(t *testing.T) {
	samples := testSamples(400)
	b := Encode(samples)
	gen := NewQueryGen(23, b)
	aggs := map[string]bool{}
	for i := 0; i < 700; i++ {
		src := gen.Next()
		res := runBoth(t, src, b, samples)
		aggs[res.Agg+"/"+res.By] = true
	}
	// The generator must exercise scalar and grouped shapes.
	if len(aggs) < 6 {
		t.Fatalf("generator covered only %d agg shapes: %v", len(aggs), aggs)
	}
}

// TestQueryGenDeterminism: same seed, same stream; different seed,
// different stream.
func TestQueryGenDeterminism(t *testing.T) {
	b := Encode(testSamples(50))
	g1, g2, g3 := NewQueryGen(5, b), NewQueryGen(5, b), NewQueryGen(6, b)
	same := 0
	for i := 0; i < 500; i++ {
		q1, q2, q3 := g1.Next(), g2.Next(), g3.Next()
		if q1 != q2 {
			t.Fatalf("same-seed generators diverged at %d: %q vs %q", i, q1, q2)
		}
		if q1 == q3 {
			same++
		}
	}
	if same == 500 {
		t.Fatal("seeds 5 and 6 generated identical query streams")
	}
}

func TestBitmap(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		b := NewBitmap(n)
		b.SetAll()
		if got := b.Count(); got != int64(n) {
			t.Fatalf("n=%d: SetAll count %d", n, got)
		}
		b.Not()
		if got := b.Count(); got != 0 {
			t.Fatalf("n=%d: Not(SetAll) count %d", n, got)
		}
	}
	b := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 100, 129} {
		b.Set(i)
	}
	var seen []int
	b.ForEach(func(i int) { seen = append(seen, i) })
	if !reflect.DeepEqual(seen, []int{0, 63, 64, 100, 129}) {
		t.Fatalf("ForEach order: %v", seen)
	}
	o := NewBitmap(130)
	o.Set(63)
	o.Set(129)
	b.And(o)
	if got := b.Count(); got != 2 {
		t.Fatalf("And count %d", got)
	}
}

// TestBitmapPage checks every (skip, limit) window of a few selection
// shapes against slicing the full ForEach listing.
func TestBitmapPage(t *testing.T) {
	for _, n := range []int{0, 1, 64, 130, 300} {
		for _, every := range []int{1, 3, 64, 97} {
			b := NewBitmap(n)
			for i := 0; i < n; i += every {
				b.Set(i)
			}
			var all []int
			b.ForEach(func(i int) { all = append(all, i) })
			for skip := 0; skip <= len(all)+2; skip++ {
				for _, limit := range []int{1, 2, 7, 64, 500} {
					var got []int
					visited := b.Page(skip, limit, func(i int) { got = append(got, i) })
					want := all[min(skip, len(all)):min(skip+limit, len(all))]
					if visited != len(got) || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("n=%d every=%d skip=%d limit=%d: visited %d rows %v, want %v", n, every, skip, limit, visited, got, want)
					}
				}
			}
		}
	}
}

// TestPlanSelect: the selection a plan hands out is exactly the rows
// the reference evaluator keeps.
func TestPlanSelect(t *testing.T) {
	samples := testSamples(300)
	b := Encode(samples)
	for _, src := range []string{
		``,
		`family=="mirai"`,
		`family=="mirai" and day==5`,
		`c2=="10.0.1.1:23" and family=="gafgyt"`,
		`c2=="no-such-endpoint"`,
	} {
		q := mustParse(t, src)
		plan, err := b.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		plan.Select().ForEach(func(i int) { got = append(got, i) })
		var want []int
		for i, rec := range samples {
			if q.Filter == nil || refMatch(q.Filter, rec, world.StudyStart().Unix()) {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q selects %v, reference keeps %v", src, got, want)
		}
	}
}

func TestDictColEq(t *testing.T) {
	vals := []string{"b", "a", "b", "c", "a", "b"}
	col := NewDictCol(len(vals), func(i int) string { return vals[i] })
	if !reflect.DeepEqual(col.Dict.Vals, []string{"b", "a", "c"}) {
		t.Fatalf("dictionary not in first-occurrence order: %v", col.Dict.Vals)
	}
	sel, ok := col.Eq("b")
	var rows []int
	sel.ForEach(func(i int) { rows = append(rows, i) })
	if !ok || !reflect.DeepEqual(rows, []int{0, 2, 5}) {
		t.Fatalf(`Eq("b") = %v ok=%v, want [0 2 5]`, rows, ok)
	}
	if sel, ok := col.Eq("zz"); ok || sel.Count() != 0 || sel.Len() != len(vals) {
		t.Fatalf(`Eq("zz") ok=%v count=%d len=%d, want an empty selection over %d rows`, ok, sel.Count(), sel.Len(), len(vals))
	}
	if got := col.Dict.Sorted(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Sorted = %v", got)
	}
	if got, _ := json.Marshal(NewDictCol(0, nil).Dict.Sorted()); string(got) != "[]" {
		t.Fatalf("empty vocabulary encodes as %s, want []", got)
	}
}

// BenchmarkColstoreEncode is the encode-throughput row in
// BENCH_<date>.json: samples/sec interning a paper-scale table into
// columnar form (build-time cost of each store generation).
func BenchmarkColstoreEncode(b *testing.B) {
	for _, n := range []int{1500, 100000} {
		samples := testSamples(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var batch *Batch
			start := time.Now()
			for i := 0; i < b.N; i++ {
				batch = Encode(samples)
			}
			if batch.NumRows != n {
				b.Fatal("bad encode")
			}
			b.ReportMetric(float64(n)*float64(b.N)/time.Since(start).Seconds(), "samples/sec")
		})
	}
}

// BenchmarkQueryScan pits a cold vectorized filter+aggregate against
// the row-at-a-time reference on the same table — the columnar-vs-row
// number the tentpole exists for.
func BenchmarkQueryScan(b *testing.B) {
	q := mustParse(b, `family=="mirai" and day in 100..200 | count() by c2`)
	for _, n := range []int{1500, 100000, 1000000} {
		samples := testSamples(n)
		batch := Encode(samples)
		plan, err := batch.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("columnar/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := plan.Run(); res.Matched == 0 {
					b.Fatal("no rows matched")
				}
			}
		})
		b.Run(fmt.Sprintf("rowref/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RefEval(q, samples)
				if err != nil || res.Matched == 0 {
					b.Fatalf("ref eval: %v", err)
				}
			}
		})
	}
}
