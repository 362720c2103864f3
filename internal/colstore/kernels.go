package colstore

// Filter kernels: each scans one column and writes a selection
// bitmap, building each output word from 64 rows before touching
// memory — the compare loop stays in registers and the bitmap write
// is one store per 64 rows. Combining predicates is then word-wise
// And/Or/Not on the bitmaps (bitmap.go).

// eqU32 selects rows where ids[i] == want.
func eqU32(ids []uint32, want uint32, out *Bitmap) {
	n := len(ids)
	for wi := range out.words {
		base := wi << 6
		end := n - base
		if end > 64 {
			end = 64
		}
		var w uint64
		for j := 0; j < end; j++ {
			if ids[base+j] == want {
				w |= 1 << uint(j)
			}
		}
		out.words[wi] = w
	}
}

// inU32 selects rows whose ID is marked in member, a dense
// vocabulary-sized membership table (the compiled form of `in (...)`
// over a dictionary column).
func inU32(ids []uint32, member []bool, out *Bitmap) {
	n := len(ids)
	for wi := range out.words {
		base := wi << 6
		end := n - base
		if end > 64 {
			end = 64
		}
		var w uint64
		for j := 0; j < end; j++ {
			if member[ids[base+j]] {
				w |= 1 << uint(j)
			}
		}
		out.words[wi] = w
	}
}

// rangeI64 selects rows with lo <= vals[i] <= hi.
func rangeI64(vals []int64, lo, hi int64, out *Bitmap) {
	n := len(vals)
	for wi := range out.words {
		base := wi << 6
		end := n - base
		if end > 64 {
			end = 64
		}
		var w uint64
		for j := 0; j < end; j++ {
			if v := vals[base+j]; v >= lo && v <= hi {
				w |= 1 << uint(j)
			}
		}
		out.words[wi] = w
	}
}

// inI64 selects rows whose value appears in want (the `in (...)`
// list form over a flat column; the lists are query-sized, a handful
// of literals).
func inI64(vals []int64, want []int64, out *Bitmap) {
	n := len(vals)
	for wi := range out.words {
		base := wi << 6
		end := n - base
		if end > 64 {
			end = 64
		}
		var w uint64
		for j := 0; j < end; j++ {
			v := vals[base+j]
			for _, x := range want {
				if v == x {
					w |= 1 << uint(j)
					break
				}
			}
		}
		out.words[wi] = w
	}
}

// listAnyEq selects rows where any list element equals want.
func listAnyEq(col ListDictCol, want uint32, out *Bitmap) {
	out.Clear()
	for i := 0; i < len(col.Offs)-1; i++ {
		for _, id := range col.IDs[col.Offs[i]:col.Offs[i+1]] {
			if id == want {
				out.Set(i)
				break
			}
		}
	}
}

// listAnyIn selects rows where any list element is marked in member.
func listAnyIn(col ListDictCol, member []bool, out *Bitmap) {
	out.Clear()
	for i := 0; i < len(col.Offs)-1; i++ {
		for _, id := range col.IDs[col.Offs[i]:col.Offs[i+1]] {
			if member[id] {
				out.Set(i)
				break
			}
		}
	}
}

// Aggregate kernels: one pass over the selected rows into a
// vocabulary-sized accumulator, indexed by dict ID — no hashing on
// the hot path.

// countByDict counts selected rows per dictionary value.
func countByDict(col DictCol, sel *Bitmap) []int64 {
	counts := make([]int64, len(col.Dict.Vals))
	ids := col.IDs
	sel.ForEach(func(i int) { counts[ids[i]]++ })
	return counts
}

// countByList counts, per dictionary value, the selected rows whose
// list contains it. Lists are deduplicated at encode time, so each
// (row, value) pair contributes once.
func countByList(col ListDictCol, sel *Bitmap) []int64 {
	counts := make([]int64, len(col.Dict.Vals))
	sel.ForEach(func(i int) {
		for _, id := range col.IDs[col.Offs[i]:col.Offs[i+1]] {
			counts[id]++
		}
	})
	return counts
}

// sumI64 totals vals over the selected rows.
func sumI64(vals []int64, sel *Bitmap) int64 {
	var sum int64
	sel.ForEach(func(i int) { sum += vals[i] })
	return sum
}

// sumByDict totals vals per dictionary value of the group column.
func sumByDict(vals []int64, group DictCol, sel *Bitmap) []int64 {
	sums := make([]int64, len(group.Dict.Vals))
	ids := group.IDs
	sel.ForEach(func(i int) { sums[ids[i]] += vals[i] })
	return sums
}

// sumByList totals vals per dictionary value across list membership:
// a row's value is credited to every distinct list element.
func sumByList(vals []int64, group ListDictCol, sel *Bitmap) []int64 {
	sums := make([]int64, len(group.Dict.Vals))
	sel.ForEach(func(i int) {
		for _, id := range group.IDs[group.Offs[i]:group.Offs[i+1]] {
			sums[id] += vals[i]
		}
	})
	return sums
}
