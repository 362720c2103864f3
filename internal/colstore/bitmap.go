package colstore

import "math/bits"

// Bitmap is a selection over batch rows: bit i set means row i
// survives the filter. Kernels produce and combine bitmaps 64 rows
// per word, so a multi-predicate filter over a million rows is a few
// thousand word ops, not a million branch pairs.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-clear selection over n rows.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len is the row count the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Set marks row i selected.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Get reports whether row i is selected.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// SetAll selects every row.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.maskTail()
}

// Clear deselects every row.
func (b *Bitmap) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// maskTail zeroes the bits past n in the last word, so Count and Not
// never see ghost rows.
func (b *Bitmap) maskTail() {
	if tail := b.n & 63; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(tail)) - 1
	}
}

// And intersects o into b.
func (b *Bitmap) And(o *Bitmap) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions o into b.
func (b *Bitmap) Or(o *Bitmap) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// Not complements b in place.
func (b *Bitmap) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.maskTail()
}

// Count is the number of selected rows.
func (b *Bitmap) Count() int64 {
	var c int64
	for _, w := range b.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// ForEach calls fn for every selected row in ascending order,
// skipping empty words wholesale.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Page calls fn, in ascending order, for the selected rows ranked
// [skip, skip+limit) and returns how many it visited. Words wholly
// before skip are passed over by popcount and the walk stops after
// limit rows: no list of selected positions is ever built.
func (b *Bitmap) Page(skip, limit int, fn func(i int)) int {
	n := 0
	for wi, w := range b.words {
		if n >= limit {
			break
		}
		if skip > 0 {
			if c := bits.OnesCount64(w); skip >= c {
				skip -= c
				continue
			}
			for ; skip > 0; skip-- {
				w &= w - 1
			}
		}
		base := wi << 6
		for ; w != 0 && n < limit; n++ {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return n
}
