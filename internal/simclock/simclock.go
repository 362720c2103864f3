// Package simclock provides a deterministic discrete-event virtual clock.
//
// Every time-dependent component in the simulation (hosts, bots, C2
// servers, the measurement pipeline) schedules callbacks on a single
// Clock instead of using the time package. Advancing the clock fires
// callbacks in strict timestamp order, with a monotonically increasing
// sequence number breaking ties, so a run with a fixed seed is fully
// reproducible.
//
// The zero Clock starts at the zero time.Time (January 1, year 1,
// UTC); use New to pick a study start date.
//
// A Clock is owned by exactly one goroutine at a time. The simulation
// may contain many clocks — the study executor gives every sandbox
// shard a private clock next to the shared world clock — but each one
// must only ever be advanced by its owning goroutine. Ownership may
// move between goroutines (a worker hands its shard's results back to
// the merger) provided the handoff itself synchronizes, e.g. via a
// channel send or WaitGroup.
//
// Scheduling, cancelling and firing do not allocate once the clock
// is warm: events live in a slab of slots recycled through a free
// list, and the pending set is a binary min-heap of slot indices.
package simclock

import (
	"fmt"
	"time"
)

// EventID identifies a scheduled event so it can be cancelled. It
// packs the event's slab slot (plus one, in the low 32 bits) with a
// generation (high 32 bits): the low half of the event's schedule
// sequence number. Sequence numbers never repeat on a clock, Reset
// included, so an ID whose slot has since been reused — or dropped
// by Reset — no longer matches and cannot cancel the new occupant.
// The zero EventID is never issued.
type EventID uint64

// event is a single scheduled callback, stored by value in the slab.
type event struct {
	at  time.Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func()
	pos int32 // index in Clock.heap; -1 while the slot is free
}

// Clock is a discrete-event virtual clock. It is not safe for
// concurrent use: the simulation is single-threaded by design, which
// is what makes runs reproducible.
type Clock struct {
	now     time.Time
	slab    []event
	free    []int32 // recycled slab slots
	heap    []int32 // slab slots, min-heap ordered by (at, seq)
	nextSeq uint64
	running bool
}

// New returns a Clock whose current time is start.
func New(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return c.now }

// Schedule registers fn to run at time at. Scheduling in the past (or
// exactly now) fires on the next Step. It returns an id usable with
// Cancel.
func (c *Clock) Schedule(at time.Time, fn func()) EventID {
	if fn == nil {
		panic("simclock: Schedule with nil callback")
	}
	if at.Before(c.now) {
		at = c.now
	}
	c.nextSeq++
	var slot int32
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		slot = int32(len(c.slab))
		c.slab = append(c.slab, event{})
	}
	c.slab[slot] = event{at: at, seq: c.nextSeq, fn: fn}
	c.heap = append(c.heap, slot)
	c.up(len(c.heap) - 1)
	return EventID(c.nextSeq<<32 | uint64(slot+1))
}

// After registers fn to run d from now. Negative d is treated as zero.
func (c *Clock) After(d time.Duration, fn func()) EventID {
	return c.Schedule(c.now.Add(d), fn)
}

// Cancel removes a scheduled event. It reports whether the event was
// still pending; an event that already fired, is firing now, was
// cancelled, or predates a Reset reports false.
func (c *Clock) Cancel(id EventID) bool {
	slot := int64(uint32(id)) - 1
	if slot < 0 || slot >= int64(len(c.slab)) {
		return false
	}
	e := &c.slab[slot]
	if e.pos < 0 || uint32(e.seq) != uint32(id>>32) {
		return false
	}
	c.release(c.remove(int(e.pos)))
	return true
}

// Pending returns the number of scheduled events.
func (c *Clock) Pending() int { return len(c.heap) }

// NextAt returns the timestamp of the earliest pending event. The
// second result is false when the queue is empty.
func (c *Clock) NextAt() (time.Time, bool) {
	if len(c.heap) == 0 {
		return time.Time{}, false
	}
	return c.slab[c.heap[0]].at, true
}

// Step fires the earliest pending event, advancing Now to its
// timestamp. It reports whether an event fired.
func (c *Clock) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	slot := c.remove(0)
	// Copy out before the call: fn may schedule, growing (and
	// moving) the slab, and its slot is already free for reuse.
	e := &c.slab[slot]
	at, fn := e.at, e.fn
	c.release(slot)
	c.now = at
	fn()
	return true
}

// due reports whether the earliest pending event is at or before
// deadline.
func (c *Clock) due(deadline time.Time) bool {
	return len(c.heap) > 0 && !c.slab[c.heap[0]].at.After(deadline)
}

// RunUntil fires events in order until the queue is exhausted or the
// next event is after deadline, then advances Now to deadline. Events
// scheduled while running are honored if they fall before deadline.
// It returns the number of events fired.
func (c *Clock) RunUntil(deadline time.Time) int {
	if c.running {
		panic("simclock: re-entrant RunUntil")
	}
	c.running = true
	defer func() { c.running = false }()

	fired := 0
	for c.due(deadline) {
		c.Step()
		fired++
	}
	if c.now.Before(deadline) {
		c.now = deadline
	}
	return fired
}

// Reset discards every pending event and rewinds (or advances) Now to
// start, returning the clock to its freshly-constructed state. Shard
// owners use it to re-anchor a private clock between sandbox runs so
// stale callbacks from an earlier sample can never fire into a later
// one. It drops the slab, so IDs issued before it cancel nothing.
// Resetting while RunUntil is on the stack panics.
func (c *Clock) Reset(start time.Time) {
	if c.running {
		panic("simclock: Reset during RunUntil")
	}
	c.now = start
	c.slab, c.free, c.heap = nil, nil, nil
}

// RunBudget is RunUntil with an event budget: it fires at most
// maxEvents events (maxEvents <= 0 means unlimited), stopping early
// with exhausted=true once the budget is spent. On early stop, Now
// stays at the last fired event's timestamp so the caller can see how
// far the run got before its watchdog tripped; pending events remain
// queued for the caller to abort, Reset, or resume. The sandbox uses
// this to bound hung activations — an emulation stuck in a
// self-rescheduling storm burns its budget long before the analysis
// window's deadline.
func (c *Clock) RunBudget(deadline time.Time, maxEvents int) (fired int, exhausted bool) {
	if c.running {
		panic("simclock: re-entrant RunBudget")
	}
	c.running = true
	defer func() { c.running = false }()

	for c.due(deadline) {
		if maxEvents > 0 && fired >= maxEvents {
			return fired, true
		}
		c.Step()
		fired++
	}
	if c.now.Before(deadline) {
		c.now = deadline
	}
	return fired, false
}

// RunFor is RunUntil(Now().Add(d)).
func (c *Clock) RunFor(d time.Duration) int { return c.RunUntil(c.now.Add(d)) }

// Drain fires every pending event (including ones scheduled while
// draining) up to limit events, returning the number fired. A limit
// of 0 means no limit. Drain panics if limit is exceeded, which
// indicates a runaway self-rescheduling loop.
func (c *Clock) Drain(limit int) int {
	fired := 0
	for c.Step() {
		fired++
		if limit > 0 && fired > limit {
			panic(fmt.Sprintf("simclock: Drain exceeded %d events", limit))
		}
	}
	return fired
}

// release returns a slot, already out of the heap, to the free list.
// The callback is dropped so the slab does not keep its captures
// alive.
func (c *Clock) release(slot int32) {
	e := &c.slab[slot]
	e.fn = nil
	e.pos = -1
	c.free = append(c.free, slot)
}

// less orders slots by (at, seq). Times compare exactly: UnixNano
// would overflow outside 1678–2262, and the zero Clock is at year 1.
func (c *Clock) less(a, b int32) bool {
	ea, eb := &c.slab[a], &c.slab[b]
	if r := ea.at.Compare(eb.at); r != 0 {
		return r < 0
	}
	return ea.seq < eb.seq
}

// place puts slot at heap index i and records the index in the slot.
func (c *Clock) place(i int, slot int32) {
	c.heap[i] = slot
	c.slab[slot].pos = int32(i)
}

// up sifts the slot at heap index i toward the root.
func (c *Clock) up(i int) {
	slot := c.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(slot, c.heap[parent]) {
			break
		}
		c.place(i, c.heap[parent])
		i = parent
	}
	c.place(i, slot)
}

// down sifts the slot at heap index i toward the leaves and reports
// whether it moved.
func (c *Clock) down(i int) bool {
	start, slot, n := i, c.heap[i], len(c.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && c.less(c.heap[r], c.heap[child]) {
			child = r
		}
		if !c.less(c.heap[child], slot) {
			break
		}
		c.place(i, c.heap[child])
		i = child
	}
	c.place(i, slot)
	return i > start
}

// remove takes the slot at heap index i out of the heap, restores
// the heap order, and returns the slot.
func (c *Clock) remove(i int) int32 {
	slot := c.heap[i]
	last := len(c.heap) - 1
	if i != last {
		c.place(i, c.heap[last])
	}
	c.heap = c.heap[:last]
	if i < last && !c.down(i) {
		c.up(i)
	}
	return slot
}
