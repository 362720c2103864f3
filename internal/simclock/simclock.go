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
// list, and the pending set is a binary min-heap of slot indices
// that carry their own order keys. A hot caller schedules a Handler
// with an argument instead of a closure, so its events allocate
// nothing either.
//
// Events scheduled back to back for one instant form a run: the
// first takes a heap entry and the rest wait behind it in a FIFO.
// Sequence numbers rise with every schedule, so nothing pending can
// order between two neighbours of a run; popping a run's head hands
// its heap entry to the next event in place, with no sift. A sweep
// that arms thousands of identical timeouts in one handler costs one
// heap entry.
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

// Handler is the closure-free form of an event: Fire runs with the
// argument the event was scheduled with. One handler value, typically
// a pointer to the state the event acts on, serves many events that
// differ only in their argument.
type Handler interface {
	Fire(arg uint64)
}

// funcHandler adapts a Schedule callback. A func value is
// pointer-shaped, so converting one to a Handler does not allocate.
type funcHandler func()

func (f funcHandler) Fire(uint64) { f() }

// event is a single scheduled callback, stored by value in the slab.
type event struct {
	at  time.Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	h   Handler
	arg uint64
	// pos is the event's index in Clock.heap while it heads a run,
	// posQueued while it waits behind another event, posFree while
	// the slot is free.
	pos int32
	// prev and next link the event into its run as slot+1; 0 is none,
	// so a freshly written slot is a run of one. Only unlink reads
	// prev, so a head's is left stale.
	prev, next int32
}

// event.pos values that are not heap indices.
const (
	posFree   int32 = -1
	posQueued int32 = -2
)

// entry is one pending event in the heap: its slab slot and a copy of
// its order key, so sifting compares without touching the slab. The
// key is (Unix seconds, nanoseconds, sequence), which orders exactly
// as time.Time.Compare does; UnixNano would overflow outside
// 1678–2262, and the zero Clock is at year 1.
type entry struct {
	sec  int64
	seq  uint64
	nsec int32
	slot int32
}

func (a *entry) less(b *entry) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.seq < b.seq
}

// Clock is a discrete-event virtual clock. It is not safe for
// concurrent use: the simulation is single-threaded by design, which
// is what makes runs reproducible.
type Clock struct {
	now     time.Time
	slab    []event
	free    []int32 // recycled slab slots
	heap    []entry // run heads, a min-heap ordered by (sec, nsec, seq)
	queued  int     // pending events behind a run head
	last    int32   // slot+1 of the newest event while it is pending; 0 is none
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
	return c.ScheduleCall(at, funcHandler(fn), 0)
}

// After registers fn to run d from now. Negative d is treated as zero.
func (c *Clock) After(d time.Duration, fn func()) EventID {
	return c.Schedule(c.now.Add(d), fn)
}

// ScheduleCall registers h.Fire(arg) to run at time at. It orders and
// cancels exactly like Schedule, which is ScheduleCall with a closure.
func (c *Clock) ScheduleCall(at time.Time, h Handler, arg uint64) EventID {
	if h == nil {
		panic("simclock: ScheduleCall with nil handler")
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
	c.slab[slot] = event{at: at, seq: c.nextSeq, h: h, arg: arg}
	if l := c.last; l != 0 && c.slab[l-1].at.Equal(at) {
		// The newest pending event is at the same instant and nothing
		// was scheduled since: queue behind it.
		c.slab[l-1].next = slot + 1
		c.slab[slot].prev = l
		c.slab[slot].pos = posQueued
		c.queued++
	} else {
		c.heap = append(c.heap, entry{sec: at.Unix(), nsec: int32(at.Nanosecond()), seq: c.nextSeq, slot: slot})
		c.up(len(c.heap) - 1)
	}
	c.last = slot + 1
	return EventID(c.nextSeq<<32 | uint64(slot+1))
}

// AfterCall registers h.Fire(arg) to run d from now. Negative d is
// treated as zero.
func (c *Clock) AfterCall(d time.Duration, h Handler, arg uint64) EventID {
	return c.ScheduleCall(c.now.Add(d), h, arg)
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
	if e.pos == posFree || uint32(e.seq) != uint32(id>>32) {
		return false
	}
	if e.pos == posQueued {
		c.unlink(int32(slot))
	} else {
		c.pop(int(e.pos))
	}
	c.release(int32(slot))
	return true
}

// Pending returns the number of scheduled events.
func (c *Clock) Pending() int { return len(c.heap) + c.queued }

// NextAt returns the timestamp of the earliest pending event. The
// second result is false when the queue is empty.
func (c *Clock) NextAt() (time.Time, bool) {
	if len(c.heap) == 0 {
		return time.Time{}, false
	}
	return c.slab[c.heap[0].slot].at, true
}

// Step fires the earliest pending event, advancing Now to its
// timestamp. It reports whether an event fired.
func (c *Clock) Step() bool {
	if len(c.heap) == 0 {
		return false
	}
	slot := c.pop(0)
	// Copy out before the call: the handler may schedule, growing
	// (and moving) the slab, and its slot is already free for reuse.
	e := &c.slab[slot]
	at, h, arg := e.at, e.h, e.arg
	c.release(slot)
	c.now = at
	h.Fire(arg)
	return true
}

// due reports whether the earliest pending event is at or before
// deadline.
func (c *Clock) due(deadline time.Time) bool {
	return len(c.heap) > 0 && !c.slab[c.heap[0].slot].at.After(deadline)
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
	c.queued, c.last = 0, 0
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

// release returns a slot, already out of the pending set, to the
// free list. The handler is dropped so the slab does not keep what it
// references alive.
func (c *Clock) release(slot int32) {
	e := &c.slab[slot]
	e.h = nil
	e.pos = posFree
	c.free = append(c.free, slot)
	if c.last == slot+1 {
		c.last = 0
	}
}

// pop takes the run head at heap index i out of the pending set and
// returns its slot. The next event of its run, if any, takes over the
// heap entry in place: nothing pending orders between the two, so
// the heap stays ordered without a sift.
func (c *Clock) pop(i int) int32 {
	head := c.heap[i]
	next := c.slab[head.slot].next
	if next == 0 {
		return c.remove(i)
	}
	c.queued--
	c.place(i, entry{sec: head.sec, nsec: head.nsec, seq: c.slab[next-1].seq, slot: next - 1})
	return head.slot
}

// unlink takes a queued event out of its run.
func (c *Clock) unlink(slot int32) {
	e := &c.slab[slot]
	c.slab[e.prev-1].next = e.next
	if e.next != 0 {
		c.slab[e.next-1].prev = e.prev
	}
	c.queued--
}

// place puts e at heap index i and records the index in its slot.
func (c *Clock) place(i int, e entry) {
	c.heap[i] = e
	c.slab[e.slot].pos = int32(i)
}

// up sifts the entry at heap index i toward the root.
func (c *Clock) up(i int) {
	e := c.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(&c.heap[parent]) {
			break
		}
		c.place(i, c.heap[parent])
		i = parent
	}
	c.place(i, e)
}

// down sifts the entry at heap index i toward the leaves and reports
// whether it moved.
func (c *Clock) down(i int) bool {
	start, e, n := i, c.heap[i], len(c.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && c.heap[r].less(&c.heap[child]) {
			child = r
		}
		if !c.heap[child].less(&e) {
			break
		}
		c.place(i, c.heap[child])
		i = child
	}
	c.place(i, e)
	return i > start
}

// remove takes the entry at heap index i out of the heap, restores
// the heap order, and returns its slot.
func (c *Clock) remove(i int) int32 {
	slot := c.heap[i].slot
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
