package simclock

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

func TestNowStartsAtConstructorTime(t *testing.T) {
	c := New(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", c.Now(), t0)
	}
}

func TestScheduleFiresInTimestampOrder(t *testing.T) {
	c := New(t0)
	var got []int
	c.After(3*time.Hour, func() { got = append(got, 3) })
	c.After(1*time.Hour, func() { got = append(got, 1) })
	c.After(2*time.Hour, func() { got = append(got, 2) })
	c.Drain(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestEqualTimestampsFireFIFO(t *testing.T) {
	c := New(t0)
	var got []int
	at := t0.Add(time.Minute)
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(at, func() { got = append(got, i) })
	}
	c.Drain(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestStepAdvancesNow(t *testing.T) {
	c := New(t0)
	c.After(90*time.Minute, func() {})
	if !c.Step() {
		t.Fatal("Step returned false with pending event")
	}
	if want := t0.Add(90 * time.Minute); !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	c := New(t0)
	fired := false
	c.Schedule(t0.Add(-time.Hour), func() { fired = true })
	at, ok := c.NextAt()
	if !ok || !at.Equal(t0) {
		t.Fatalf("NextAt() = %v, %v; want %v, true", at, ok, t0)
	}
	c.Step()
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
	if !c.Now().Equal(t0) {
		t.Fatalf("Now moved backwards: %v", c.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	c := New(t0)
	fired := false
	id := c.After(time.Hour, func() { fired = true })
	if !c.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if c.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	c.Drain(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeapKeepsOrder(t *testing.T) {
	c := New(t0)
	var got []int
	ids := make([]EventID, 5)
	for i := 0; i < 5; i++ {
		i := i
		ids[i] = c.After(time.Duration(i+1)*time.Minute, func() { got = append(got, i) })
	}
	c.Cancel(ids[2])
	c.Drain(0)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilStopsAtDeadlineAndAdvances(t *testing.T) {
	c := New(t0)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Hour, 2 * time.Hour, 26 * time.Hour} {
		d := d
		c.After(d, func() { fired = append(fired, d) })
	}
	n := c.RunUntil(t0.Add(24 * time.Hour))
	if n != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", n)
	}
	if !c.Now().Equal(t0.Add(24 * time.Hour)) {
		t.Fatalf("Now() = %v, want deadline", c.Now())
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", c.Pending())
	}
}

func TestRunUntilHonorsEventsScheduledWhileRunning(t *testing.T) {
	c := New(t0)
	var got []string
	c.After(time.Hour, func() {
		got = append(got, "a")
		c.After(time.Hour, func() { got = append(got, "b") })
	})
	c.RunFor(3 * time.Hour)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
}

func TestDrainLimitPanicsOnRunaway(t *testing.T) {
	c := New(t0)
	var reschedule func()
	reschedule = func() { c.After(time.Second, reschedule) }
	c.After(time.Second, reschedule)
	defer func() {
		if recover() == nil {
			t.Fatal("Drain did not panic on runaway loop")
		}
	}()
	c.Drain(100)
}

func TestScheduleNilPanics(t *testing.T) {
	for name, schedule := range map[string]func(c *Clock){
		"Schedule(nil)":     func(c *Clock) { c.Schedule(t0, nil) },
		"ScheduleCall(nil)": func(c *Clock) { c.ScheduleCall(t0, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			schedule(New(t0))
		}()
	}
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing timestamp order and Now never moves backwards.
func TestQuickFiringOrderMonotonic(t *testing.T) {
	f := func(offsets []uint16) bool {
		c := New(t0)
		for _, off := range offsets {
			c.After(time.Duration(off)*time.Second, func() {})
		}
		prev := c.Now()
		for c.Step() {
			if c.Now().Before(prev) {
				return false
			}
			prev = c.Now()
		}
		return c.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Drain fires exactly as many events as were scheduled when
// callbacks do not reschedule.
func TestQuickDrainCountsAllEvents(t *testing.T) {
	f := func(offsets []uint8) bool {
		c := New(t0)
		for _, off := range offsets {
			c.After(time.Duration(off)*time.Minute, func() {})
		}
		return c.Drain(0) == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Reset must return the clock to a clean slate: no pending events, no
// surviving callbacks, Now moved to the new anchor even when that is
// backwards — exactly what shard reuse between sandbox runs needs.
func TestResetClearsQueueAndRewinds(t *testing.T) {
	c := New(t0)
	fired := 0
	c.After(time.Minute, func() { fired++ })
	c.After(2*time.Minute, func() { fired++ })
	c.RunFor(90 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d before reset, want 1", fired)
	}

	c.Reset(t0.Add(-24 * time.Hour))
	if got := c.Now(); !got.Equal(t0.Add(-24 * time.Hour)) {
		t.Fatalf("Now after reset = %v, want %v", got, t0.Add(-24*time.Hour))
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after reset, want 0", c.Pending())
	}
	c.RunFor(time.Hour)
	if fired != 1 {
		t.Fatalf("stale event fired after reset (fired = %d)", fired)
	}

	// The reset clock schedules and cancels like a fresh one.
	id := c.After(time.Minute, func() { fired += 10 })
	if !c.Cancel(id) {
		t.Fatal("cancel after reset failed")
	}
	c.After(time.Minute, func() { fired += 100 })
	c.RunFor(2 * time.Minute)
	if fired != 101 {
		t.Fatalf("fired = %d after reset schedule, want 101", fired)
	}
}

// Resetting mid-run would yank events out from under the dispatch
// loop; the clock must refuse.
func TestResetDuringRunPanics(t *testing.T) {
	c := New(t0)
	c.After(time.Minute, func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset during RunUntil did not panic")
			}
		}()
		c.Reset(t0)
	})
	c.RunFor(2 * time.Minute)
}

// TestRunBudgetStopsAtBudget: the budgeted run fires exactly
// maxEvents, leaves Now at the last fired event, and keeps the rest
// of the queue intact for the caller to abort or resume.
func TestRunBudgetStopsAtBudget(t *testing.T) {
	c := New(t0)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(t0.Add(time.Duration(i+1)*time.Second), func() { fired = append(fired, i) })
	}
	n, exhausted := c.RunBudget(t0.Add(time.Minute), 4)
	if !exhausted || n != 4 {
		t.Fatalf("RunBudget = (%d, %v), want (4, true)", n, exhausted)
	}
	if len(fired) != 4 || fired[3] != 3 {
		t.Fatalf("fired = %v, want the first 4 events in order", fired)
	}
	if got := c.Now(); !got.Equal(t0.Add(4 * time.Second)) {
		t.Fatalf("Now = %v, want the 4th event's timestamp", got)
	}
	if c.Pending() != 6 {
		t.Fatalf("Pending = %d, want the 6 unfired events", c.Pending())
	}

	// Resuming with room to spare drains the rest and reaches the
	// deadline like a plain RunUntil.
	n, exhausted = c.RunBudget(t0.Add(time.Minute), 100)
	if exhausted || n != 6 {
		t.Fatalf("resumed RunBudget = (%d, %v), want (6, false)", n, exhausted)
	}
	if !c.Now().Equal(t0.Add(time.Minute)) {
		t.Fatalf("Now = %v, want the deadline", c.Now())
	}
}

// TestRunBudgetUnlimited: maxEvents <= 0 behaves exactly like
// RunUntil.
func TestRunBudgetUnlimited(t *testing.T) {
	c := New(t0)
	count := 0
	for i := 0; i < 10; i++ {
		c.Schedule(t0.Add(time.Duration(i)*time.Second), func() { count++ })
	}
	n, exhausted := c.RunBudget(t0.Add(time.Minute), 0)
	if exhausted || n != 10 || count != 10 {
		t.Fatalf("unlimited RunBudget = (%d, %v), count %d", n, exhausted, count)
	}
}

// TestRunBudgetCountsSelfRescheduling: a runaway self-rescheduling
// event cannot outrun the budget — the watchdog's core guarantee.
func TestRunBudgetCountsSelfRescheduling(t *testing.T) {
	c := New(t0)
	var loop func()
	loop = func() { c.After(time.Millisecond, loop) }
	c.After(0, loop)
	n, exhausted := c.RunBudget(t0.Add(24*time.Hour), 1000)
	if !exhausted || n != 1000 {
		t.Fatalf("RunBudget = (%d, %v), want (1000, true)", n, exhausted)
	}
}

// TestStaleIDCannotCancelSlotReuser: once an event fires, its slot is
// recycled for the next Schedule; the old ID must not cancel the new
// occupant.
func TestStaleIDCannotCancelSlotReuser(t *testing.T) {
	c := New(t0)
	stale := c.After(time.Minute, func() {})
	c.Step()
	fired := false
	fresh := c.After(time.Minute, func() { fired = true })
	if uint32(fresh) != uint32(stale) {
		t.Fatalf("fresh event did not reuse the freed slot (ids %#x, %#x)", stale, fresh)
	}
	if c.Cancel(stale) {
		t.Fatal("stale ID cancelled the slot's new occupant")
	}
	c.Drain(0)
	if !fired {
		t.Fatal("new occupant did not fire")
	}

	// The same holds for a slot freed by Cancel.
	old := c.After(time.Minute, func() {})
	c.Cancel(old)
	fired = false
	c.After(time.Minute, func() { fired = true })
	if c.Cancel(old) {
		t.Fatal("cancelled ID cancelled the slot's new occupant")
	}
	c.Drain(0)
	if !fired {
		t.Fatal("new occupant did not fire")
	}
}

// TestCancelFiringEventReturnsFalse: by the time a callback runs, its
// own event is no longer pending.
func TestCancelFiringEventReturnsFalse(t *testing.T) {
	c := New(t0)
	var id EventID
	cancelled := true
	id = c.After(time.Minute, func() { cancelled = c.Cancel(id) })
	c.Drain(0)
	if cancelled {
		t.Fatal("Cancel of the event now firing returned true")
	}
}

// TestResetInvalidatesIDs: IDs issued before a Reset cancel nothing
// afterwards, even once the fresh slab hands out the same slots.
func TestResetInvalidatesIDs(t *testing.T) {
	c := New(t0)
	var before []EventID
	for i := 0; i < 4; i++ {
		before = append(before, c.After(time.Duration(i+1)*time.Minute, func() {}))
	}
	c.Reset(t0)
	for _, id := range before {
		if c.Cancel(id) {
			t.Fatalf("pre-Reset ID %#x cancelled something on the empty clock", id)
		}
	}
	fired := 0
	for i := 0; i < 4; i++ {
		c.After(time.Duration(i+1)*time.Minute, func() { fired++ })
	}
	for _, id := range before {
		if c.Cancel(id) {
			t.Fatalf("pre-Reset ID %#x cancelled a post-Reset event", id)
		}
	}
	if n := c.Drain(0); n != 4 || fired != 4 {
		t.Fatalf("Drain fired %d (callbacks %d), want 4", n, fired)
	}
}

// refClock is the differential oracle: a plain list scanned for the
// least (at, seq) on every pop.
type refClock struct {
	now     time.Time
	seq     uint64
	pending []refEvent
	fired   []int
	labels  int
}

type refEvent struct {
	at    time.Time
	seq   uint64
	label int
}

func (r *refClock) schedule(at time.Time) int {
	if at.Before(r.now) {
		at = r.now
	}
	r.seq++
	label := r.labels
	r.labels++
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, label: label})
	return label
}

func (r *refClock) cancel(label int) bool {
	for i, e := range r.pending {
		if e.label == label {
			r.pending = slices.Delete(r.pending, i, i+1)
			return true
		}
	}
	return false
}

// less orders two pending events by (at, seq).
func (a refEvent) less(b refEvent) bool {
	return a.at.Before(b.at) || a.at.Equal(b.at) && a.seq < b.seq
}

// next returns the index of the least pending (at, seq), or -1.
func (r *refClock) next() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 || e.less(r.pending[best]) {
			best = i
		}
	}
	return best
}

// nth returns the label of the pending event that fires k-th from
// now, counting from 0 and wrapping around, or -1 with none pending.
func (r *refClock) nth(k int) int {
	if len(r.pending) == 0 {
		return -1
	}
	order := slices.Clone(r.pending)
	slices.SortFunc(order, func(a, b refEvent) int {
		if a.less(b) {
			return -1
		}
		return 1
	})
	return order[k%len(order)].label
}

func (r *refClock) step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	e := r.pending[i]
	r.pending = slices.Delete(r.pending, i, i+1)
	r.now = e.at
	r.fired = append(r.fired, e.label)
	if child, ok := childDelay(e.label); ok {
		r.schedule(r.now.Add(child))
	}
	return true
}

func (r *refClock) runBudget(deadline time.Time, max int) (int, bool) {
	fired := 0
	for i := r.next(); i >= 0 && !r.pending[i].at.After(deadline); i = r.next() {
		if max > 0 && fired >= max {
			return fired, true
		}
		r.step()
		fired++
	}
	if r.now.Before(deadline) {
		r.now = deadline
	}
	return fired, false
}

// reset drops every pending event, as Clock.Reset does; labels keep
// counting.
func (r *refClock) reset(start time.Time) {
	r.now = start
	r.pending = nil
}

// childDelay makes some callbacks schedule a follow-up, so the clock
// grows its slab from inside Step. A zero delay lands on the firing
// event's own instant, behind whatever is queued there.
func childDelay(label int) (time.Duration, bool) {
	return time.Duration(label%3) * time.Hour, label%4 == 0
}

// labelHandler is a pointer handler that hands its event's argument
// to fire as the label.
type labelHandler struct{ fire func(label int) }

func (h *labelHandler) Fire(arg uint64) { h.fire(int(arg)) }

// refInstants are the bases test instants are drawn from: the zero
// Clock's year 1, 2021, and year 3000. Year 1 and 3000 lie outside
// UnixNano's 1678–2262 range, where an ordering by UnixNano puts 3000
// before 2021.
var refInstants = []time.Time{{}, t0, time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)}

// refInstant maps k onto one of 36 instants: a base, 0–5 hours past
// it, and on the second or half a second past it, so ties exercise
// the sequence order and the nanoseconds take part.
func refInstant(k int) time.Time {
	return refInstants[k%3].Add(time.Duration(k/3%6)*time.Hour + time.Duration(k/18%2)*time.Second/2)
}

// clockPair drives the zero Clock and the oracle through the same
// operations and fails the test at the first disagreement in what
// fired, Now, Pending or NextAt. About half the events go through
// ScheduleCall, interleaved with closures, so both forms share one
// order.
type clockPair struct {
	t     *testing.T
	where func() string // names the operation for a failure
	c     Clock
	ref   refClock
	fired []int
	ids   []EventID // by label
	h     *labelHandler
}

func newClockPair(t *testing.T, where func() string) *clockPair {
	p := &clockPair{t: t, where: where}
	p.h = &labelHandler{fire: p.onFire}
	return p
}

func (p *clockPair) onFire(label int) {
	p.fired = append(p.fired, label)
	if d, ok := childDelay(label); ok {
		p.scheduleClock(p.c.Now().Add(d))
	}
}

func (p *clockPair) scheduleClock(at time.Time) {
	label := len(p.ids)
	if label/3%2 == 0 {
		p.ids = append(p.ids, p.c.ScheduleCall(at, p.h, uint64(label)))
		return
	}
	p.ids = append(p.ids, p.c.Schedule(at, func() { p.onFire(label) }))
}

// burst schedules n events back to back at one instant: a run.
func (p *clockPair) burst(at time.Time, n int) {
	for i := 0; i < n; i++ {
		p.scheduleClock(at)
		p.ref.schedule(at)
	}
}

// cancel cancels the event with the given label, which may have
// fired, been cancelled, or predate a Reset.
func (p *clockPair) cancel(label int) {
	if label < 0 || label >= len(p.ids) {
		return
	}
	if got, want := p.c.Cancel(p.ids[label]), p.ref.cancel(label); got != want {
		p.t.Fatalf("%s: Cancel(label %d) = %v, want %v", p.where(), label, got, want)
	}
}

// cancelPending cancels the pending event that would fire k-th: a
// run's head, a middle event or its tail.
func (p *clockPair) cancelPending(k int) { p.cancel(p.ref.nth(k)) }

func (p *clockPair) step() {
	if got, want := p.c.Step(), p.ref.step(); got != want {
		p.t.Fatalf("%s: Step = %v, want %v", p.where(), got, want)
	}
}

func (p *clockPair) runUntil(deadline time.Time) {
	got := p.c.RunUntil(deadline)
	if want, _ := p.ref.runBudget(deadline, 0); got != want {
		p.t.Fatalf("%s: RunUntil fired %d, want %d", p.where(), got, want)
	}
}

func (p *clockPair) runBudget(deadline time.Time, max int) {
	got, gotEx := p.c.RunBudget(deadline, max)
	if want, wantEx := p.ref.runBudget(deadline, max); got != want || gotEx != wantEx {
		p.t.Fatalf("%s: RunBudget = (%d, %v), want (%d, %v)", p.where(), got, gotEx, want, wantEx)
	}
}

func (p *clockPair) reset(start time.Time) {
	p.c.Reset(start)
	p.ref.reset(start)
}

// check compares everything the two clocks expose.
func (p *clockPair) check() {
	if len(p.ids) != p.ref.labels {
		p.t.Fatalf("%s: %d events scheduled, reference %d", p.where(), len(p.ids), p.ref.labels)
	}
	if !slices.Equal(p.fired, p.ref.fired) {
		p.t.Fatalf("%s: fired %v, want %v", p.where(), p.fired, p.ref.fired)
	}
	if !p.c.Now().Equal(p.ref.now) {
		p.t.Fatalf("%s: Now = %v, want %v", p.where(), p.c.Now(), p.ref.now)
	}
	if p.c.Pending() != len(p.ref.pending) {
		p.t.Fatalf("%s: Pending = %d, want %d", p.where(), p.c.Pending(), len(p.ref.pending))
	}
	at, ok := p.c.NextAt()
	if i := p.ref.next(); ok != (i >= 0) || ok && !at.Equal(p.ref.pending[i].at) {
		p.t.Fatalf("%s: NextAt = %v, %v; reference disagrees", p.where(), at, ok)
	}
}

// TestClockMatchesReference drives the clock and the sorted-list
// oracle through the same random interleaving of Schedule, Cancel,
// Step, RunUntil and RunBudget, starting from the zero Clock (year 1)
// and jumping to 2021 and year 3000. Half the schedules are bursts of
// 1–50 events at one instant, which the clock keeps as runs, and half
// the cancels pick a pending event by its place in the firing order,
// so run heads, middles and tails are all cancelled.
func TestClockMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		op := 0
		p := newClockPair(t, func() string { return fmt.Sprintf("seed %d op %d", seed, op) })
		for ; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				n := 1
				if rng.Intn(2) == 0 {
					n += rng.Intn(50)
				}
				p.burst(refInstant(rng.Intn(36)), n)
			case k < 6:
				if rng.Intn(2) == 0 {
					p.cancel(rng.Intn(len(p.ids) + 1))
				} else {
					p.cancelPending(rng.Intn(64))
				}
			case k < 8:
				p.step()
			case k < 9:
				p.runUntil(refInstant(rng.Intn(36)))
			default:
				p.runBudget(refInstant(rng.Intn(36)), rng.Intn(4))
			}
			p.check()
		}
	}
}

// FuzzClockMatchesReference decodes its input, three bytes an
// operation, into bursts of 1–50 schedules at a few instants, cancels
// of any event or of a pending run's head, middle or tail, Step,
// RunUntil, RunBudget and Reset. It runs them on the zero Clock and
// on the oracle and requires the same fired order, Now, Pending and
// NextAt after every operation.
func FuzzClockMatchesReference(f *testing.F) {
	const (
		opBurst = iota
		opCancel
		opCancelPending
		opStep
		opRunUntil
		opRunBudget
		opReset
		numOps
	)
	// Seeds: a run of five with its head, a middle and its tail
	// cancelled; runs at two instants interleaved with a step that
	// hands a head's entry to its successor; a budgeted run stopping
	// inside a run; a Reset between runs.
	f.Add([]byte{
		opBurst, 1, 4, opCancelPending, 0, 0, opCancelPending, 1, 0, opCancelPending, 2, 0,
		opStep, 0, 0, opRunUntil, 35, 0,
	})
	f.Add([]byte{
		opBurst, 7, 9, opBurst, 2, 0, opBurst, 7, 3, opStep, 0, 0, opBurst, 7, 2,
		opCancel, 1, 0, opCancelPending, 5, 0, opRunBudget, 7, 6, opRunUntil, 28, 0,
	})
	f.Add([]byte{
		opBurst, 4, 49, opRunBudget, 31, 3, opBurst, 4, 0, opBurst, 4, 5,
		opReset, 2, 0, opBurst, 2, 1, opCancel, 60, 0, opStep, 0, 0, opStep, 0, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		i := 0
		p := newClockPair(t, func() string { return fmt.Sprintf("op %d (%v)", i/3, ops[i:i+3]) })
		for ; i+3 <= len(ops); i += 3 {
			x, y := int(ops[i+1]), int(ops[i+2])
			switch ops[i] % numOps {
			case opBurst:
				p.burst(refInstant(x), 1+y%50)
			case opCancel:
				p.cancel(x)
			case opCancelPending:
				p.cancelPending(x)
			case opStep:
				p.step()
			case opRunUntil:
				p.runUntil(refInstant(x))
			case opRunBudget:
				p.runBudget(refInstant(x), y%4)
			case opReset:
				p.reset(refInstant(x))
			}
			p.check()
		}
	})
}

// countHandler is a pointer handler that sums its arguments.
type countHandler struct{ sum uint64 }

func (h *countHandler) Fire(arg uint64) { h.sum += arg }

// TestScheduleStepAllocFree: a warm clock schedules and fires without
// allocating, through a closure and through a pointer handler.
func TestScheduleStepAllocFree(t *testing.T) {
	c := New(t0)
	fn := func() {}
	h := &countHandler{}
	for i := 0; i < 64; i++ {
		c.After(time.Duration(i)*time.Second, fn)
		c.AfterCall(time.Duration(i)*time.Second, h, 1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id := c.After(time.Minute, fn)
		c.After(30*time.Second, fn)
		c.Cancel(id)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule/Cancel/Step allocated %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		id := c.AfterCall(time.Minute, h, 2)
		c.AfterCall(30*time.Second, h, 1)
		c.Cancel(id)
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleCall/Cancel/Step allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkClockScheduleStep measures one Schedule plus one Step
// against a standing backlog of 1024 events.
func BenchmarkClockScheduleStep(b *testing.B) {
	c := New(t0)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		c.After(time.Duration(i)*time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(time.Duration(i%1024)*time.Second, fn)
		c.Step()
	}
}

// BenchmarkClockScheduleCallStep is BenchmarkClockScheduleStep with
// a pointer handler in place of the closure.
func BenchmarkClockScheduleCallStep(b *testing.B) {
	c := New(t0)
	h := &countHandler{}
	for i := 0; i < 1024; i++ {
		c.AfterCall(time.Duration(i)*time.Second, h, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AfterCall(time.Duration(i%1024)*time.Second, h, 1)
		c.Step()
	}
}
