package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"malnet/internal/loadgen"
)

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	endpoint string
	path     string
	due      time.Duration // since the phase start
}

// outcome is what the driver saw of one arrival. Times are offsets
// from the phase start: claim is when a sender took the arrival, send
// when its request went out, done when the whole body was read.
type outcome struct {
	claim, send, done time.Duration
	status            int // 0 after a transport error
	gen               int // mount order of the generation the body names; -1 for none
	mounted           int // mount order of the head mounted when the request was sent
	size              int
	sum               uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// driver is the open-loop load generator. A fixed pool of senders, one
// HTTP connection each, claims arrivals in schedule order; each sender
// sleeps until its arrival is due and sends it. An arrival that falls
// due while every sender is busy waits for one, and since latency runs
// from the due time, that wait is charged to the server. The
// generator's own oversleep is reported apart, as lateness.
type driver struct {
	client  *http.Client
	base    string
	senders int
	sched   *loadgen.Schedule
	addrs   []string // the first generation's C2 index, for c2_point ranks
	gens    *generations
	tr      *tracer
}

func newDriver(fx *fixture, cfg runConfig, tr *tracer) (*driver, error) {
	st := fx.srv.Store()
	addrs := st.C2Addresses()
	if len(addrs) == 0 {
		return nil, fmt.Errorf("generation %.12s has no C2 endpoints for c2_point reads", st.Generation)
	}
	return &driver{
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     cfg.senders,
				MaxIdleConnsPerHost: cfg.senders,
				DisableCompression:  true,
			},
		},
		base:    fx.base,
		senders: cfg.senders,
		sched:   loadgen.NewSchedule(cfg.seed),
		addrs:   addrs,
		gens:    newGenerations(st.Generation),
		tr:      tr,
	}, nil
}

// plan draws length's worth of evenly spaced arrivals at rate from the
// schedule.
func (d *driver) plan(rate float64, length time.Duration) []arrival {
	interval := float64(time.Second) / rate
	arrs := make([]arrival, int(rate*length.Seconds()))
	for i := range arrs {
		q := d.sched.Next()
		path := q.Path
		if q.C2Rank >= 0 {
			path = "/v1/c2/" + d.addrs[q.C2Rank%len(d.addrs)]
		}
		arrs[i] = arrival{endpoint: q.Endpoint, path: path, due: time.Duration(float64(i) * interval)}
	}
	return arrs
}

// run sends arrs open-loop and returns what each got, with the phase's
// wall time.
func (d *driver) run(arrs []arrival, parent int64) ([]outcome, time.Duration) {
	outs := make([]outcome, len(arrs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range d.senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrs) {
					return
				}
				a, o := &arrs[i], &outs[i]
				if o.claim = time.Since(start); o.claim < a.due {
					sleepUntil(start.Add(a.due))
				}
				o.mounted = int(d.gens.mounted.Load())
				_, end := d.tr.begin(a.endpoint, parent)
				o.send = time.Since(start)
				o.status = d.get(a.path, &body)
				o.done = time.Since(start)
				end()
				o.size, o.sum = body.Len(), crc32.Checksum(body.Bytes(), castagnoli)
				o.gen = d.gens.lookup(generationOf(body.Bytes()))
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// get fetches path into body and returns the status, 0 on a transport
// error.
func (d *driver) get(path string, body *bytes.Buffer) int {
	body.Reset()
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0
	}
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

// generationOf returns the generation id a /v1 response body names, nil
// if it names none.
func generationOf(body []byte) []byte {
	const key = `"generation":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 || len(body) < i+len(key)+64 {
		return nil
	}
	return body[i+len(key) : i+len(key)+64]
}

// generations numbers served generations in mount order. The writer
// adds a generation before mounting it; senders look up the one each
// response names.
type generations struct {
	mu      sync.RWMutex
	seq     map[string]int
	mounted atomic.Int64 // the newest generation mounted
}

func newGenerations(first string) *generations {
	return &generations{seq: map[string]int{first: 0}}
}

func (g *generations) add(id string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n, ok := g.seq[id]; ok {
		return n
	}
	g.seq[id] = len(g.seq)
	return g.seq[id]
}

// lookup returns the mount order of generation id, -1 if unknown.
func (g *generations) lookup(id []byte) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if n, ok := g.seq[string(id)]; ok {
		return n
	}
	return -1
}

// checker judges every response of one fixture: a status of 200, a
// body naming a generation no older than the head mounted when its
// request was sent, and for each (generation, path) the same bytes
// every time.
type checker struct {
	bodies map[bodyKey]bodySum
	wrong  int      // responses that broke the serving contract
	notes  []string // the first few failures
}

type bodyKey struct {
	gen  int
	path string
}

type bodySum struct {
	size int
	sum  uint32
}

func newChecker() *checker { return &checker{bodies: map[bodyKey]bodySum{}} }

// check judges a phase's outcomes and returns how many failed.
func (c *checker) check(arrs []arrival, outs []outcome) int {
	failed := 0
	for i := range outs {
		a, o := &arrs[i], &outs[i]
		why := ""
		if o.status != http.StatusOK {
			why = fmt.Sprintf("status %d (0: transport error)", o.status)
		} else if why = c.judge(a, o); why != "" {
			c.wrong++
		}
		if why != "" {
			failed++
			if len(c.notes) < 10 {
				c.notes = append(c.notes, a.path+": "+why)
			}
		}
	}
	return failed
}

func (c *checker) judge(a *arrival, o *outcome) string {
	if o.gen < 0 {
		return "the body names no served generation"
	}
	if o.gen < o.mounted {
		return fmt.Sprintf("generation #%d answered a request sent after #%d was mounted", o.gen, o.mounted)
	}
	k, got := bodyKey{o.gen, a.path}, bodySum{o.size, o.sum}
	if want, seen := c.bodies[k]; !seen {
		c.bodies[k] = got
	} else if want != got {
		return fmt.Sprintf("the body differs from an earlier response of generation #%d", o.gen)
	}
	return ""
}

// phase is what one open-loop phase measured, in milliseconds.
type phase struct {
	rate       float64
	n, failed  int
	elapsed    time.Duration
	lat        []float64            // from each request's due time, sorted
	windowP99  float64              // median over the phase's seconds of each second's p99 lat
	late       []float64            // the generator's oversleep, sorted
	backlog    float64              // median wait for a free sender over the last quarter
	byEndpoint map[string][]float64 // lat per endpoint, sorted
}

func summarize(rate float64, arrs []arrival, outs []outcome, elapsed time.Duration, failed int) phase {
	p := phase{rate: rate, n: len(outs), failed: failed, elapsed: elapsed, byEndpoint: map[string][]float64{}}
	var tail []float64
	var windows [][]float64 // lat by the second the request was due in
	for i, o := range outs {
		due := arrs[i].due
		lat := ms(o.done - due)
		p.lat = append(p.lat, lat)
		w := int(due / time.Second)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], lat)
		p.late = append(p.late, ms(o.send-max(due, o.claim)))
		p.byEndpoint[arrs[i].endpoint] = append(p.byEndpoint[arrs[i].endpoint], lat)
		if i >= len(outs)*3/4 {
			tail = append(tail, ms(max(0, o.claim-due)))
		}
	}
	sort.Float64s(p.lat)
	sort.Float64s(p.late)
	for _, l := range p.byEndpoint {
		sort.Float64s(l)
	}
	sort.Float64s(tail)
	p.backlog = percentile(tail, 0.5)
	var p99s []float64
	for _, w := range windows {
		sort.Float64s(w)
		p99s = append(p99s, percentile(w, 0.99))
	}
	p.windowP99 = median(p99s)
	return p
}

// holds reports whether a ladder step kept to the limits: nothing
// failed, p99 latency within p99LimitMs, a punctual generator and no
// backlog building up.
func (p phase) holds() bool {
	return p.failed == 0 && percentile(p.lat, 0.99) <= p99LimitMs &&
		percentile(p.late, 0.99) <= lateLimitMs && p.backlog <= backlogLimitMs
}

func (p phase) throughput() float64 { return float64(p.n) / p.elapsed.Seconds() }

// measure plans, sends, checks and summarises one phase.
func (d *driver) measure(rate float64, length time.Duration, chk *checker, parent int64, label string) phase {
	arrs := d.plan(rate, length)
	id, end := d.tr.begin(label, parent)
	outs, elapsed := d.run(arrs, id)
	end()
	return summarize(rate, arrs, outs, elapsed, chk.check(arrs, outs))
}

// ladder finds the highest rate whose one-second steps hold. It climbs
// by ladderFactor from ladderStart while steps hold, or descends while
// they fail; once it has a holding and a failing rate it halves the
// bracket between them with the steps left, and places the p99 limit
// inside the final bracket by interpolation. A rate fails only when a
// second step at it fails too: one bad second can be a stall of a
// shared machine rather than the server's limit. With no failing rate
// in reach, capacity is the throughput of the highest step.
func (d *driver) ladder(steps int, chk *checker, parent int64) (capacity float64, ran []phase) {
	var hold, fail *phase
	rate := ladderStart
	for used := 0; used < steps; {
		step := func() phase {
			used++
			p := d.measure(rate, stepLength, chk, parent, fmt.Sprintf("ladder %.0f/s", rate))
			ran = append(ran, p)
			return p
		}
		p := step()
		if !p.holds() && used < steps {
			p = step()
		}
		if p.holds() {
			if hold == nil || p.rate > hold.rate {
				hold = &p
			}
		} else if fail == nil || p.rate < fail.rate {
			fail = &p
		}
		switch {
		case hold != nil && fail != nil:
			rate = math.Sqrt(hold.rate * fail.rate)
		case hold != nil:
			rate *= ladderFactor
		default:
			rate /= ladderFactor
		}
	}
	switch {
	case hold != nil && fail != nil:
		return interpolate(*hold, *fail), ran
	case hold != nil:
		return hold.throughput(), ran
	}
	return fail.throughput(), ran
}

// interpolate places the p99 limit between a holding and a failing
// step, linearly in rate.
func interpolate(hold, fail phase) float64 {
	hp, fp := percentile(hold.lat, 0.99), percentile(fail.lat, 0.99)
	frac := 0.0
	if fp > p99LimitMs && fp > hp {
		frac = math.Min(1, math.Max(0, (p99LimitMs-hp)/(fp-hp)))
	}
	return hold.rate + (fail.rate-hold.rate)*frac
}
