package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"malnet/internal/colstore"
	"malnet/internal/core"
	"malnet/internal/serve"
)

const (
	// setupRepeats is how many set-ups an untraced run makes;
	// setup_s and study_s are their medians.
	setupRepeats = 3
	warmup       = time.Second
	stepLength   = time.Second
	// The capacity ladder starts at ladderStart requests per second
	// and steps by ladderFactor.
	ladderStart    = 12000.0
	ladderFactor   = 1.1
	maxLadderSteps = 8
	// A ladder step holds when nothing failed, its p99 latency is
	// within p99LimitMs, the generator's p99 lateness is within
	// lateLimitMs, and over its last quarter arrivals waited no more
	// than backlogLimitMs (median) for a free sender.
	p99LimitMs     = 5.0
	lateLimitMs    = 1.0
	backlogLimitMs = 1.0
	reloadEvery    = time.Second
	// retimes is the fewest re-timings of snapshot open, store build
	// and column encode a traced pass makes.
	retimes = 5
)

// endpoints are the schedule's latency buckets, which are also the red
// plane's endpoint labels.
var endpoints = []string{"samples", "c2_point", "c2_index", "attacks", "query", "headline", "metrics"}

// pass is one measurement of a workload: set-ups, then the timed phase
// — warm-up, the nominal rate, the capacity ladder — on the last
// set-up's fixture.
type pass struct {
	setupS, studyS, freshMs []float64
	digests                 []string
	studyWall               time.Duration // the last set-up's study
	nominal                 phase
	capacity                float64
	peakRSSMB               float64
	attempted, failed       int64
	wrong                   bool              // a correctness check failed
	notes                   []string          // what failed, the first few of each kind
	layers                  map[string]metric // traced passes only
}

// window is what the program's counters read around the nominal phase.
type window struct {
	mem0, mem1     memStats
	cache0, cache1 map[string]int64
	requests       int
}

func runPass(wl workload, cfg runConfig, setups int, tr *tracer, log io.Writer) (*pass, error) {
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS()
	defer rss.finish()
	p := &pass{}
	var fx *fixture
	defer func() { fx.close() }()
	for i := range setups {
		if err := fx.close(); err != nil {
			return nil, err
		}
		if fx, err = setUp(wl, cfg, filepath.Join(dir, strconv.Itoa(i)), cfg.seconds+2, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.attempted++
		p.setupS = append(p.setupS, fx.setup.Seconds())
		p.studyS = append(p.studyS, fx.run.wall.Seconds())
		p.digests = append(p.digests, fx.run.digest)
		if !wl.reload {
			p.freshMs = append(p.freshMs, ms(fx.mount))
		}
		fmt.Fprintf(log, "perfbench: %s set-up %d: %.2fs, study %.2fs\n", wl.name, i+1, fx.setup.Seconds(), fx.run.wall.Seconds())
	}
	p.studyWall = fx.run.wall
	problems := disagreements(p.digests)
	if pp := pinProblem(pinned, cfg.worldSeed, p.digests[0]); pp != "" {
		problems = append(problems, pp)
	}
	if len(problems) > 0 {
		p.wrong = true
		p.notes = append(p.notes, problems...)
	}

	drv, err := newDriver(fx, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer drv.client.CloseIdleConnections()
	// The set-ups' garbage is not the server's: collect it before timing.
	runtime.GC()
	chk := newChecker()
	id, end := tr.begin("timed phase", 0)
	var wr *writer
	if wl.reload {
		wr = fx.startWriter(drv.gens, cfg.worldSeed, tr, id)
	}
	phases := []phase{drv.measure(wl.rate, warmup, chk, id, "warm-up")}
	win := window{mem0: readMem(), cache0: cacheCounts(fx.wall)}
	fx.access.arm(true)
	p.nominal = drv.measure(wl.rate, cfg.nominal(), chk, id, "nominal")
	fx.access.arm(false)
	win.mem1, win.cache1, win.requests = readMem(), cacheCounts(fx.wall), p.nominal.n
	capacity, steps := drv.ladder(cfg.ladderSteps(), chk, id)
	p.capacity = capacity
	if wr != nil {
		wr.finish()
		p.freshMs = msAll(wr.fresh)
		p.attempted += int64(wr.attempted)
		p.failed += int64(wr.failed)
		p.notes = append(p.notes, wr.notes...)
	}
	end()
	for _, ph := range append(append(phases, p.nominal), steps...) {
		p.attempted += int64(ph.n)
		p.failed += int64(ph.failed)
	}
	p.wrong = p.wrong || chk.wrong > 0
	p.notes = append(p.notes, chk.notes...)
	if len(p.freshMs) == 0 {
		return nil, errors.New("no generation was mounted during the timed phase")
	}
	if tr != nil {
		if p.layers, err = readLayers(cfg, fx, p.nominal, win, tr); err != nil {
			return nil, err
		}
		p.layers["capacity_rps"] = metric{p.capacity, "1/s"}
	}
	if err := fx.close(); err != nil {
		return nil, err
	}
	p.peakRSSMB = rss.finish()
	return p, nil
}

// endToEnd is the pass's end-to-end metrics.
func (p *pass) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":      {median(p.setupS), "s"},
		"study_s":      {median(p.studyS), "s"},
		"peak_rss_mb":  {p.peakRSSMB, "MB"},
		"read_p50_ms":  {percentile(p.nominal.lat, 0.50), "ms"},
		"fresh_p50_ms": {median(p.freshMs), "ms"},
	}
}

func untracedRun(wl workload, cfg runConfig, log io.Writer) (result, []string, error) {
	p, err := runPass(wl, cfg, setupRepeats, nil, log)
	if err != nil {
		return result{}, nil, err
	}
	return result{Correct: !p.wrong, Attempted: p.attempted, Failed: p.failed, Metrics: p.endToEnd()}, p.notes, nil
}

// tracedRun measures the workload untraced and then traced, reports the
// traced pass's per-layer metrics with the tracing overhead on every
// end-to-end metric, runs the study once more on one worker for the
// pool's speed-up, and writes the spans.
func tracedRun(wl workload, cfg runConfig, log io.Writer) (result, []string, error) {
	base, err := runPass(wl, cfg, 1, nil, log)
	if err != nil {
		return result{}, nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	traced, err := runPass(wl, cfg, 1, tr, log)
	if err != nil {
		return result{}, nil, fmt.Errorf("traced pass: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)
	id, end := tr.begin("study on 1 worker", 0)
	one, err := runStudy(wl, cfg.worldSeed, 1, dir, tr, id)
	end()
	if err != nil {
		return result{}, nil, fmt.Errorf("1-worker study: %w", err)
	}

	m := traced.layers
	m["core.speedup_nproc_vs_1"] = metric{one.wall.Seconds() / traced.studyWall.Seconds(), "ratio"}
	untracedM := base.endToEnd()
	for name, v := range traced.endToEnd() {
		m["trace_overhead."+name] = metric{v.Value / untracedM[name].Value, "ratio"}
	}
	notes := append(base.notes, traced.notes...)
	problems := disagreements([]string{base.digests[0], traced.digests[0], one.digest})
	notes = append(notes, problems...)
	path := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, cfg.seed))
	n, err := tr.write(path)
	if err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(log, "perfbench: wrote %d spans to %s\n", n, path)
	return result{
		Correct:   !base.wrong && !traced.wrong && len(problems) == 0,
		Attempted: base.attempted + traced.attempted + 1,
		Failed:    base.failed + traced.failed,
		Metrics:   m,
	}, notes, nil
}

// readLayers assembles a traced pass's per-layer metrics from the
// fixture, the nominal phase and the counters the program exposes: the
// obs.Wall stage timers on the study's Observer, the study's
// deterministic registry, and the serve.* counters on the server's
// Wall.
func readLayers(cfg runConfig, fx *fixture, nominal phase, win window, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	r := fx.run

	set("world.generate_s", r.world.Seconds(), "s")
	stages, _ := r.observer.Wall.Snapshot()["stages"].(map[string]any)
	stage := func(name string) float64 {
		s, _ := stages[name].(map[string]int64)
		return float64(s["total_ns"]) / 1e9
	}
	enc, par, merge, busy := stage("batch.encode"), stage("batch.static_isolated"), stage("batch.merge_live"), stage("worker.busy")
	set("core.encode_s", enc, "s")
	set("core.static_isolated_s", par, "s")
	set("core.merge_live_s", merge, "s")
	util := 0.0
	if enc+par > 0 {
		util = busy / (float64(cfg.workers) * (enc + par))
	}
	set("core.worker_util", util, "ratio")
	set("core.unstaged_s", r.wall.Seconds()-enc-par-merge-total(r.commits).Seconds(), "s")

	for _, name := range []string{"feed.samples_accepted", "sandbox.runs", "simnet.conns_dialed", "probe.attempts"} {
		set(name, float64(r.metrics.ReadCounter(name)), "count")
	}
	set("simnet.tcp_payload_bytes", float64(r.metrics.ReadCounter("simnet.tcp_payload_bytes")), "bytes")
	_, events := r.metrics.ReadHistogram("sandbox.events_per_run")
	set("sandbox.events", float64(events), "count")

	set("go.alloc_mb", float64(r.mem.alloc)/1e6, "MB")
	set("go.mallocs", float64(r.mem.mallocs), "count")
	set("go.gc_cycles", float64(r.mem.gcs), "count")
	set("go.gc_pause_ms", float64(r.mem.pauseNs)/1e6, "ms")
	set("go.mallocs_per_req", float64(win.mem1.since(win.mem0).mallocs)/float64(win.requests), "count")

	set("checkpoint.count", float64(r.ckptCount), "count")
	set("checkpoint.bytes", float64(r.ckptBytes), "bytes")
	commits := append(append([]time.Duration(nil), r.commits...), fx.commits...)
	set("lake.commit_p50_ms", median(msAll(commits)), "ms")
	set("lake.commit_s", total(commits).Seconds(), "s")
	lakeBytes, err := dirSize(fx.dir, "study-lake", "serve-lake")
	if err != nil {
		return nil, err
	}
	set("lake.bytes_per_checkpoint_byte", float64(lakeBytes)/float64(r.committedBytes+fx.committedBytes), "ratio")

	set("serve.reload_ms", median(msAll(fx.mounts)), "ms")
	open, build, encode, err := retime(fx.objects, tr)
	if err != nil {
		return nil, err
	}
	set("serve.open_snapshot_ms", median(open), "ms")
	set("serve.build_store_ms", median(build), "ms")
	set("colstore.encode_ms", median(encode), "ms")

	delta := func(name string) float64 { return float64(win.cache1[name] - win.cache0[name]) }
	hits, misses, coalesced := delta("serve.cache_hits"), delta("serve.cache_misses"), delta("serve.cache_coalesced")
	ratio := 0.0
	if hits+misses+coalesced > 0 {
		ratio = hits / (hits + misses + coalesced)
	}
	set("serve.cache_hit_ratio", ratio, "ratio")
	set("serve.cache_misses", misses, "count")
	set("serve.cache_coalesced", coalesced, "count")

	service, rows, size, err := fx.access.service()
	if err != nil {
		return nil, err
	}
	set("serve.service_p50_ms", percentile(service, 0.50), "ms")
	set("serve.service_p99_ms", percentile(service, 0.99), "ms")
	set("serve.rows_scanned_per_req", rows, "count")
	set("serve.bytes_per_req", size, "bytes")

	set("read_p99_ms", nominal.windowP99, "ms")
	for _, ep := range endpoints {
		set("read."+ep+".p99_ms", percentile(nominal.byEndpoint[ep], 0.99), "ms")
	}
	set("loadgen.late_p50_ms", percentile(nominal.late, 0.50), "ms")
	set("loadgen.late_p99_ms", percentile(nominal.late, 0.99), "ms")
	return m, nil
}

// retime re-times the reload path's stages — core.OpenSnapshotAt,
// serve.BuildStore and colstore.Encode — one by one on the served
// lake's objects after the load, when no reads compete for the CPU.
func retime(objects []string, tr *tracer) (open, build, encode []float64, err error) {
	id, end := tr.begin("re-time reload stages", 0)
	defer end()
	for i := range max(retimes, len(objects)) {
		obj := objects[i%len(objects)]
		_, stop := tr.begin("core.OpenSnapshotAt", id)
		start := time.Now()
		ss, reg, err := core.OpenSnapshotAt(obj)
		open = append(open, ms(time.Since(start)))
		stop()
		if err != nil {
			return nil, nil, nil, err
		}
		_, stop = tr.begin("serve.BuildStore", id)
		start = time.Now()
		serve.BuildStore(ss, reg)
		build = append(build, ms(time.Since(start)))
		stop()
		_, stop = tr.begin("colstore.Encode", id)
		start = time.Now()
		colstore.Encode(ss.Datasets.Samples)
		encode = append(encode, ms(time.Since(start)))
		stop()
	}
	return open, build, encode, nil
}
