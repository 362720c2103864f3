package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"malnet/internal/avclass"
	"malnet/internal/binfmt"
	"malnet/internal/c2"
	"malnet/internal/faultinject"
	"malnet/internal/obs"
	"malnet/internal/sandbox"
	"malnet/internal/simclock"
	"malnet/internal/world"
	"malnet/internal/yara"
)

// The parallel study executor.
//
// A day batch splits in two by what its work may touch:
//
//   - the pure stage (parallel, per sample): encode the binary, then
//     arch sniff, intel gate (a scan is a pure function of the
//     sample's hash and family), YARA/AVClass labeling, and the
//     isolated sandbox run. Every worker owns a private shard — its
//     own simclock.Clock and simnet.Network — so nothing here touches
//     the world clock or net. Isolated-mode runs never needed the rest
//     of the world: InetSim answers everything and scanned addresses
//     are dead air. The stage is a function of (world seed, sample,
//     batch anchor) and nothing else.
//   - merge + live (serial, feed order): fold counters and records
//     into the Study and run the day-0 liveness / DDoS-watch windows
//     on the shared sandbox, advancing the shared world clock exactly
//     as the sequential pipeline did.
//
// Since the pure stage reads no world state, it need not wait for its
// day. A feeder goroutine pushes every batch's pure stage into the
// pool ahead of the merge goroutine, anchored at the batch's analysis
// day, and keeps at most lookaheadPerWorker samples per worker pushed
// and not yet merged. The anchor is a guess: a batch really starts at
// the world clock's time when the merge goroutine reaches it, which is
// past midnight when the previous day's live windows ran late. The
// merge goroutine then drops the guessed outcomes and runs the batch's
// pure stage again at the real anchor.
//
// Determinism at any worker count follows from three properties:
// every merged outcome is a pure function of (world seed, sample,
// real anchor), shards are rebuilt from seed state per sample so no
// cross-sample state survives, and all mutation of shared state
// happens on one goroutine in stable feed order.

// lookaheadPerWorker bounds the lookahead: the feeder keeps at most
// this many samples per worker pushed and not yet merged. A batch
// larger than the whole bound takes all of it. On the -short study,
// 2 ran as fast as 4 or 8 within noise, with a smaller peak RSS.
const lookaheadPerWorker = 2

// shard is one worker's private sandbox slot: a clock the worker owns
// plus the seed state to rebuild a fresh network and sandbox around
// it for every sample.
type shard struct {
	clock  *simclock.Clock
	seed   int64
	dns    world.Resolver
	faults *faultinject.Plan
}

// run executes one isolated activation at virtual time `at` on a
// freshly built sandbox, so no scheduled event, latency cache entry,
// or ephemeral-port cursor can leak between samples. The study's
// fault plan (if any) is re-installed on every fresh network; since
// the plan is a pure function and per-connection sequence counters
// restart with the network, the same sample draws the same fault
// schedule on every worker.
// The shard network meters onto rec — the sample's private recorder,
// merged into the study root in feed order.
func (sh *shard) run(at time.Time, raw []byte, opts sandbox.RunOptions, rec *obs.Recorder) (*sandbox.Report, error) {
	sh.clock.Reset(at)
	sb := sandbox.NewShard(sh.clock, sh.seed, sh.dns, rec)
	if sh.faults != nil {
		sb.Network().InstallFaults(sh.faults)
	}
	return sb.Run(raw, opts)
}

// batch is one non-empty day of feed.
type batch struct {
	day time.Time // feed day; its index names the checkpoint
	// anchor is the analysis day's midnight, the feeder's guess at
	// the world clock's time when the batch starts.
	anchor time.Time
	outs   []*sampleOutcome
}

// sampleOutcome carries one feed entry from its pure stage to the
// merge. The goroutine running the pure stage owns it until done
// closes; the merge goroutine reads it after.
type sampleOutcome struct {
	spec *world.SampleSpec
	// at anchors the shard clock, so reports are timestamped
	// identically at any worker count. A merged outcome always ran at
	// its batch's start on the world clock.
	at time.Time
	// done closes once the pure stage has run, or has been skipped
	// because the study stopped.
	done chan struct{}
	raw  []byte // nil: encode failed, skip silently

	filtered bool          // non-MIPS, counted in FilteredArch
	rejected bool          // under the MinEngines bar
	rec      *SampleRecord // accepted sample, pending merge
	isoOK    bool          // isolated run completed
	isoCands []C2Candidate // DetectC2 over the isolated report

	// obs is the sample's private recorder: the pure stage and the
	// shard network write here, the merge goroutine folds it into the
	// study root in feed order (done carries the ownership handoff).
	// span is the sample's virtual-time trace.
	obs  *obs.Recorder
	span *obs.Span
}

// newOutcome readies spec's pure stage at anchor at. A re-run replaces
// the outcome whole, so nothing of a guessed run survives it.
func newOutcome(spec *world.SampleSpec, at time.Time) *sampleOutcome {
	return &sampleOutcome{spec: spec, at: at, done: make(chan struct{})}
}

// planBatches lists the non-empty day batches after day index
// resumedThrough, in feed order, with their outcomes anchored at the
// analysis day.
func (st *Study) planBatches(resumedThrough int) []*batch {
	var out []*batch
	for day := world.StudyStart(); day.Before(world.StudyEnd()); day = day.AddDate(0, 0, 1) {
		if dayIndex(day) <= resumedThrough {
			continue
		}
		specs := st.W.FeedOn(day)
		if len(specs) == 0 {
			continue
		}
		b := &batch{day: day, anchor: day.AddDate(0, 0, st.Cfg.Analysis.DelayDays)}
		b.outs = make([]*sampleOutcome, len(specs))
		for i, spec := range specs {
			b.outs[i] = newOutcome(spec, b.anchor)
		}
		out = append(out, b)
	}
	return out
}

// executor owns the worker pool and the feeder. One executor serves a
// whole study. Its context is the study's, cancelled on close, so a
// stopped study stops the feeder and every queued task.
type executor struct {
	ctx    context.Context
	cancel context.CancelFunc
	tasks  chan func(*shard)
	// slots holds one token per sample the feeder has pushed and the
	// merge goroutine has not yet merged.
	slots   chan struct{}
	reruns  atomic.Int64   // batches whose pure stage ran twice
	feeder  sync.WaitGroup // the feeder goroutine
	workers sync.WaitGroup // live worker goroutines
}

// resolveWorkers maps the StudyConfig.Workers knob to a pool size:
// 0 means GOMAXPROCS, anything below 1 is clamped to 1.
func resolveWorkers(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// newExecutor starts n workers, each owning one shard. The shard
// clock's anchor is reset per sample, so the start value is
// irrelevant; the world's start keeps timestamps plausible if a bug
// ever leaks one.
// wall receives the pool's wall-clock profile (per-worker busy time,
// live queue depth, anchor re-runs); it never feeds the deterministic
// plane.
func newExecutor(ctx context.Context, n int, seed int64, dns world.Resolver, start time.Time, faults *faultinject.Plan, wall *obs.Wall) *executor {
	ctx, cancel := context.WithCancel(ctx)
	ex := &executor{
		ctx:    ctx,
		cancel: cancel,
		tasks:  make(chan func(*shard), n),
		slots:  make(chan struct{}, n*lookaheadPerWorker),
	}
	wall.SetGauge("executor.workers", func() int64 { return int64(n) })
	wall.SetGauge("executor.queue_depth", func() int64 { return int64(len(ex.tasks)) })
	wall.SetCounter("batch.anchor_reruns", ex.reruns.Load)
	ex.workers.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer ex.workers.Done()
			sh := &shard{clock: simclock.New(start), seed: seed, dns: dns, faults: faults}
			for fn := range ex.tasks {
				stop := wall.Timer("worker.busy")
				fn(sh)
				stop()
			}
		}()
	}
	return ex
}

// close stops the feeder and shuts the pool down, waiting for both,
// so a finished, failed or cancelled study leaves no goroutines
// behind. Tasks still queued see the cancelled context and skip their
// work.
func (ex *executor) close() {
	ex.cancel()
	ex.feeder.Wait()
	close(ex.tasks)
	ex.workers.Wait()
}

// feed starts the feeder: it pushes each batch's pure stage at the
// batch's guessed anchor, in feed order, taking one slot per sample
// first.
func (ex *executor) feed(st *Study, batches []*batch) {
	ex.feeder.Add(1)
	go func() {
		defer ex.feeder.Done()
		for _, b := range batches {
			for range ex.slotsFor(b) {
				select {
				case ex.slots <- struct{}{}:
				case <-ex.ctx.Done():
					return
				}
			}
			if ex.push(st, b.outs) != nil {
				return
			}
		}
	}()
}

// slotsFor is the number of slots batch b holds from its push until
// its merge: one per sample, capped at the bound so that a batch
// larger than the bound still runs.
func (ex *executor) slotsFor(b *batch) int { return min(len(b.outs), cap(ex.slots)) }

// push queues each outcome's pure stage on the pool, in order. It
// gives up when the study stops.
func (ex *executor) push(st *Study, outs []*sampleOutcome) error {
	for _, out := range outs {
		task := func(sh *shard) {
			if ex.ctx.Err() == nil {
				st.pureStage(sh, out)
			}
			close(out.done)
		}
		select {
		case ex.tasks <- task:
		case <-ex.ctx.Done():
			return ex.ctx.Err()
		}
	}
	return nil
}

// wait blocks until every outcome's pure stage has finished. A
// stopped study's outcomes may have been skipped, so it reports the
// stop rather than letting them merge.
func (ex *executor) wait(outs []*sampleOutcome) error {
	for _, out := range outs {
		select {
		case <-out.done:
		case <-ex.ctx.Done():
			return ex.ctx.Err()
		}
	}
	return ex.ctx.Err()
}

// runBatch merges one day batch, which the feeder has pushed: it
// waits for the batch's pure stage, re-runs it at the real anchor if
// the guessed one was wrong, then merges in feed order and runs the
// live windows.
func (st *Study) runBatch(ex *executor, sb *sandbox.Sandbox, b *batch) error {
	stop := st.obs.Wall.Timer("batch.static_isolated")
	// Even a guess that missed must finish before the re-run: both
	// would memoize the same specs' binaries.
	err := ex.wait(b.outs)
	if at := st.W.Clock.Now(); err == nil && !at.Equal(b.anchor) {
		ex.reruns.Add(1)
		for i, out := range b.outs {
			b.outs[i] = newOutcome(out.spec, at)
		}
		if err = ex.push(st, b.outs); err == nil {
			err = ex.wait(b.outs)
		}
	}
	stop()
	if err != nil {
		return err
	}

	// Merge + live windows (serial, feed order, shared clock).
	stop = st.obs.Wall.Timer("batch.merge_live")
	for _, out := range b.outs {
		st.mergeOutcome(sb, out)
	}
	stop()
	// World-network events (live windows, probing) accumulate on the
	// world recorder; drain them here, on the single merge goroutine,
	// so the journal order stays deterministic.
	st.drainWorldEvents()
	for range ex.slotsFor(b) {
		<-ex.slots
	}
	b.outs = nil // the merged outcomes are garbage now
	return nil
}

// pureStage runs one sample's pure stage on the worker's shard.
func (st *Study) pureStage(sh *shard, out *sampleOutcome) {
	out.obs = obs.NewRecorder()
	out.obs.EnableEvents(st.obs.Journal != nil)
	stop := st.obs.Wall.Timer("batch.encode")
	raw, err := out.spec.Binary()
	stop()
	if err != nil {
		out.obs.Counter("feed.encode_failures").Inc()
		return
	}
	out.raw = raw
	st.analyzeStatic(sh, out)
}

// analyzeStatic is the pure stage after encode: collection filters,
// labeling, and the isolated sandbox run (§2.2–§2.4).
func (st *Study) analyzeStatic(sh *shard, out *sampleOutcome) {
	raw := out.raw
	reg := out.obs.Registry()
	sp := obs.NewSpan("sample", out.at)
	sp.SetAttr("date", out.spec.Date.Format("2006-01-02"))
	out.span = sp
	// Collection filter: the study analyzes MIPS 32B only (§2.2).
	if arch, err := binfmt.SniffArch(raw); err != nil || arch != binfmt.ArchMIPS32BE {
		out.filtered = true
		reg.Counter("feed.decoys_skipped").Inc()
		sp.SetAttr("verdict", "filtered_arch")
		sp.Finish(out.at)
		return
	}
	// SHA256 re-derives from the encoded binary; Binary() succeeding
	// above makes failure unreachable today, but slicing sha[:12] on
	// an empty string would panic the whole worker pool, so the error
	// path is real: count it and skip the sample like a filtered one.
	sha, err := out.spec.SHA256()
	if err != nil {
		reg.Counter("feed.sha_failures").Inc()
		sp.SetAttr("verdict", "sha_failure")
		sp.Finish(out.at)
		return
	}
	sp.SetAttr("sha", sha[:12])

	// Collection gate: >= MinEngines corroborating detections.
	dets := st.W.Intel.ScanSample(sha, out.spec.Family)
	if avclass.MaliciousCount(dets) < st.Cfg.Analysis.MinEngines {
		out.rejected = true
		reg.Counter("feed.rejected_intel").Inc()
		sp.SetAttr("verdict", "rejected_intel")
		sp.Finish(out.at)
		return
	}
	reg.Counter("feed.samples_accepted").Inc()
	rec := &SampleRecord{SHA: sha, Date: out.spec.Date, Detections: len(dets)}
	rules := yara.IoTFamilies()
	rec.FamilyYARA = rules.FamilyOf(raw)
	rec.FamilyAVClass, _ = avclass.Label(dets)
	rec.Family = rec.FamilyYARA
	if rec.Family == "" {
		rec.Family = rec.FamilyAVClass
	}
	rec.P2P = rec.Family == c2.FamilyMozi || rec.Family == c2.FamilyHajime
	out.rec = rec
	sp.SetAttr("family", rec.Family)

	// Isolated run: C2 detection and exploit capture. The stage span
	// is anchored to the shard clock, which mirrors the world clock's
	// batch anchor, so its bounds are worker-count-independent.
	// Nothing reads this run's packet capture: C2 detection and
	// exploit classification read its dials and trap catches.
	iso := sp.Child("stage.isolated", out.at)
	isoRep, err := sh.run(out.at, raw, sandbox.RunOptions{
		Mode:                sandbox.ModeIsolated,
		Duration:            st.Cfg.Windows.Sandbox,
		HandshakerThreshold: st.Cfg.Analysis.HandshakerThreshold,
		EventBudget:         st.Cfg.Determinism.EventBudget,
		NoCapture:           true,
	}, out.obs)
	if err != nil {
		reg.Counter("sandbox.parse_failures").Inc()
		iso.SetAttr("error", "parse")
		iso.Finish(out.at)
		sp.Finish(out.at)
		return
	}
	out.isoOK = true
	reg.Counter("sandbox.runs").Inc()
	if isoRep.Activated {
		reg.Counter("sandbox.activations").Inc()
	}
	reg.Histogram(eventsPerRun, eventBudgetBuckets).Observe(int64(isoRep.EventsFired))
	if isoRep.TimedOut {
		reg.Counter("sandbox.watchdog_aborts").Inc()
	}
	spanReport(iso, isoRep)
	iso.Finish(isoRep.Ended)
	rec.Activated = isoRep.Activated
	rec.Faults = rec.Faults.Add(isoRep.Faults)
	if isoRep.TimedOut {
		rec.Disposition = DispTimedOut
	}
	rec.Exploits = ClassifyExploits(isoRep)
	out.isoCands = DetectC2(isoRep, 2)
}

// eventsPerRun is the study's one histogram, of events fired per
// sandbox activation. eventBudgetBuckets sizes it: a healthy run fires
// hundreds to thousands of events; the top bucket boundary matches
// the default watchdog budget.
const eventsPerRun = "sandbox.events_per_run"

var eventBudgetBuckets = []int64{100, 1_000, 10_000, 100_000, 1 << 20}

// spanReport annotates a stage span with an activation report and
// attaches probe sub-spans for the established dials. Scan traffic
// makes Dials large, so only established dials are expanded and the
// omission is recorded explicitly.
func spanReport(stage *obs.Span, rep *sandbox.Report) {
	if stage == nil {
		return
	}
	stage.SetAttr("events", rep.EventsFired)
	stage.SetAttr("activated", rep.Activated)
	if rep.TimedOut {
		stage.SetAttr("timed_out", true)
	}
	stage.SetAttr("dials", len(rep.Dials))
	const maxDialSpans = 32
	emitted, omitted := 0, 0
	for _, d := range rep.Dials {
		if !d.Established {
			continue
		}
		if emitted >= maxDialSpans {
			omitted++
			continue
		}
		emitted++
		ps := stage.Child("probe.dial", d.Time)
		ps.SetAttr("dst", d.Requested.String())
		if d.Actual != d.Requested {
			ps.SetAttr("routed", d.Actual.String())
		}
		if d.Name != "" {
			ps.SetAttr("name", d.Name)
		}
		ps.SetAttr("bytes_in", d.BytesIn)
		ps.SetAttr("bytes_out", d.BytesOut)
		ps.Finish(d.Time)
	}
	if omitted > 0 {
		stage.SetAttr("dials_omitted", omitted)
	}
}

// mergeOutcome folds one outcome into the Study and, for accepted
// non-P2P samples, runs the live windows on the shared sandbox.
func (st *Study) mergeOutcome(sb *sandbox.Sandbox, out *sampleOutcome) {
	st.obs.Root.Merge(out.obs)
	switch {
	case out.filtered:
		st.FilteredArch++
	case out.rejected:
		st.Rejected++
	case out.rec != nil:
		rec := out.rec
		st.Samples = append(st.Samples, rec)
		st.Exploits = append(st.Exploits, rec.Exploits...)
		if out.isoOK && !rec.P2P {
			// P2P samples are filtered out of D-C2s (§2.3a); others
			// run the live windows on the shared clock.
			st.liveStage(sb, rec, out.raw, out.isoCands, out.span)
		}
		st.obs.Root.Counter("study.disposition." + rec.Disposition.String()).Inc()
	}
	st.finishSample(out)
}

// finishSample closes the sample's span at the (shared-clock) merge
// time, emits its trace to the journal, and ticks progress. Runs on
// the merge goroutine in feed order — the journal's determinism
// hinges on exactly that.
func (st *Study) finishSample(out *sampleOutcome) {
	if out.span != nil && out.span.End.IsZero() {
		out.span.Finish(st.W.Clock.Now())
	}
	if j := st.obs.Journal; j != nil {
		id := j.EmitSpan(0, out.span)
		for _, ev := range out.obs.DrainEvents() {
			j.EmitEvent(id, ev)
		}
	}
	st.processed++
	if st.Cfg.Observability.Progress != nil && st.processed%progressEvery == 0 {
		st.emitProgress()
	}
}
