package core

import (
	"context"
	"runtime"
	"sync"
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
// analyzeSample used to be one sequential function; it is now split
// into three stages with different sharing requirements:
//
//   - encode (parallel): build the sample's binary, pure per-sample.
//   - static + isolated (parallel): arch sniff, intel gate (a scan
//     is a pure function of the sample's hash and family),
//     YARA/AVClass labeling, and the isolated sandbox run. Every
//     worker owns a private shard — its own simclock.Clock and
//     simnet.Network — so nothing here touches the world clock or
//     net. Isolated-mode runs never needed the rest of the world:
//     InetSim answers everything and scanned addresses are dead air.
//   - merge + live (serial, feed order): fold counters and records
//     into the Study and run the day-0 liveness / DDoS-watch windows
//     on the shared sandbox, advancing the shared world clock exactly
//     as the sequential pipeline did.
//
// Determinism at any worker count follows from three properties:
// every parallel stage is a pure function of (world seed, sample),
// shards are rebuilt from seed state per sample so no cross-sample
// state survives, and all mutation of shared state happens on one
// goroutine in stable feed order.

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

// sampleOutcome carries one feed entry through the pipeline stages.
// Parallel stages write only their own outcome; the merge stage reads
// them in feed order.
type sampleOutcome struct {
	spec *world.SampleSpec
	// at is the shared-clock time the batch started; shard clocks
	// anchor here so reports are timestamped identically at any
	// worker count.
	at  time.Time
	raw []byte // nil: encode failed, skip silently

	filtered bool          // non-MIPS, counted in FilteredArch
	rejected bool          // under the MinEngines bar
	rec      *SampleRecord // accepted sample, pending merge
	isoOK    bool          // isolated run completed
	isoCands []C2Candidate // DetectC2 over the isolated report

	// obs is the sample's private recorder: the parallel stage and
	// the shard network write here, the merge goroutine folds it into
	// the study root in feed order (dispatch barriers carry the
	// ownership handoff). span is the sample's virtual-time trace.
	obs  *obs.Recorder
	span *obs.Span
}

// executor owns the worker pool. One executor serves a whole study;
// each daily batch dispatches into it twice (encode, then
// static+isolated) and merges in between on the caller's goroutine.
type executor struct {
	ctx     context.Context
	tasks   chan func(*shard)
	batch   sync.WaitGroup // outstanding tasks of the current dispatch
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
// live queue depth); it never feeds the deterministic plane.
func newExecutor(ctx context.Context, n int, seed int64, dns world.Resolver, start time.Time, faults *faultinject.Plan, wall *obs.Wall) *executor {
	ex := &executor{
		ctx:   ctx,
		tasks: make(chan func(*shard), n),
	}
	wall.SetGauge("executor.workers", func() int64 { return int64(n) })
	wall.SetGauge("executor.queue_depth", func() int64 { return int64(len(ex.tasks)) })
	ex.workers.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer ex.workers.Done()
			sh := &shard{clock: simclock.New(start), seed: seed, dns: dns, faults: faults}
			for fn := range ex.tasks {
				stop := wall.Timer("worker.busy")
				fn(sh)
				stop()
				ex.batch.Done()
			}
		}()
	}
	return ex
}

// close shuts the pool down and waits for every worker to exit, so a
// finished (or cancelled) study leaves no goroutines behind.
func (ex *executor) close() {
	close(ex.tasks)
	ex.workers.Wait()
}

// dispatch fans fn out over n indices and waits for all of them.
// On cancellation it stops feeding the pool, waits for in-flight
// tasks, and returns the context error; tasks already queued see the
// cancelled context and return without working.
func (ex *executor) dispatch(n int, fn func(sh *shard, i int)) error {
	ex.batch.Add(n)
	sent := 0
	for i := 0; i < n && ex.ctx.Err() == nil; i++ {
		i := i
		select {
		case ex.tasks <- func(sh *shard) {
			if ex.ctx.Err() == nil {
				fn(sh, i)
			}
		}:
			sent++
		case <-ex.ctx.Done():
		}
	}
	for j := sent; j < n; j++ {
		ex.batch.Done()
	}
	ex.batch.Wait()
	return ex.ctx.Err()
}

// runBatch pushes one day's feed through the staged pipeline.
func (st *Study) runBatch(ex *executor, sb *sandbox.Sandbox, specs []*world.SampleSpec) error {
	if len(specs) == 0 {
		return nil
	}
	at := st.W.Clock.Now()
	events := st.obs != nil && st.obs.Journal != nil
	outs := make([]*sampleOutcome, len(specs))
	for i, spec := range specs {
		rec := obs.NewRecorder()
		rec.EnableEvents(events)
		outs[i] = &sampleOutcome{spec: spec, at: at, obs: rec}
	}

	// Encode (parallel, pure per-sample: SampleSpec memoization is
	// single-writer here).
	stop := st.obs.Wall.Timer("batch.encode")
	err := ex.dispatch(len(outs), func(_ *shard, i int) {
		if raw, err := outs[i].spec.Binary(); err == nil {
			outs[i].raw = raw
		} else {
			outs[i].obs.Counter("feed.encode_failures").Inc()
		}
	})
	stop()
	if err != nil {
		return err
	}

	// Static analysis + isolated activation (parallel, per-worker
	// shards).
	stop = st.obs.Wall.Timer("batch.static_isolated")
	err = ex.dispatch(len(outs), func(sh *shard, i int) {
		st.analyzeStatic(sh, outs[i])
	})
	stop()
	if err != nil {
		return err
	}

	// Merge + live windows (serial, feed order, shared clock).
	stop = st.obs.Wall.Timer("batch.merge_live")
	for _, out := range outs {
		st.mergeOutcome(sb, out)
	}
	stop()
	// World-network events (live windows, probing) accumulate on the
	// world recorder; drain them here, on the single merge goroutine,
	// so the journal order stays deterministic.
	st.drainWorldEvents()
	return nil
}

// analyzeStatic is the parallel stage: collection filters, labeling,
// and the isolated sandbox run (§2.2–§2.4), all pure per-sample.
func (st *Study) analyzeStatic(sh *shard, out *sampleOutcome) {
	raw := out.raw
	if raw == nil {
		return
	}
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
	iso := sp.Child("stage.isolated", out.at)
	isoRep, err := sh.run(out.at, raw, sandbox.RunOptions{
		Mode:                sandbox.ModeIsolated,
		Duration:            st.Cfg.Windows.Sandbox,
		HandshakerThreshold: st.Cfg.Analysis.HandshakerThreshold,
		EventBudget:         st.Cfg.Determinism.EventBudget,
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
	reg.Histogram("sandbox.events_per_run", eventBudgetBuckets).Observe(int64(isoRep.EventsFired))
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

// eventBudgetBuckets sizes the events-per-activation histogram: a
// healthy run fires hundreds to thousands of events; the top bucket
// boundary matches the default watchdog budget.
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
