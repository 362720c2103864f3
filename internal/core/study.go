package core

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"malnet/internal/c2"
	"malnet/internal/faultinject"
	"malnet/internal/intel"
	"malnet/internal/obs"
	"malnet/internal/sandbox"
	"malnet/internal/simnet"
	"malnet/internal/world"
)

// StudyConfig parameterizes the year-long measurement run. It is
// grouped into sub-configs by concern; json.Marshal over a StudyConfig
// yields the run's canonical serialization — the non-reproducible
// surfaces (worker count, callbacks, checkpoint paths) are excluded
// via struct tags, so two configs marshal identically exactly when
// they would produce byte-identical study output. The checkpoint
// config fingerprint is built on that property (see checkpoint.go).
type StudyConfig struct {
	// Analysis holds the paper's measurement knobs.
	Analysis AnalysisConfig `json:"analysis"`
	// Windows holds the virtual-time sandbox windows.
	Windows WindowsConfig `json:"windows"`
	// Determinism holds the seeds and the execution knobs covered by
	// the byte-identical-output contract.
	Determinism DeterminismConfig `json:"determinism"`
	// Scenario selects the spec-driven scenario packs the study's
	// world was generated with. Part of the canonical serialization,
	// so a resumed run refuses a checkpoint written under a different
	// scenario. A zero value is filled from the world's config when
	// the study starts.
	Scenario world.ScenarioConfig `json:"scenario"`
	// Durability makes the run resumable: snapshots written at
	// day-batch boundaries. Where a snapshot lives never changes what
	// the study computes, so the group is excluded from the canonical
	// serialization. See checkpoint.go.
	Durability CheckpointConfig `json:"-"`
	// Observability carries the run's telemetry sinks and callbacks;
	// wall-clock only, never part of the canonical serialization.
	Observability ObservabilityConfig `json:"-"`
}

// AnalysisConfig groups the measurement-pipeline knobs (§2's
// collection, validation, and extraction parameters).
type AnalysisConfig struct {
	// HandshakerThreshold is the distinct-IP port threshold
	// (paper: 20).
	HandshakerThreshold int `json:"handshaker_threshold"`
	// MinEngines is the corroboration threshold (paper: 5).
	MinEngines int `json:"min_engines"`
	// DDoS tunes command extraction.
	DDoS DDoSExtractorConfig `json:"ddos"`
	// Probing enables the D-PC2 study; ProbeRounds 0 means the
	// paper's 84.
	Probing     bool `json:"probing"`
	ProbeRounds int  `json:"probe_rounds"`
	// DelayDays delays each sample's analysis past its publication
	// day (0 = same-day, the paper's headline practice; ablations
	// vary it).
	DelayDays int `json:"analysis_delay_days"`
}

// WindowsConfig groups the virtual-time analysis windows.
type WindowsConfig struct {
	// Sandbox is the isolated analysis window per sample.
	Sandbox time.Duration `json:"sandbox_window"`
	// Live is the restricted live window for samples with a live C2
	// (the paper's 2 hours).
	Live time.Duration `json:"live_window"`
}

// DeterminismConfig groups the seeds and execution knobs under the
// determinism contract: for a fixed group value, study output is
// byte-identical at every worker count.
type DeterminismConfig struct {
	// Seed drives per-run determinism.
	Seed int64 `json:"seed"`
	// Workers sizes the worker pool for the parallel static +
	// isolated-sandbox stage. 0 means GOMAXPROCS; values below 0
	// are clamped to 1. Study output is byte-identical at every
	// worker count (see TestParallelStudyEquivalence), which is why
	// Workers is excluded from the canonical serialization.
	Workers int `json:"-"`
	// Faults installs a deterministic fault-injection plan (packet
	// loss, resets, latency spikes, blackouts, slow drips) on the
	// world network and on every worker shard, arms probe retries,
	// and bounds activations with the sandbox watchdog. The fault
	// schedule is a pure function of FaultSeed, so a faulted study is
	// still byte-identical at any worker count (the chaos equivalence
	// suite asserts this).
	Faults bool `json:"faults"`
	// FaultSeed seeds the fault plan; 0 means Seed.
	FaultSeed int64 `json:"fault_seed"`
	// EventBudget arms the per-activation watchdog (events per
	// sandbox run before a hung emulation is aborted as TimedOut).
	// 0 with Faults on picks a generous default; 0 without Faults
	// leaves the watchdog off, the historical behavior.
	EventBudget int `json:"event_budget"`
}

// ObservabilityConfig groups the run's telemetry sinks. Everything
// here is wall-clock-plane: present or absent, it never changes the
// deterministic outputs (the journal's *contents* are deterministic,
// but whether one is attached is fingerprinted separately because it
// decides whether events are retained at all).
type ObservabilityConfig struct {
	// Obs receives the study's telemetry: deterministic metrics and
	// virtual-time trace on the Root recorder (journaled when a
	// Journal is set), wall-clock profiling on Wall. Nil gets a fresh
	// Observer, so instrumentation is always on; the snapshot is part
	// of the determinism contract (byte-identical at any worker
	// count), the Wall plane is not.
	Obs *obs.Observer `json:"-"`
	// Progress, when non-nil, is called from the merge goroutine
	// every 1000 merged feed entries (and once at study end) with
	// wall-clock throughput so long studies are not silent. The
	// callback must not mutate study state.
	Progress func(ProgressUpdate) `json:"-"`
}

// progressEvery is the merge-count period of Progress callbacks.
const progressEvery = 1000

// ProgressUpdate is one Progress callback's payload.
type ProgressUpdate struct {
	// Processed counts merged feed entries (including filtered and
	// rejected ones); Accepted counts D-Samples rows so far.
	Processed, Accepted int
	// Dispositions tallies accepted samples by day-0 disposition.
	Dispositions map[Disposition]int
	// Elapsed is wall-clock time since the study started; Rate is
	// Processed/Elapsed in entries per second.
	Elapsed time.Duration
	Rate    float64
}

// faultPlan derives the study's fault plan; nil when faults are off.
func (cfg *StudyConfig) faultPlan() *faultinject.Plan {
	if !cfg.Determinism.Faults {
		return nil
	}
	seed := cfg.Determinism.FaultSeed
	if seed == 0 {
		seed = cfg.Determinism.Seed
	}
	return faultinject.New(faultinject.DefaultConfig(seed))
}

// Defaults returns the paper's settings for seed.
func Defaults(seed int64) StudyConfig {
	return StudyConfig{
		Analysis: AnalysisConfig{
			HandshakerThreshold: 20,
			MinEngines:          5,
			DDoS:                DefaultDDoSExtractorConfig(),
			Probing:             true,
		},
		Windows: WindowsConfig{
			Sandbox: 15 * time.Minute,
			Live:    2 * time.Hour,
		},
		Determinism: DeterminismConfig{Seed: seed},
	}
}

// Validate checks the config for values no defaulting rule can
// repair, and names every offending field (dotted-path into the
// canonical serialization) in the error. A zero or defaulted config
// is always valid.
func (cfg *StudyConfig) Validate() error {
	var bad []string
	reject := func(field, why string) { bad = append(bad, field+" ("+why+")") }
	if cfg.Windows.Sandbox < 0 {
		reject("windows.sandbox_window", "negative")
	}
	if cfg.Windows.Live < 0 {
		reject("windows.live_window", "negative")
	}
	if cfg.Analysis.HandshakerThreshold < 0 {
		reject("analysis.handshaker_threshold", "negative")
	}
	if cfg.Analysis.MinEngines < 0 {
		reject("analysis.min_engines", "negative")
	}
	if cfg.Analysis.ProbeRounds < 0 {
		reject("analysis.probe_rounds", "negative")
	}
	if cfg.Analysis.DelayDays < 0 {
		reject("analysis.analysis_delay_days", "negative")
	}
	if cfg.Analysis.DDoS.RateThreshold < 0 {
		reject("analysis.ddos.rate_threshold", "negative")
	}
	if cfg.Determinism.EventBudget < 0 {
		reject("determinism.event_budget", "negative")
	}
	if cfg.Durability.Every < 0 {
		reject("durability.every", "negative")
	}
	if cfg.Durability.Resume && cfg.Durability.Dir == "" {
		reject("durability.resume", "needs durability.dir")
	}
	if err := cfg.Scenario.Validate(); err != nil {
		reject("scenario", err.Error())
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("invalid study config: %s", strings.Join(bad, ", "))
}

// Disposition classifies how a sample's day-0 C2 liveness resolved
// under the fault-aware pipeline.
type Disposition uint8

// Dispositions, in the order the pipeline can strengthen them.
const (
	// DispNone: the sample never reached the liveness stage (P2P,
	// failed isolated run, or not analyzed).
	DispNone Disposition = iota
	// DispDead: no C2 engaged during the day-0 window.
	DispDead
	// DispAlive: a C2 engaged on the first attempt.
	DispAlive
	// DispRetriedThenAlive: a C2 engaged, but only after the bot
	// re-dialed through injected faults.
	DispRetriedThenAlive
	// DispTimedOut: the activation watchdog aborted a hung window.
	DispTimedOut
)

// String names the disposition for dataset rows.
func (d Disposition) String() string {
	switch d {
	case DispDead:
		return "dead"
	case DispAlive:
		return "alive"
	case DispRetriedThenAlive:
		return "retried-then-alive"
	case DispTimedOut:
		return "timed-out"
	}
	return "none"
}

// SampleRecord is one D-Samples row.
type SampleRecord struct {
	SHA  string
	Date time.Time
	// FamilyYARA and FamilyAVClass are the two labelers' verdicts;
	// Family is the resolved label (YARA preferred).
	FamilyYARA, FamilyAVClass, Family string
	// Detections is the number of flagging engines at collection.
	Detections int
	// P2P marks samples excluded from D-C2s.
	P2P bool
	// Activated reports whether the sample passed its anti-sandbox
	// gate in the isolated run (§6f activation rate).
	Activated bool
	// C2s are the detected endpoints.
	C2s []C2Candidate
	// LiveDay0 reports whether any C2 engaged on analysis day.
	LiveDay0 bool
	// Exploits are the sample's classified handshaker catches.
	Exploits []ExploitFinding
	// DDoS are attack commands observed during the live window.
	DDoS []DDoSObservation
	// Disposition summarizes the day-0 liveness path (alive on the
	// first dial, alive only after retries, dead, or watchdog-aborted).
	Disposition Disposition
	// C2Retries counts failed C2 dial attempts the sample burned
	// before (or without) establishing a session in the day-0 window.
	C2Retries int
	// Faults totals the network faults injected across the sample's
	// sandbox windows (isolated and live); zero in clean studies.
	Faults simnet.FaultStats
}

// C2Record is one D-C2s row: a C2 address aggregated across every
// binary that referenced it.
type C2Record struct {
	Address string
	Kind    intel.AddrKind
	IP      netip.Addr
	Port    uint16
	// Samples are the SHAs of binaries using this C2, in
	// discovery order.
	Samples []string
	// FirstSeen/LastSeen bound the pipeline's observations (the
	// observed-lifespan endpoints).
	FirstSeen, LastSeen time.Time
	// EverLive reports engagement during any analysis window.
	EverLive bool
	// Signature is the protocol artifact that identified it, if
	// any.
	Signature string
	// Day0Malicious / Day0Vendors: the VT query on discovery day.
	Day0Malicious bool
	Day0Vendors   int
	// May7Malicious / May7Vendors: the May 7, 2022 re-query.
	May7Malicious bool
	May7Vendors   int
	// Verified reports the §2.3a validation: flagged by VT
	// (either query) or matched a known C2 protocol.
	Verified bool
}

// LifespanDays is the observed lifespan in days, floored at one.
func (r *C2Record) LifespanDays() float64 {
	d := r.LastSeen.Sub(r.FirstSeen).Hours() / 24
	if d < 1 {
		return 1
	}
	return d
}

// Study is the full measurement output: the five datasets.
type Study struct {
	Cfg StudyConfig
	W   *world.World

	// Samples is D-Samples (accepted binaries only).
	Samples []*SampleRecord
	// Rejected counts feed binaries failing the >=5-engine bar.
	Rejected int
	// FilteredArch counts feed downloads skipped for not being
	// MIPS 32B executables (§2.2's collection filter).
	FilteredArch int
	// C2s is D-C2s keyed by address.
	C2s map[string]*C2Record
	// Exploits is D-Exploits (one entry per sample-vulnerability
	// finding).
	Exploits []ExploitFinding
	// DDoS is D-DDOS.
	DDoS []DDoSObservation
	// Probe is D-PC2 (nil when probing is disabled).
	Probe *ProbeStudy
	// ProbeGafgyt is the second weaponized sweep; Probe holds the
	// Mirai one. MergedLiveC2s unions them.
	ProbeGafgyt *ProbeStudy

	// obs is the study's observer (never nil after RunStudyContext).
	obs *obs.Observer
	// processed counts merged feed entries for Progress pacing;
	// lastProgress is the processed count at the last Progress tick,
	// so the final tick fires exactly when something went unreported.
	processed    int
	lastProgress int
	// wallStart anchors Progress throughput arithmetic.
	wallStart time.Time
}

// Obs returns the study's observer (nil only for hand-built Study
// values that never went through RunStudy).
func (st *Study) Obs() *obs.Observer { return st.obs }

// Metrics returns the deterministic metrics registry, nil-safe to
// read from for hand-built studies.
func (st *Study) Metrics() *obs.Registry {
	if st.obs == nil {
		return nil
	}
	return st.obs.Root.Registry()
}

// MergedLiveC2s unions the two weaponized sweeps' live C2 sets.
func (st *Study) MergedLiveC2s() []*ProbeTarget {
	seen := map[string]*ProbeTarget{}
	for _, study := range []*ProbeStudy{st.Probe, st.ProbeGafgyt} {
		if study == nil {
			continue
		}
		for _, t := range study.LiveC2s {
			if _, ok := seen[t.Addr.String()]; !ok {
				seen[t.Addr.String()] = t
			}
		}
	}
	out := make([]*ProbeTarget, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.String() < out[j].Addr.String() })
	return out
}

// RunStudy executes the full pipeline against a generated world:
// daily collection, same-day sandbox analysis, threat-intel
// cross-validation, exploit capture, DDoS eavesdropping, and (when
// enabled) the two-week active-probing study.
func RunStudy(w *world.World, cfg StudyConfig) *Study {
	st, _ := RunStudyContext(context.Background(), w, cfg)
	return st
}

// RunStudyContext is RunStudy with cancellation: when ctx is
// cancelled the feeder stops pushing, queued pure stages are skipped,
// in-flight sandbox runs finish, the worker pool shuts down, and the
// partial study, holding only whole merged batches, returns together
// with ctx's error. A nil error means the study ran to completion.
func RunStudyContext(ctx context.Context, w *world.World, cfg StudyConfig) (*Study, error) {
	// The scenario section describes the world, so its source of
	// truth is the world's config: a zero study scenario adopts it
	// (putting it under the checkpoint fingerprint), a non-zero one
	// must agree with it — a study claiming a different scenario than
	// its world was generated with can only produce nonsense.
	cfg.Scenario.Defaults() // normalize before comparing: Generate defaulted the world's copy
	if cfg.Scenario.IsZero() {
		cfg.Scenario = w.Cfg.Scenario
	} else if !cfg.Scenario.Equal(w.Cfg.Scenario) {
		return &Study{Cfg: cfg, W: w, C2s: map[string]*C2Record{}},
			fmt.Errorf("invalid study config: scenario (does not match the world's scenario configuration)")
	}
	if err := cfg.Validate(); err != nil {
		return &Study{Cfg: cfg, W: w, C2s: map[string]*C2Record{}}, err
	}
	if cfg.Windows.Sandbox <= 0 {
		cfg.Windows.Sandbox = 15 * time.Minute
	}
	if cfg.Windows.Live <= 0 {
		cfg.Windows.Live = 2 * time.Hour
	}
	if cfg.Analysis.MinEngines <= 0 {
		cfg.Analysis.MinEngines = 5
	}
	if cfg.Observability.Obs == nil {
		cfg.Observability.Obs = obs.NewObserver()
	}
	plan := cfg.faultPlan()
	if plan != nil {
		if cfg.Determinism.EventBudget <= 0 {
			// Generous per-activation ceiling: orders of magnitude
			// above a healthy run, small enough that a retry storm
			// cannot wedge a worker.
			cfg.Determinism.EventBudget = 1 << 20
		}
		w.Net.InstallFaults(plan)
	}
	st := &Study{Cfg: cfg, W: w, C2s: map[string]*C2Record{}, obs: cfg.Observability.Obs, wallStart: obs.Now()}
	// World-network events (live windows, probing) are retained only
	// when a journal will consume them; the merge goroutine drains
	// them per batch.
	w.Net.Obs().EnableEvents(st.obs.Journal != nil)
	defer st.obs.Flush()
	clock := w.Clock

	sb := sandbox.New(w.Net, sandbox.Config{
		DNS:  w.Resolve,
		Seed: cfg.Determinism.Seed,
	})

	// Schedule the probing study; its rounds interleave with the
	// daily loop as the clock advances.
	if cfg.Analysis.Probing {
		rounds := cfg.Analysis.ProbeRounds
		if rounds <= 0 {
			rounds = 84
		}
		// Jump the clock into place happens naturally: ProbeStart
		// is mid-study and scheduling is absolute.
		mkCfg := func(family string, src string) ProbeConfig {
			pc := ProbeConfig{
				Subnets:  w.ProbeSubnets,
				Interval: 4 * time.Hour,
				Rounds:   rounds,
				Family:   family,
				SourceIP: netip.MustParseAddr(src),
			}
			if cfg.Determinism.Faults {
				// Under injected faults, probes get a bounded retry
				// budget; on a clean network retries would also fire
				// on dead space, so they stay off there to keep the
				// historical schedule.
				pc.Retries = 3
				pc.Seed = cfg.Determinism.Seed
			}
			// Probe callbacks fire on the merge goroutine while it
			// drives the shared clock, so metering straight onto the
			// root recorder is race-free and feed-order stable.
			pc.Obs = st.obs.Root
			return pc
		}
		clock.Schedule(w.ProbeStart, func() {
			st.Probe = ScheduleProbing(w.Net, mkCfg(c2.FamilyMirai, "10.98.0.2"))
		})
		clock.Schedule(w.ProbeStart.Add(time.Hour), func() {
			st.ProbeGafgyt = ScheduleProbing(w.Net, mkCfg(c2.FamilyGafgyt, "10.98.0.3"))
		})
	}

	resumedThrough := -1
	if cfg.Durability.Resume && cfg.Durability.Dir != "" {
		day, err := st.resumeFromCheckpoint()
		if err != nil {
			return st, err
		}
		resumedThrough = day
	}

	// Daily loop: the feeder runs each day batch's pure stage ahead
	// on the pool, and this goroutine merges the batches in feed order
	// on the world clock (see executor.go).
	batches := st.planBatches(resumedThrough)
	ex := newExecutor(ctx, resolveWorkers(cfg.Determinism.Workers), cfg.Determinism.Seed, w.Resolve, clock.Now(), plan, st.obs.Wall)
	defer ex.close()
	ex.feed(st, batches)
	saveEvery := cfg.Durability.Every
	if saveEvery <= 0 {
		saveEvery = 1
	}
	for i, b := range batches {
		if clock.Now().Before(b.anchor) {
			clock.RunUntil(b.anchor)
		}
		if err := st.runBatch(ex, sb, b); err != nil {
			// A cancelled run keeps its last completed-batch
			// snapshot; mid-batch state is never checkpointed.
			st.finalProgress()
			return st, err
		}
		if cfg.Durability.Dir != "" && (i+1)%saveEvery == 0 {
			if err := st.saveCheckpoint(dayIndex(b.day)); err != nil {
				return st, err
			}
		}
	}
	// Drain to study end (late probe rounds, timers).
	end := world.StudyEnd().AddDate(0, 0, cfg.Analysis.DelayDays+2)
	if cfg.Analysis.Probing {
		probeEnd := w.ProbeStart.Add(15 * 24 * time.Hour)
		if probeEnd.After(end) {
			end = probeEnd
		}
	}
	clock.RunUntil(end)

	st.finalizeC2Records()
	st.finalizeObs()
	return st, nil
}

// finalizeObs seals the deterministic snapshot: study-level gauges,
// the world network's registry folded in under a "world." prefix
// (keeping shared-net traffic distinct from shard traffic), the last
// world events drained, and a final Progress tick.
func (st *Study) finalizeObs() {
	reg := st.obs.Root.Registry()
	reg.Gauge("study.samples").Set(int64(len(st.Samples)))
	reg.Gauge("study.rejected").Set(int64(st.Rejected))
	reg.Gauge("study.filtered_arch").Set(int64(st.FilteredArch))
	reg.Gauge("study.c2s").Set(int64(len(st.C2s)))
	reg.Gauge("study.exploit_findings").Set(int64(len(st.Exploits)))
	reg.Gauge("study.ddos_observations").Set(int64(len(st.DDoS)))
	reg.MergePrefixed("world.", st.W.Net.Obs().Registry())
	st.drainWorldEvents()
	st.finalProgress()
}

// finalProgress fires the last Progress tick when merges happened
// since the previous one — on completion and on the cancellation
// path, so a killed run still reports its true processed count.
func (st *Study) finalProgress() {
	if st.Cfg.Observability.Progress != nil && st.processed != st.lastProgress {
		st.emitProgress()
	}
}

// drainWorldEvents journals events accumulated on the shared world
// network's recorder (fault injections during live windows and
// probing). Always called from the merge goroutine.
func (st *Study) drainWorldEvents() {
	j := st.obs.Journal
	if j == nil {
		return
	}
	for _, ev := range st.W.Net.Obs().DrainEvents() {
		j.EmitEvent(0, ev)
	}
}

// emitProgress reports merge-goroutine throughput to Cfg.Progress.
func (st *Study) emitProgress() {
	st.lastProgress = st.processed
	disp := make(map[Disposition]int, 5)
	for _, s := range st.Samples {
		disp[s.Disposition]++
	}
	elapsed := obs.Now().Sub(st.wallStart)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(st.processed) / elapsed.Seconds()
	}
	st.Cfg.Observability.Progress(ProgressUpdate{
		Processed:    st.processed,
		Accepted:     len(st.Samples),
		Dispositions: disp,
		Elapsed:      elapsed,
		Rate:         rate,
	})
}

// liveStage runs the day-0 liveness check and, when a C2 engages, the
// restricted live watch (§2.5–§2.6) — serialized in feed order on the
// shared world clock, which these windows advance.
func (st *Study) liveStage(sb *sandbox.Sandbox, rec *SampleRecord, raw []byte, isoCands []C2Candidate, sp *obs.Span) {
	reg := st.obs.Root.Registry()
	// Live check: does any C2 engage today? Restricted egress, per
	// the containment policy (§2.6).
	lc := sp.Child("stage.live_check", st.W.Clock.Now())
	liveRep, err := sb.Run(raw, sandbox.RunOptions{
		Mode:            sandbox.ModeLive,
		Duration:        10 * time.Minute,
		RestrictToC2:    true,
		DisableScanning: true,
		EventBudget:     st.Cfg.Determinism.EventBudget,
	})
	if err != nil {
		reg.Counter("sandbox.parse_failures").Inc()
		lc.SetAttr("error", "parse")
		lc.Finish(st.W.Clock.Now())
		return
	}
	reg.Counter("sandbox.runs").Inc()
	if liveRep.TimedOut {
		reg.Counter("sandbox.watchdog_aborts").Inc()
	}
	spanReport(lc, liveRep)
	lc.Finish(liveRep.Ended)
	rec.Faults = rec.Faults.Add(liveRep.Faults)
	rec.C2Retries += failedDials(liveRep)
	liveCands := DetectC2(liveRep, 1)
	// D-C2s takes the union of the isolated and live observations:
	// anti-sandbox samples reveal their C2s only on the live path.
	rec.C2s = mergeCandidates(isoCands, liveCands)
	st.recordC2s(rec)
	rec.LiveDay0 = LiveC2(liveCands)
	st.markLive(liveCands)
	// Disposition: the watchdog verdict sticks (set by the isolated
	// run or here); otherwise classify on liveness and whether the
	// bot needed extra dials to get there.
	switch {
	case rec.Disposition == DispTimedOut || liveRep.TimedOut:
		rec.Disposition = DispTimedOut
	case rec.LiveDay0 && rec.C2Retries > 0:
		rec.Disposition = DispRetriedThenAlive
	case rec.LiveDay0:
		rec.Disposition = DispAlive
	default:
		rec.Disposition = DispDead
	}
	// Commands can land during the liveness window too; extract
	// from it as well as from the long watch.
	ddos := ExtractDDoS(liveRep, rec.Family, rec.C2s, st.Cfg.Analysis.DDoS)
	if !rec.LiveDay0 {
		rec.DDoS = ddos
		st.DDoS = append(st.DDoS, ddos...)
		return
	}

	// Restricted live window: watch the C2 session for DDoS
	// commands (§2.5).
	lw := sp.Child("stage.live_watch", st.W.Clock.Now())
	watchRep, err := sb.Run(raw, sandbox.RunOptions{
		Mode:            sandbox.ModeLive,
		Duration:        st.Cfg.Windows.Live,
		RestrictToC2:    true,
		DisableScanning: true,
		EventBudget:     st.Cfg.Determinism.EventBudget,
	})
	if err != nil {
		reg.Counter("sandbox.parse_failures").Inc()
		lw.SetAttr("error", "parse")
		lw.Finish(st.W.Clock.Now())
		return
	}
	reg.Counter("sandbox.runs").Inc()
	if watchRep.TimedOut {
		reg.Counter("sandbox.watchdog_aborts").Inc()
	}
	spanReport(lw, watchRep)
	lw.Finish(watchRep.Ended)
	rec.Faults = rec.Faults.Add(watchRep.Faults)
	if watchRep.TimedOut {
		rec.Disposition = DispTimedOut
	}
	st.markLive(DetectC2(watchRep, 1))
	ddos = append(ddos, ExtractDDoS(watchRep, rec.Family, rec.C2s, st.Cfg.Analysis.DDoS)...)
	rec.DDoS = ddos
	st.DDoS = append(st.DDoS, ddos...)
}

// failedDials counts dial attempts in a report that never established
// — under restricted live mode every dial is C2-bound, so this is the
// number of re-dials the bot's own retry loop burned against injected
// faults before (or without) reaching its C2.
func failedDials(rep *sandbox.Report) int {
	n := 0
	for _, d := range rep.Dials {
		if !d.Established {
			n++
		}
	}
	return n
}

// mergeCandidates unions candidate lists by address, preferring the
// richer entry (live beats dead, signature beats none).
func mergeCandidates(a, b []C2Candidate) []C2Candidate {
	byAddr := map[string]int{}
	out := append([]C2Candidate(nil), a...)
	for i, c := range out {
		byAddr[c.Address] = i
	}
	for _, c := range b {
		if i, ok := byAddr[c.Address]; ok {
			out[i].Attempts += c.Attempts
			if c.Live {
				out[i].Live = true
			}
			if out[i].Signature == "" {
				out[i].Signature = c.Signature
			}
			continue
		}
		byAddr[c.Address] = len(out)
		out = append(out, c)
	}
	return out
}

// recordC2s folds a sample's detected C2s into D-C2s.
func (st *Study) recordC2s(rec *SampleRecord) {
	now := st.W.Clock.Now()
	for _, cand := range rec.C2s {
		r := st.C2s[cand.Address]
		if r == nil {
			r = &C2Record{
				Address:   cand.Address,
				Kind:      cand.Kind,
				IP:        cand.IP,
				Port:      cand.Port,
				FirstSeen: now,
			}
			st.C2s[cand.Address] = r
			// Two-query TI validation (§2.3a): once now, once on
			// May 7. The May-7 verdict is deterministic, so it can
			// be asked for up front.
			host := intelHost(cand)
			day0 := st.W.Intel.QueryAddress(host, now)
			r.Day0Malicious, r.Day0Vendors = day0.Malicious, len(day0.Vendors)
			may7 := st.W.Intel.QueryAddress(host, world.May7)
			r.May7Malicious, r.May7Vendors = may7.Malicious, len(may7.Vendors)
		}
		r.Samples = append(r.Samples, rec.SHA)
		r.LastSeen = now
		if cand.Live {
			r.EverLive = true
		}
		if cand.Signature != "" && r.Signature == "" {
			r.Signature = cand.Signature
		}
	}
}

// markLive upgrades records when a later window sees engagement.
func (st *Study) markLive(cands []C2Candidate) {
	for _, cand := range cands {
		if r := st.C2s[cand.Address]; r != nil && cand.Live {
			r.EverLive = true
		}
	}
}

// intelHost maps a candidate to its reputation key (VT rates hosts,
// not host:port pairs).
func intelHost(cand C2Candidate) string {
	if cand.Kind == intel.KindDNS {
		// Strip the port from "name:port".
		addr := cand.Address
		for i := len(addr) - 1; i >= 0; i-- {
			if addr[i] == ':' {
				return addr[:i]
			}
		}
		return addr
	}
	return cand.IP.String()
}

// finalizeC2Records applies the validation rule: a C2 is verified if
// either VT query flags it or its traffic matched a known protocol
// profile (the stand-in for the paper's manual verification).
func (st *Study) finalizeC2Records() {
	for _, r := range st.C2s {
		r.Verified = r.Day0Malicious || r.May7Malicious || r.Signature != ""
	}
}
