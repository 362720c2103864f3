// Package cli centralizes the flag wiring shared by the malnet
// command family (cmd/malnet, cmd/experiments, cmd/malnetd): the
// study-shaping knobs (seed, feed size, workers, fault injection),
// checkpoint durability, and the observability sinks (trace journal,
// metrics snapshot, live debug server). Each command registers one
// flag group per concern instead of re-declaring ~100 lines of
// identical flag definitions, and the flag-to-config translation
// lives here once, so a new knob lands in every command at the same
// time.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"malnet/internal/core"
	"malnet/internal/lake"
	"malnet/internal/loadgen"
	"malnet/internal/obs"
	"malnet/internal/world"
)

// StudyFlags is the common flag set of every command that runs a
// study. Register it on a FlagSet with NewStudyFlags, then call
// Configs after parsing.
type StudyFlags struct {
	Seed      int64
	Samples   int
	Workers   int
	Short     bool
	Faults    bool
	FaultSeed int64
	Verbose   bool
	Scenarios string

	Checkpoint CheckpointFlags
	Obs        ObsFlags
}

// NewStudyFlags registers the full study flag group on fs.
func NewStudyFlags(fs *flag.FlagSet) *StudyFlags {
	f := &StudyFlags{}
	fs.Int64Var(&f.Seed, "seed", 42, "world and pipeline seed")
	fs.IntVar(&f.Samples, "samples", 0, "feed size (0 = paper's 1447)")
	fs.IntVar(&f.Workers, "workers", 0, "sandbox worker pool size (0 = all cores); output is identical at any value")
	fs.BoolVar(&f.Short, "short", false, "scaled-down study (150 samples, 12 probe rounds)")
	fs.BoolVar(&f.Faults, "faults", false, "inject deterministic network faults (loss, resets, spikes, blackouts, slow drips)")
	fs.Int64Var(&f.FaultSeed, "fault-seed", 0, "fault-plan seed (0 = -seed); same seed reproduces the same fault schedule at any worker count")
	fs.BoolVar(&f.Verbose, "v", false, "print per-1000-sample throughput to stderr while the study runs")
	fs.StringVar(&f.Scenarios, "scenarios", "", "comma-separated scenario-pack families to add to the world (e.g. wisp,sora)")
	f.Checkpoint.Register(fs)
	f.Obs.Register(fs)
	return f
}

// Configs translates the parsed flags into a (world, study) config
// pair, validated: a bad combination (e.g. -resume without
// -checkpoint-dir) comes back as an error naming the fields.
func (f *StudyFlags) Configs() (world.Config, core.StudyConfig, error) {
	wcfg := world.DefaultConfig(f.Seed)
	scfg := core.Defaults(f.Seed)
	scfg.Determinism.Workers = f.Workers
	scfg.Determinism.Faults = f.Faults
	scfg.Determinism.FaultSeed = f.FaultSeed
	scfg.Durability = core.CheckpointConfig{
		Dir:    f.Checkpoint.Dir,
		Every:  f.Checkpoint.Every,
		Resume: f.Checkpoint.Resume,
	}
	if f.Checkpoint.LakeDir != "" {
		if f.Checkpoint.Dir == "" {
			return wcfg, scfg, errors.New("-lake-dir requires -checkpoint-dir")
		}
		run := f.Checkpoint.LakeRun
		if run == "" {
			run = fmt.Sprintf("seed-%d", f.Seed)
		}
		branch, seed := f.Checkpoint.LakeBranch, f.Seed
		// The lake is opened on the first checkpoint, not here:
		// Configs must stay side-effect free so validation errors
		// don't leave half-created directories behind. The callback
		// runs on the merge goroutine, strictly sequentially.
		var lk *lake.Lake
		scfg.Durability.OnCheckpoint = func(day int, path string) error {
			if lk == nil {
				var err error
				if lk, err = lake.Open(f.Checkpoint.LakeDir); err != nil {
					return err
				}
			}
			_, err := lk.CommitFile(branch, run, seed, day, path)
			return err
		}
	}
	if f.Short {
		wcfg.TotalSamples = 150
		scfg.Analysis.ProbeRounds = 12
	}
	if f.Samples > 0 {
		wcfg.TotalSamples = f.Samples
	}
	if f.Scenarios != "" {
		for _, fam := range strings.Split(f.Scenarios, ",") {
			if fam = strings.TrimSpace(fam); fam != "" {
				wcfg.Scenario.Families = append(wcfg.Scenario.Families, fam)
			}
		}
		wcfg.Scenario.Defaults()
		// Mirror into the study config so the flag is covered by the
		// checkpoint fingerprint even before the study adopts the
		// world's copy.
		scfg.Scenario = wcfg.Scenario
	}
	return wcfg, scfg, scfg.Validate()
}

// ProgressPrinter returns the -v throughput callback, or nil when -v
// is off (StudyConfig treats a nil Progress as "stay silent").
func (f *StudyFlags) ProgressPrinter() func(core.ProgressUpdate) {
	if !f.Verbose {
		return nil
	}
	return func(p core.ProgressUpdate) {
		fmt.Fprintf(os.Stderr,
			"processed %d feed entries (%d accepted) in %v — %.0f samples/sec; alive=%d retried=%d dead=%d timed-out=%d\n",
			p.Processed, p.Accepted, p.Elapsed.Round(time.Millisecond), p.Rate,
			p.Dispositions[core.DispAlive], p.Dispositions[core.DispRetriedThenAlive],
			p.Dispositions[core.DispDead], p.Dispositions[core.DispTimedOut])
	}
}

// CheckpointFlags mirrors core.CheckpointConfig, flag-registered,
// plus the run-lake publication knobs.
type CheckpointFlags struct {
	Dir    string
	Every  int
	Resume bool

	// LakeDir, when set, commits every written checkpoint into the
	// run lake at that directory (creating it on first use); LakeRun
	// and LakeBranch name the run and the branch the commits land on.
	LakeDir    string
	LakeRun    string
	LakeBranch string
}

// Register declares the checkpoint flag group on fs.
func (c *CheckpointFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "checkpoint-dir", "", "write resumable study snapshots to DIR at day-batch boundaries")
	fs.IntVar(&c.Every, "checkpoint-every", 1, "snapshot after every N-th non-empty day batch")
	fs.BoolVar(&c.Resume, "resume", false, "resume from the newest snapshot in -checkpoint-dir (config must match)")
	fs.StringVar(&c.LakeDir, "lake-dir", "", "commit each checkpoint into the run lake at DIR (requires -checkpoint-dir)")
	fs.StringVar(&c.LakeRun, "lake-run", "", "run name recorded on lake commits (default seed-<seed>)")
	fs.StringVar(&c.LakeBranch, "lake-branch", "main", "lake branch the run's commits land on")
}

// InterruptHint tells the user how to continue a checkpointed run
// that err cancelled; a no-op otherwise.
func (c *CheckpointFlags) InterruptHint(name string, err error) {
	if c.Dir != "" && errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: re-run with -resume to continue from the last checkpoint\n", name)
	}
}

// LoadFlags is cmd/malnetbench's flag group: the load shape (target,
// concurrency, open-loop rate, duration), the schedule seed, and the
// output plumbing. It lives here with the other flag groups so the
// bench CLI stays a translation layer like the study CLIs.
type LoadFlags struct {
	Target      string
	Concurrency int
	Rate        float64
	Duration    time.Duration
	Seed        int64
	Timeout     time.Duration
	Debug       string
	Out         string
	ScheduleN   int
	RequireOK   bool
}

// NewLoadFlags registers the load-generator flag group on fs.
func NewLoadFlags(fs *flag.FlagSet) *LoadFlags {
	f := &LoadFlags{}
	fs.StringVar(&f.Target, "target", "", "base URL of the malnetd to load (e.g. http://127.0.0.1:8377)")
	fs.IntVar(&f.Concurrency, "concurrency", 8, "sender pool size")
	fs.Float64Var(&f.Rate, "rate", 500, "open-loop arrival rate in requests/sec (0 = closed loop, as fast as the daemon answers)")
	fs.DurationVar(&f.Duration, "duration", 10*time.Second, "how long to drive load (0 = schedule-only: print the deterministic query schedule and exit)")
	fs.Int64Var(&f.Seed, "seed", 42, "query-schedule seed; same seed replays the same query sequence")
	fs.DurationVar(&f.Timeout, "timeout", 10*time.Second, "per-request client timeout")
	fs.StringVar(&f.Debug, "debug", "", "the daemon's -debug-addr; when set, its /metrics is scraped before and after the run for server-side RED deltas and allocs/op")
	fs.StringVar(&f.Out, "out", "", "write the JSON summary to FILE (default stdout)")
	fs.IntVar(&f.ScheduleN, "schedule", 64, "schedule entries to emit in -duration 0 mode")
	fs.BoolVar(&f.RequireOK, "require-success", false, "exit 1 unless the run had zero errors and nonzero throughput (CI smoke mode)")
	return f
}

// Config translates the parsed flags into a loadgen run config.
func (f *LoadFlags) Config() loadgen.Config {
	return loadgen.Config{
		Target:      f.Target,
		Concurrency: f.Concurrency,
		Rate:        f.Rate,
		Duration:    f.Duration,
		Seed:        f.Seed,
		Timeout:     f.Timeout,
		DebugAddr:   f.Debug,
	}
}

// ObsFlags is the observability flag group: the deterministic trace
// and metrics outputs plus the wall-clock debug server.
type ObsFlags struct {
	TraceOut   string
	MetricsOut string
	DebugAddr  string
}

// Register declares all three observability flags on fs.
func (o *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.TraceOut, "trace-out", "", "write the virtual-time trace journal (JSONL spans + events) to FILE")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write the deterministic metrics snapshot to FILE")
	o.RegisterDebug(fs)
}

// RegisterDebug declares only -debug-addr — the one observability
// flag that makes sense for a daemon with no study of its own.
func (o *ObsFlags) RegisterDebug(fs *flag.FlagSet) {
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve live pprof and Prometheus /metrics (wall profile, Go runtime) on ADDR (e.g. :6060)")
}

// Instrument wires the parsed observability flags into observer: the
// trace journal is opened (reopened without truncation when resume is
// set — the journaled prefix up to the checkpoint is part of the
// resumed run's output), the debug server is started, and the
// returned cleanup flushes the journal and writes the metrics
// snapshot. Run cleanup on every exit path so a cancelled or failed
// study keeps its partial telemetry.
func (o *ObsFlags) Instrument(observer *obs.Observer, resume bool, name string) (cleanup func(), err error) {
	var undo []func()
	cleanup = func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	if o.TraceOut != "" {
		mode := os.O_RDWR | os.O_CREATE
		if !resume {
			mode |= os.O_TRUNC
		}
		fh, err := os.OpenFile(o.TraceOut, mode, 0o644)
		if err != nil {
			return cleanup, err
		}
		observer.SetJournal(fh)
		undo = append(undo, func() {
			if err := observer.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: flushing trace: %v\n", name, err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote %s\n", o.TraceOut)
			}
			fh.Close()
		})
	}
	if o.MetricsOut != "" {
		undo = append(undo, func() {
			if err := os.WriteFile(o.MetricsOut, []byte(observer.Root.Registry().Snapshot()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing metrics: %v\n", name, err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote %s\n", o.MetricsOut)
			}
		})
	}
	if o.DebugAddr != "" {
		srv, addr, err := obs.ServeDebug(o.DebugAddr, observer.Wall)
		if err != nil {
			cleanup()
			return func() {}, err
		}
		undo = append(undo, func() { srv.Close() })
		fmt.Fprintf(os.Stderr, "debug server on http://%s/metrics (also /debug/pprof/)\n", addr)
	}
	return cleanup, nil
}
