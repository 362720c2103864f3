// Command experiments regenerates every table and figure of the
// paper from a fresh end-to-end study run.
//
// Usage:
//
//	experiments [-seed N] [-samples N] [-probe-rounds N] [-workers N]
//	            [-short] [-table N] [-figure N] [-headlines] [-all]
//	            [-trace-out FILE] [-metrics-out FILE] [-debug-addr ADDR]
//	            [-lake-dir DIR] [-lake-run NAME] [-lake-branch NAME]
//	            [-checkpoint-every N] [-resume]
//
// With no selector it prints everything. -short runs a scaled-down
// study (150 samples, 12 probe rounds) in a few seconds; the default
// is the paper-scale 1447-sample year, which takes ~30 s.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"malnet"
	"malnet/internal/cli"
	"malnet/internal/core"
	"malnet/internal/obs"
	"malnet/internal/results"
	"malnet/internal/world"
)

func main() { os.Exit(run()) }

// run is main with defer-friendly exits: the trace journal and
// metrics snapshot are flushed on every path out, so an interrupted
// study keeps its partial telemetry.
func run() int {
	flags := cli.NewStudyFlags(flag.CommandLine)
	var (
		probeRounds = flag.Int("probe-rounds", 0, "probing rounds (0 = paper's 84)")
		table       = flag.Int("table", 0, "print only table N (1-7)")
		figure      = flag.Int("figure", 0, "print only figure N (1-13)")
		headlines   = flag.Bool("headlines", false, "print only the headline findings")
		seeds       = flag.Int("seeds", 0, "run a robustness sweep over N seeds and report headline spreads")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}

	if *seeds > 1 {
		seedSweep(*seeds, flags.Samples, *probeRounds, flags.Short)
		return 0
	}

	wcfg, scfg, err := flags.Configs()
	if err != nil {
		return fail(err)
	}
	if *probeRounds > 0 {
		scfg.Analysis.ProbeRounds = *probeRounds
	}

	observer := obs.NewObserver()
	scfg.Observability.Obs = observer
	scfg.Observability.Progress = flags.ProgressPrinter()
	cleanup, err := flags.Obs.Instrument(observer, flags.Checkpoint.Resume, "experiments")
	// Telemetry outlives failures: cleanup runs on every exit path.
	defer cleanup()
	if err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "generating world (seed=%d, samples=%d)...\n", flags.Seed, wcfg.TotalSamples)
	start := time.Now()
	w := world.Generate(wcfg)
	fmt.Fprintf(os.Stderr, "running study...\n")
	st, err := core.RunStudyContext(ctx, w, scfg)
	if err != nil {
		flags.Checkpoint.InterruptHint("experiments", err)
		return fail(fmt.Errorf("study interrupted: %w", err))
	}
	fmt.Fprintf(os.Stderr, "done in %v: %d samples, %d C2s, %d exploits, %d DDoS commands\n\n",
		time.Since(start).Round(time.Millisecond), len(st.Samples), len(st.C2s), len(st.Exploits), len(st.DDoS))

	switch {
	case *table > 0:
		s, err := malnet.RenderTable(st, *table)
		if err != nil {
			fmt.Fprintf(os.Stderr, "no table %d\n", *table)
			return 2
		}
		fmt.Println(s)
	case *figure > 0:
		s, err := malnet.RenderFigure(st, *figure)
		if err != nil {
			fmt.Fprintf(os.Stderr, "no figure %d\n", *figure)
			return 2
		}
		fmt.Println(s)
	case *headlines:
		fmt.Println(malnet.RenderHeadlines(st))
	default:
		fmt.Println(malnet.RenderAll(st))
	}
	if flags.Faults {
		fmt.Println(results.NewFaultSummary(st).Render())
	}
	if *table == 0 && *figure == 0 && !*headlines {
		fmt.Println(results.NewMetricsSection(st).Render())
	}
	return 0
}

// seedSweep reruns the study across n seeds and prints min/mean/max
// for the headline metrics — the robustness check a reviewer asks
// for ("how seed-dependent are these numbers?").
func seedSweep(n, samples, probeRounds int, short bool) {
	type row struct {
		name   string
		values []float64
		paper  string
	}
	rows := []*row{
		{name: "dead C2 on day 0 (%)", paper: "60"},
		{name: "TI same-day miss (%)", paper: "15.3"},
		{name: "DDoS commands", paper: "42"},
		{name: "attack C2 servers", paper: "17"},
		{name: "activation rate (%)", paper: "~90"},
		{name: "UDP attack share (%)", paper: "74"},
		{name: "probed live C2s", paper: "7"},
		{name: "second-probe miss (%)", paper: "91"},
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		wcfg := world.DefaultConfig(seed)
		scfg := core.Defaults(seed)
		if short {
			wcfg.TotalSamples = 150
			scfg.Analysis.ProbeRounds = 12
		}
		if samples > 0 {
			wcfg.TotalSamples = samples
		}
		if probeRounds > 0 {
			scfg.Analysis.ProbeRounds = probeRounds
		}
		fmt.Fprintf(os.Stderr, "seed %d/%d...\n", seed, n)
		st := core.RunStudy(world.Generate(wcfg), scfg)
		h := results.NewHeadlines(st)
		t3 := results.NewTable3(st)
		f4 := results.NewFigure4(st)
		f10 := results.NewFigure10(st)
		vals := []float64{
			100 * h.DeadC2Day0Share,
			100 * t3.AllDay0,
			float64(len(st.DDoS)),
			float64(h.DistinctAttackC2s),
			100 * h.ActivationRate,
			100 * f10.UDPShare(),
			float64(len(f4.Targets)),
			100 * f4.SecondProbeMiss,
		}
		for i, v := range vals {
			rows[i].values = append(rows[i].values, v)
		}
	}
	fmt.Printf("robustness over %d seeds (paper value in parentheses)\n", n)
	for _, r := range rows {
		min, max, sum := r.values[0], r.values[0], 0.0
		for _, v := range r.values {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
			sum += v
		}
		fmt.Printf("  %-24s mean %7.1f  range [%.1f, %.1f]  (%s)\n",
			r.name, sum/float64(len(r.values)), min, max, r.paper)
	}
}
