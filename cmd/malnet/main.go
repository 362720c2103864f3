// Command malnet runs the complete MalNet study end-to-end and
// writes the five datasets as CSV-ish text files plus a summary.
//
// Usage:
//
//	malnet [-seed N] [-samples N] [-workers N] [-short] [-out DIR]
//	       [-faults] [-fault-seed N] [-v]
//	       [-trace-out FILE] [-metrics-out FILE] [-debug-addr ADDR]
//	       [-lake-dir DIR] [-lake-run NAME] [-lake-branch NAME]
//	       [-checkpoint-every N] [-resume]
//
// With -lake-dir the study is durable: it commits a snapshot into the
// run lake at DIR at day-batch boundaries, and a run killed by ^C (or
// anything else) restarts from the branch head with -resume,
// producing byte-identical output to an uninterrupted run. A head
// whose object is damaged is passed over for the commit before it.
// An interrupted run still flushes its trace journal and metrics
// snapshot, so partial observability survives. The lake is the data
// source of cmd/malnetd, the query daemon that serves finished (or
// still-running) studies over HTTP.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"malnet/internal/cli"
	"malnet/internal/core"
	"malnet/internal/ids"
	"malnet/internal/obs"
	"malnet/internal/results"
	"malnet/internal/world"
)

func main() { os.Exit(run()) }

// run is main with defer-friendly exits: every path out flushes the
// trace journal and writes the metrics snapshot before the process
// dies, so a cancelled or failed study keeps its partial telemetry.
func run() int {
	flags := cli.NewStudyFlags(flag.CommandLine)
	out := flag.String("out", "malnet-out", "output directory")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "malnet:", err)
		return 1
	}
	wcfg, scfg, err := flags.Configs()
	if err != nil {
		return fail(err)
	}

	observer := obs.NewObserver()
	scfg.Observability.Obs = observer
	scfg.Observability.Progress = flags.ProgressPrinter()
	cleanup, err := flags.Obs.Instrument(observer, flags.Checkpoint.Resume, "malnet")
	// Telemetry outlives failures: cleanup runs on every exit path.
	defer cleanup()
	if err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	w := world.Generate(wcfg)
	st, err := core.RunStudyContext(ctx, w, scfg)
	if err != nil {
		flags.Checkpoint.InterruptHint("malnet", err)
		return fail(fmt.Errorf("study interrupted: %w", err))
	}
	fmt.Printf("study complete in %v\n", time.Since(start).Round(time.Millisecond))

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	var writeErr error
	write := func(name, content string) {
		if writeErr != nil {
			return
		}
		if err := os.WriteFile(filepath.Join(*out, name), []byte(content), 0o644); err != nil {
			writeErr = err
			return
		}
		fmt.Printf("wrote %s\n", filepath.Join(*out, name))
	}

	// D-Samples.
	var sb strings.Builder
	sb.WriteString("sha256,date,family,family_avclass,p2p,detections,c2s,live_day0,exploits,disposition,c2_retries,faults\n")
	for _, s := range st.Samples {
		fmt.Fprintf(&sb, "%s,%s,%s,%s,%v,%d,%d,%v,%d,%s,%d,%d\n",
			s.SHA, s.Date.Format("2006-01-02"), s.Family, s.FamilyAVClass,
			s.P2P, s.Detections, len(s.C2s), s.LiveDay0, len(s.Exploits),
			s.Disposition, s.C2Retries, s.Faults.Total())
	}
	write("d-samples.csv", sb.String())

	// D-C2s.
	sb.Reset()
	sb.WriteString("address,kind,asn_ip,first_seen,last_seen,lifespan_days,samples,ever_live,day0_malicious,may7_malicious,vendors_day0,vendors_may7,verified\n")
	var addrs []string
	for a := range st.C2s {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		r := st.C2s[a]
		fmt.Fprintf(&sb, "%s,%s,%s,%s,%s,%.1f,%d,%v,%v,%v,%d,%d,%v\n",
			r.Address, r.Kind, r.IP, r.FirstSeen.Format("2006-01-02"),
			r.LastSeen.Format("2006-01-02"), r.LifespanDays(), len(r.Samples),
			r.EverLive, r.Day0Malicious, r.May7Malicious, r.Day0Vendors, r.May7Vendors, r.Verified)
	}
	write("d-c2s.csv", sb.String())

	// D-Exploits.
	sb.Reset()
	sb.WriteString("sha256,date,vulns,port,downloader,loader\n")
	for _, f := range st.Exploits {
		keys := make([]string, 0, len(f.Vulns))
		for _, v := range f.Vulns {
			keys = append(keys, v.Key)
		}
		fmt.Fprintf(&sb, "%s,%s,%s,%d,%s,%s\n",
			f.SHA256, f.Date.Format("2006-01-02"), strings.Join(keys, "+"), f.Port, f.Downloader, f.Loader)
	}
	write("d-exploits.csv", sb.String())

	// D-DDOS.
	sb.Reset()
	sb.WriteString("time,sha256,c2,attack,target,port,duration_s,method,verified\n")
	for _, o := range st.DDoS {
		fmt.Fprintf(&sb, "%s,%s,%s,%s,%s,%d,%.0f,%s,%v\n",
			o.Time.Format(time.RFC3339), o.SHA256, o.C2, o.Command.Attack,
			o.Command.Target, o.Command.Port, o.Command.Duration.Seconds(), o.Method, o.Verified)
	}
	write("d-ddos.csv", sb.String())

	// D-PC2.
	sb.Reset()
	sb.WriteString("target,engagements,probes,outcomes\n")
	for _, t := range st.MergedLiveC2s() {
		marks := make([]byte, len(t.Outcomes))
		for i, o := range t.Outcomes {
			switch o {
			case core.ProbeEngaged:
				marks[i] = '#'
			case core.ProbeAcceptedSilent:
				marks[i] = '+'
			case core.ProbeBanner:
				marks[i] = 'B'
			default:
				marks[i] = '.'
			}
		}
		fmt.Fprintf(&sb, "%s,%d,%d,%s\n", t.Addr, t.Engagements(), len(t.Outcomes), marks)
	}
	write("d-pc2.csv", sb.String())

	// Firewall / IDS rules derived from the study — the paper's
	// "potential impact" output (§1: firewall rules; §6a).
	rules := core.GenerateRules(st)
	write("malnet.rules", "# MalNet-generated rules (SNORT-like dialect)\n"+ids.RenderAll(rules))

	// Ground-truth answer key (dataset sharing, and the reference
	// for validating third-party analyses of the CSVs above).
	var gtBuf strings.Builder
	if err := w.WriteGroundTruth(&gtBuf); err != nil {
		return fail(err)
	}
	write("ground-truth.json", gtBuf.String())

	// Summary report.
	summary := results.NewTable1(st).Render() + "\n" + results.NewHeadlines(st).Render()
	if flags.Faults {
		summary += "\n" + results.NewFaultSummary(st).Render()
	}
	summary += "\n" + results.NewMetricsSection(st).Render()
	write("summary.txt", summary)
	if writeErr != nil {
		return fail(writeErr)
	}
	fmt.Printf("generated %d firewall/IDS rules\n\n", len(rules))
	fmt.Print(summary)
	return 0
}
