// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus component micro-benchmarks and the ablation
// benches DESIGN.md calls out.
//
// The table/figure benches share one full-scale study (1447 samples,
// the paper's probing schedule), built once per benchmark binary;
// each bench then measures its aggregation and reports the headline
// metric it reproduces via b.ReportMetric, so `go test -bench .`
// doubles as the paper-shape regression harness.
package malnet_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"malnet/internal/binfmt"
	"malnet/internal/c2"
	"malnet/internal/checkpoint"
	"malnet/internal/core"
	"malnet/internal/results"
	"malnet/internal/sandbox"
	"malnet/internal/simclock"
	"malnet/internal/simnet"
	"malnet/internal/world"
	"malnet/internal/yara"
)

var (
	fullOnce  sync.Once
	fullStudy *core.Study
)

// sharedStudy runs the paper-scale pipeline once per benchmark
// binary (~30 s) and caches it.
func sharedStudy(b *testing.B) *core.Study {
	b.Helper()
	fullOnce.Do(func() {
		w := world.Generate(world.DefaultConfig(42))
		fullStudy = core.RunStudy(w, core.Defaults(42))
	})
	return fullStudy
}

// ---- Tables ----

func BenchmarkTable1Datasets(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var t results.Table1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = results.NewTable1(st)
	}
	b.ReportMetric(float64(t.DSamples), "samples")
	b.ReportMetric(float64(t.DC2s), "c2s")
	b.ReportMetric(float64(t.DDDoS), "ddos")
	b.ReportMetric(float64(t.DExploitSamples), "exploit-samples")
}

func BenchmarkTable2TopASes(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var t results.Table2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = results.NewTable2(st)
	}
	b.ReportMetric(100*t.Top10Share, "top10-share-pct") // paper: 69.7
	b.ReportMetric(float64(t.TotalASes), "ases")        // paper: 128
}

func BenchmarkTable3TIMiss(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var t results.Table3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = results.NewTable3(st)
	}
	b.ReportMetric(100*t.AllDay0, "all-day0-miss-pct") // paper: 15.3
	b.ReportMetric(100*t.IPDay0, "ip-day0-miss-pct")   // paper: 13.3
	b.ReportMetric(100*t.DNSDay0, "dns-day0-miss-pct") // paper: 57.6
	b.ReportMetric(100*t.AllMay7, "all-may7-miss-pct") // paper: 3.3
}

func BenchmarkTable4Vulns(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var t results.Table4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = results.NewTable4(st)
	}
	distinct := 0
	for _, r := range t.Rows {
		if r.Samples > 0 {
			distinct++
		}
	}
	b.ReportMetric(float64(distinct), "vulns-exploited") // paper: 12
}

func BenchmarkTable7Vendors(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var t results.Table7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = results.NewTable7(st)
	}
	b.ReportMetric(float64(t.EverFlagging), "flagging-vendors") // paper: 44
	if len(t.Rows) > 0 {
		b.ReportMetric(float64(t.Rows[0].Count), "top-vendor-c2s") // paper: ~799/1000
	}
}

// ---- Figures ----

func BenchmarkFigure1Heatmap(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure1(st)
	}
	b.ReportMetric(float64(f.Grid.Max()), "peak-cell")
}

func BenchmarkFigure2LifetimeIP(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure2(st)
	}
	b.ReportMetric(100*f.OneDayShare(), "one-day-pct") // paper: ~80
	b.ReportMetric(f.CDF.Mean(), "mean-lifetime-days") // paper: ~4
}

func BenchmarkFigure3LifetimeDomain(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure3(st)
	}
	b.ReportMetric(float64(f.CDF.N()), "domains")
}

func BenchmarkFigure4ProbeRaster(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure4(st)
	}
	b.ReportMetric(float64(len(f.Targets)), "live-c2s")            // paper: 7
	b.ReportMetric(100*f.SecondProbeMiss, "second-probe-miss-pct") // paper: 91
	b.ReportMetric(float64(f.MaxDailyStreak), "max-daily-streak")  // paper: < 6
}

func BenchmarkFigure5SamplesPerC2(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure5(st)
	}
	b.ReportMetric(100*f.SingleShare(), "single-binary-pct") // paper: ~40
}

func BenchmarkFigure6SamplesPerDomain(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure6(st)
	}
	b.ReportMetric(float64(f.CDF.N()), "domains")
}

func BenchmarkFigure7VendorCDF(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure7(st)
	}
	b.ReportMetric(100*f.LowCoverageShare(), "low-coverage-pct") // paper: ~25
}

func BenchmarkFigure8VulnSeries(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure8(st)
	}
	b.ReportMetric(float64(len(f.Series)), "vulns-with-series")
}

func BenchmarkFigure9Loaders(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure9(st)
	}
	b.ReportMetric(float64(len(f.Loaders.Labels())), "loader-names") // paper: 7
}

func BenchmarkFigure10AttackProto(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure10(st)
	}
	b.ReportMetric(100*f.UDPShare(), "udp-share-pct") // paper: 74
}

func BenchmarkFigure11AttackTypes(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure11
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure11(st)
	}
	b.ReportMetric(float64(f.Types), "attack-types") // paper: 8
}

func BenchmarkFigure12Targets(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure12(st)
	}
	b.ReportMetric(float64(f.TargetASes), "target-ases")  // paper: 23
	b.ReportMetric(float64(f.Countries), "countries")     // paper: 11
	b.ReportMetric(100*f.GamingShare, "gaming-share-pct") // paper: 18
}

func BenchmarkFigure13ASCDF(b *testing.B) {
	b.ReportAllocs()
	st := sharedStudy(b)
	var f results.Figure13
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = results.NewFigure13(st)
	}
	if len(f.Cumulative) >= 10 {
		b.ReportMetric(100*f.Cumulative[9], "top10-cumulative-pct") // paper: 69.7
	}
}

// ---- Component micro-benchmarks ----

func BenchmarkMiraiCommandRoundTrip(b *testing.B) {
	mirai, ok := c2.Lookup(c2.FamilyMirai)
	if !ok {
		b.Fatal("mirai not registered")
	}
	cmd := c2.Command{Attack: c2.AttackUDPFlood, Target: testTarget, Port: 80, Duration: time.Minute}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := mirai.EncodeCommand(cmd)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mirai.DecodeCommand(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGafgytParseLine(b *testing.B) {
	gafgyt, ok := c2.Lookup(c2.FamilyGafgyt)
	if !ok {
		b.Fatal("gafgyt not registered")
	}
	line := []byte("!* UDP 198.51.100.9 80 60\n")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gafgyt.DecodeCommand(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkELFEncode(b *testing.B) {
	cfg := binfmt.BotConfig{Family: "mirai", Variant: "v1", C2Addrs: []string{"60.0.0.9:23"}}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := binfmt.Encode(cfg, rng, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkYARAFamilyOf(b *testing.B) {
	b.ReportAllocs()
	raw, err := binfmt.Encode(binfmt.BotConfig{Family: "gafgyt", Variant: "v1", C2Addrs: []string{"60.0.0.9:23"}},
		rand.New(rand.NewSource(1)), nil)
	if err != nil {
		b.Fatal(err)
	}
	rules := yara.IoTFamilies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rules.FamilyOf(raw) != "gafgyt" {
			b.Fatal("misclassified")
		}
	}
}

func BenchmarkSandboxIsolatedRun(b *testing.B) {
	b.ReportAllocs()
	raw, err := binfmt.Encode(binfmt.BotConfig{
		Family: "mirai", Variant: "v1", C2Addrs: []string{"60.0.0.9:23"},
		ScanPorts: []uint16{23},
	}, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		clock := simclock.New(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
		net := simnet.New(clock, simnet.DefaultConfig())
		sb := sandbox.New(net, sandbox.Config{Seed: int64(i)})
		if _, err := sb.Run(raw, sandbox.RunOptions{Mode: sandbox.ModeIsolated, Duration: 15 * time.Minute}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRoundTrip measures the checkpoint container's
// encode and decode — framing and the SHA-256 footer — on the
// paper-scale study's four datasets plus its metrics snapshot. It is
// not what a study pays per checkpoint: the study's snapshot also
// carries the world metrics, attack chains and the connection-counter
// table, and is built, written and pruned each day. That cost is
// internal/core's BenchmarkSaveCheckpoint.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	st := sharedStudy(b)
	f := &checkpoint.File{}
	for name, v := range map[string]any{
		"samples": st.Samples, "c2s": st.C2s,
		"exploits": st.Exploits, "ddos": st.DDoS,
	} {
		if err := f.AddJSON(name, v); err != nil {
			b.Fatal(err)
		}
	}
	f.Add("metrics", []byte(st.Metrics().Snapshot()))
	size := len(checkpoint.Encode(f))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.Decode(checkpoint.Encode(f)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "snapshot-bytes")
}

// BenchmarkStudyWorkers measures the parallel executor's scaling on
// the default paper-scale world. Worker counts beyond the machine's
// core count cannot buy wall-clock time (the study is CPU-bound), so
// on an N-core machine expect speedup to flatten at N; the rendered
// datasets are byte-identical at every worker count either way.
func BenchmarkStudyWorkers(b *testing.B) {
	b.ReportAllocs()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := world.Generate(world.DefaultConfig(42))
				cfg := core.Defaults(42)
				cfg.Determinism.Workers = workers
				b.StartTimer()
				st := core.RunStudy(w, cfg)
				b.ReportMetric(float64(len(st.Samples)), "samples")
			}
		})
	}
}

func BenchmarkProbeSweepRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock := simclock.New(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
		net := simnet.New(clock, simnet.DefaultConfig())
		subnet := simnet.SubnetFrom("203.0.113.0/24")
		c2.NewServer(net, c2.ServerConfig{
			Family: c2.FamilyMirai, Addr: simnet.Addr{IP: subnet.HostAt(5), Port: 1312},
			Birth: clock.Now().Add(-time.Hour), Death: clock.Now().Add(48 * time.Hour), AlwaysOn: true,
		})
		core.RunProbing(net, core.ProbeConfig{
			Subnets: []simnet.Subnet{subnet}, Ports: []uint16{1312},
			Rounds: 1, Family: c2.FamilyMirai,
		})
	}
}

var testTarget = netip.MustParseAddr("198.51.100.9")
