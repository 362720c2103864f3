// Ablation benches for the design choices DESIGN.md calls out. Each
// sweeps one pipeline parameter and reports the resulting study
// metric via b.ReportMetric, so `go test -bench Ablation` prints the
// sensitivity tables behind the paper's methodology decisions:
//
//   - probe frequency vs live-C2 detection (§3.2: "probe frequently")
//   - handshaker distinct-IP threshold vs exploits recovered (§2.4)
//   - DDoS pps heuristic threshold vs commands found (§2.5)
//   - blacklist feed aggregation vs day-0 miss rate (§3.3)
//   - analysis delay vs day-0 live C2 rate (the timeliness thesis)
package malnet_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"malnet/internal/binfmt"
	"malnet/internal/c2"
	"malnet/internal/core"
	"malnet/internal/intel"
	"malnet/internal/sandbox"
	"malnet/internal/simclock"
	"malnet/internal/simnet"
	"malnet/internal/world"
)

var ablT0 = time.Date(2021, 11, 8, 0, 0, 0, 0, time.UTC)

// BenchmarkAblationProbeInterval sweeps the probing cadence over the
// same two-week window and reports how many of the seven planted
// elusive C2s are found and how many engagements are captured.
// Slower cadences miss servers entirely — the paper's "persistent
// probing" recommendation.
func BenchmarkAblationProbeInterval(b *testing.B) {
	for _, interval := range []time.Duration{time.Hour, 4 * time.Hour, 12 * time.Hour, 24 * time.Hour} {
		interval := interval
		b.Run(interval.String(), func(b *testing.B) {
			b.ReportAllocs()
			var found, engagements int
			for i := 0; i < b.N; i++ {
				clock := simclock.New(ablT0)
				net := simnet.New(clock, simnet.DefaultConfig())
				subnet := simnet.SubnetFrom("203.0.113.0/24")
				for j := 0; j < 7; j++ {
					c2.NewServer(net, c2.ServerConfig{
						Family: c2.FamilyMirai,
						Addr:   simnet.Addr{IP: subnet.HostAt(10 + j*13), Port: 1312},
						Birth:  ablT0.Add(-24 * time.Hour),
						Death:  ablT0.Add(16 * 24 * time.Hour),
						Duty:   c2.DefaultDutyCycle(int64(500 + j)),
					})
				}
				rounds := int(14 * 24 * time.Hour / interval)
				study := core.RunProbing(net, core.ProbeConfig{
					Subnets:  []simnet.Subnet{subnet},
					Ports:    []uint16{1312},
					Interval: interval,
					Rounds:   rounds,
					Family:   c2.FamilyMirai,
				})
				found = len(study.LiveC2s)
				engagements = 0
				for _, t := range study.LiveC2s {
					engagements += t.Engagements()
				}
			}
			b.ReportMetric(float64(found), "c2s-found-of-7")
			b.ReportMetric(float64(engagements), "engagements")
		})
	}
}

// BenchmarkAblationHandshakerThreshold sweeps the distinct-IP
// trigger (paper: 20) and reports exploits recovered in a fixed
// window. Too high a threshold never arms the trap.
func BenchmarkAblationHandshakerThreshold(b *testing.B) {
	raw, err := binfmt.Encode(binfmt.BotConfig{
		Family: "gafgyt", Variant: "v1", C2Addrs: []string{"60.0.0.9:6667"},
		ScanPorts: []uint16{80, 8080}, ExploitIDs: []string{"gpon-rce", "netlink-gpon"},
		LoaderName: "t8UsA2.sh", DownloaderAddr: "60.0.0.9:80",
	}, rand.New(rand.NewSource(9)), nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, threshold := range []int{5, 20, 100, 500} {
		threshold := threshold
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			b.ReportAllocs()
			var captured int
			for i := 0; i < b.N; i++ {
				clock := simclock.New(ablT0)
				net := simnet.New(clock, simnet.DefaultConfig())
				sb := sandbox.New(net, sandbox.Config{Seed: int64(i)})
				// A short window bounds how many distinct victims
				// each port sees (~60), so the threshold bites.
				rep, err := sb.Run(raw, sandbox.RunOptions{
					Mode: sandbox.ModeIsolated, Duration: 8 * time.Minute,
					HandshakerThreshold: threshold,
				})
				if err != nil {
					b.Fatal(err)
				}
				captured = len(core.ClassifyExploits(rep))
			}
			b.ReportMetric(float64(captured), "vulns-captured")
		})
	}
}

// BenchmarkAblationDDoSThreshold sweeps the behavioral heuristic's
// pps cutoff (paper: 100) against a live attack session and reports
// commands recovered with the protocol profiles disabled. Absurdly
// high thresholds stop seeing floods.
func BenchmarkAblationDDoSThreshold(b *testing.B) {
	for _, threshold := range []float64{10, 100, 1000, 1e6} {
		threshold := threshold
		b.Run(fmt.Sprintf("pps=%.0f", threshold), func(b *testing.B) {
			b.ReportAllocs()
			var observed int
			for i := 0; i < b.N; i++ {
				clock := simclock.New(ablT0)
				net := simnet.New(clock, simnet.DefaultConfig())
				srv := c2.NewServer(net, c2.ServerConfig{
					Family: c2.FamilyGafgyt, Addr: simnet.AddrFrom("60.0.0.9", 23),
					Birth: ablT0, Death: ablT0.Add(24 * time.Hour), AlwaysOn: true,
				})
				for j, atk := range []c2.AttackType{c2.AttackUDPFlood, c2.AttackSYNFlood, c2.AttackSTD} {
					srv.ScheduleAttack(ablT0.Add(time.Duration(10+j*10)*time.Minute), c2.Command{
						Attack: atk, Target: netip.MustParseAddr("70.0.0.9"), Port: uint16(1000 + j),
						Duration: 20 * time.Second,
					}, 3)
				}
				sb := sandbox.New(net, sandbox.Config{Seed: int64(i)})
				raw, err := binfmt.Encode(binfmt.BotConfig{
					Family: "gafgyt", Variant: "v1", C2Addrs: []string{"60.0.0.9:23"},
				}, rand.New(rand.NewSource(int64(i))), nil)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := sb.Run(raw, sandbox.RunOptions{
					Mode: sandbox.ModeLive, Duration: time.Hour, RestrictToC2: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				cands := core.DetectC2(rep, 1)
				cfg := core.DDoSExtractorConfig{
					RateThreshold:   threshold,
					ProfileFamilies: map[string]bool{}, // heuristic only
				}
				observed = len(core.ExtractDDoS(rep, c2.FamilyGafgyt, cands, cfg))
			}
			b.ReportMetric(float64(observed), "commands-of-3")
		})
	}
}

// BenchmarkAblationFeedAggregation sweeps how many top feeds a
// blacklist aggregates and reports the day-0 miss rate over 1000 C2
// addresses — Figure 7's "aggregate multiple sources" insight.
func BenchmarkAblationFeedAggregation(b *testing.B) {
	day0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, k := range []int{1, 2, 5, 10, 44} {
		k := k
		b.Run(fmt.Sprintf("feeds=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var missRate float64
			for i := 0; i < b.N; i++ {
				svc := intel.NewService(42)
				const n = 1000
				for j := 0; j < n; j++ {
					svc.RegisterC2(fmt.Sprintf("63.0.%d.%d", j/256, j%256), intel.KindIP, day0)
				}
				// The blacklist uses only the k highest-coverage
				// vendors.
				topVendors := map[string]bool{}
				for idx, v := range svc.Vendors() {
					if idx < k {
						topVendors[v.Name] = true
					}
				}
				missed := 0
				for j := 0; j < n; j++ {
					rep := svc.QueryAddress(fmt.Sprintf("63.0.%d.%d", j/256, j%256), day0)
					hit := false
					for _, v := range rep.Vendors {
						if topVendors[v] {
							hit = true
						}
					}
					if !hit {
						missed++
					}
				}
				missRate = float64(missed) / n
			}
			b.ReportMetric(100*missRate, "day0-miss-pct")
		})
	}
}

// BenchmarkAblationAnalysisDelay sweeps how long after publication
// samples are analyzed and reports the live-C2 rate — the paper's
// timeliness thesis: with one-day C2 lifespans, even a one-day delay
// loses most live servers.
func BenchmarkAblationAnalysisDelay(b *testing.B) {
	for _, delay := range []int{0, 1, 2, 7} {
		delay := delay
		b.Run(fmt.Sprintf("delay=%dd", delay), func(b *testing.B) {
			b.ReportAllocs()
			var liveRate float64
			for i := 0; i < b.N; i++ {
				wcfg := world.DefaultConfig(21)
				wcfg.TotalSamples = 150
				w := world.Generate(wcfg)
				scfg := core.Defaults(21)
				scfg.Analysis.Probing = false
				scfg.Analysis.DelayDays = delay
				st := core.RunStudy(w, scfg)
				var withC2, live int
				for _, s := range st.Samples {
					if s.P2P || len(s.C2s) == 0 {
						continue
					}
					withC2++
					if s.LiveDay0 {
						live++
					}
				}
				if withC2 > 0 {
					liveRate = float64(live) / float64(withC2)
				}
			}
			b.ReportMetric(100*liveRate, "live-c2-pct")
		})
	}
}

// BenchmarkAblationInetSim measures the sandbox activation rate with
// and without the fake-Internet services — §2.6a's justification for
// deploying InetSim: connectivity-checking samples abort without it,
// and only the strict resolve-all detectors still evade with it.
func BenchmarkAblationInetSim(b *testing.B) {
	mkSample := func(evasion string, seed int64) []byte {
		raw, err := binfmt.Encode(binfmt.BotConfig{
			Family: "mirai", Variant: "v1",
			C2Addrs: []string{"60.0.0.9:23"},
			Evasion: evasion,
		}, rand.New(rand.NewSource(seed)), nil)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	// A feed with the world's evasion mix: 8% strict, 5%
	// connectivity, 87% plain.
	var feed [][]byte
	for i := 0; i < 100; i++ {
		ev := ""
		switch {
		case i < 8:
			ev = "strict"
		case i < 13:
			ev = "connectivity"
		}
		feed = append(feed, mkSample(ev, int64(i)))
	}
	for _, disable := range []bool{false, true} {
		name := "inetsim=on"
		if disable {
			name = "inetsim=off"
		}
		disable := disable
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var rate float64
			for i := 0; i < b.N; i++ {
				clock := simclock.New(ablT0)
				net := simnet.New(clock, simnet.DefaultConfig())
				sb := sandbox.New(net, sandbox.Config{Seed: 1})
				activated := 0
				for _, raw := range feed {
					rep, err := sb.Run(raw, sandbox.RunOptions{
						Mode:                sandbox.ModeIsolated,
						Duration:            5 * time.Minute,
						DisableFakeServices: disable,
					})
					if err != nil {
						b.Fatal(err)
					}
					if rep.Activated {
						activated++
					}
				}
				rate = float64(activated) / float64(len(feed))
			}
			b.ReportMetric(100*rate, "activation-pct")
		})
	}
}

// BenchmarkAblationDetectC2MinAttempts sweeps the classifier's
// repeat-dial threshold for signature-less endpoints. The paper's
// classifier leans on repetition; a too-high bar loses short
// sessions while 1 admits every one-shot connection.
func BenchmarkAblationDetectC2MinAttempts(b *testing.B) {
	raw, err := binfmt.Encode(binfmt.BotConfig{
		Family: "mirai", Variant: "v1",
		C2Addrs: []string{"60.0.0.9:23", "60.0.0.10:23", "cnc.abl.example:1312"},
	}, rand.New(rand.NewSource(12)), nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, minAttempts := range []int{1, 2, 5, 12} {
		minAttempts := minAttempts
		b.Run(fmt.Sprintf("min=%d", minAttempts), func(b *testing.B) {
			b.ReportAllocs()
			var found int
			for i := 0; i < b.N; i++ {
				clock := simclock.New(ablT0)
				net := simnet.New(clock, simnet.DefaultConfig())
				sb := sandbox.New(net, sandbox.Config{Seed: 3})
				// Live mode with dead C2s: no payload ever flows, so
				// the classifier has only dial repetition to go on.
				rep, err := sb.Run(raw, sandbox.RunOptions{
					Mode: sandbox.ModeLive, Duration: 15 * time.Minute,
				})
				if err != nil {
					b.Fatal(err)
				}
				found = len(core.DetectC2(rep, minAttempts))
			}
			b.ReportMetric(float64(found), "c2s-of-3")
		})
	}
}
