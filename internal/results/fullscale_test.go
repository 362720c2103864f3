package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"
	"time"

	"malnet/internal/core"
	"malnet/internal/world"
)

// fullScaleDigest pins the paper-scale study byte for byte: a change
// that moves any dataset record or deterministic metric moves it.
const fullScaleDigest = "653e1a98f896bcbae4b1ab027d17539dcd1b1630dfb5da1e3e1c6ac786d3df94"

// studyDigest hashes the study's four datasets and its deterministic
// metrics snapshot, the recipe perfbench pins the -short study with.
func studyDigest(t *testing.T, st *core.Study) string {
	t.Helper()
	h := sha256.New()
	ds := core.CheckpointDatasets{Samples: st.Samples, C2s: st.C2s, Exploits: st.Exploits, DDoS: st.DDoS}
	if err := json.NewEncoder(h).Encode(ds); err != nil {
		t.Fatal(err)
	}
	io.WriteString(h, st.Metrics().Snapshot())
	return hex.EncodeToString(h.Sum(nil))
}

// TestFullScaleStudy is the long-haul check: the paper-scale
// pipeline run, pinned by its digest and asserted against the
// headline shapes. ~30 s; skipped with -short.
func TestFullScaleStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w := world.Generate(world.DefaultConfig(42))
	st := core.RunStudy(w, core.Defaults(42))

	if got := studyDigest(t, st); got != fullScaleDigest {
		t.Errorf("study digest = %s, want %s", got, fullScaleDigest)
	}
	if len(st.Samples) != 1447 {
		t.Fatalf("samples = %d", len(st.Samples))
	}
	if len(st.C2s) < 950 || len(st.C2s) > 1300 {
		t.Fatalf("C2s = %d, want ~1160", len(st.C2s))
	}
	if len(st.DDoS) < 38 || len(st.DDoS) > 46 {
		t.Fatalf("DDoS commands = %d, want 42", len(st.DDoS))
	}

	h := NewHeadlines(st)
	if h.DeadC2Day0Share < 0.5 || h.DeadC2Day0Share > 0.7 {
		t.Fatalf("dead day-0 = %.3f, want ~0.60", h.DeadC2Day0Share)
	}
	if h.AttackC2MeanLifespanDays <= h.MeanLifespanDays {
		t.Fatalf("attack C2 lifespan %.1f <= overall %.1f (paper: ~10 vs 4)",
			h.AttackC2MeanLifespanDays, h.MeanLifespanDays)
	}
	if h.DistinctAttackC2s != 17 {
		t.Fatalf("attack C2s = %d, want 17", h.DistinctAttackC2s)
	}
	if h.ActivationRate < 0.84 || h.ActivationRate > 0.96 {
		t.Fatalf("activation rate = %.3f, want ~0.90 (§6f)", h.ActivationRate)
	}
	if h.DoubleAttackedShare < 0.15 || h.DoubleAttackedShare > 0.35 {
		t.Fatalf("double-attacked share = %.3f, want ~0.25", h.DoubleAttackedShare)
	}

	t3 := NewTable3(st)
	if t3.AllDay0 < 0.10 || t3.AllDay0 > 0.22 {
		t.Fatalf("day-0 TI miss = %.3f, want ~0.153", t3.AllDay0)
	}
	if t3.DNSDay0 <= t3.IPDay0 {
		t.Fatal("DNS miss must exceed IP miss (Table 3)")
	}

	f4 := NewFigure4(st)
	if len(f4.Targets) != 7 {
		t.Fatalf("probed live C2s = %d, want 7", len(f4.Targets))
	}
	if f4.SecondProbeMiss < 0.85 || f4.SecondProbeMiss > 0.97 {
		t.Fatalf("second-probe miss = %.3f, want ~0.91", f4.SecondProbeMiss)
	}
	if f4.MaxDailyStreak >= 6 {
		t.Fatalf("daily streak = %d (paper: never 6/6)", f4.MaxDailyStreak)
	}

	f10 := NewFigure10(st)
	if f10.UDPShare() < 0.65 || f10.UDPShare() > 0.85 {
		t.Fatalf("UDP share = %.3f, want ~0.74", f10.UDPShare())
	}

	f11 := NewFigure11(st)
	if f11.Types != 8 {
		t.Fatalf("attack types = %d, want 8", f11.Types)
	}
}

// TestShortStudyVariantDigests pins two -short studies (seed 42, 150
// samples, 12 probe rounds, 2 workers) that the clean pins do not
// reach: one with every fault class armed, whose schedule reads the
// per-pair connection counters, and one whose 26-hour live watches
// run past midnight, so that 31 of its 114 day batches start after
// their analysis day's midnight. ~10 s; skipped with -short.
func TestShortStudyVariantDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name   string
		set    func(*core.StudyConfig)
		digest string
	}{
		{"faulted", func(c *core.StudyConfig) { c.Determinism.Faults = true },
			"50decbaed0c8eeb5c2334338de630da46c5d13d3f411da5d3052367432daedcc"},
		{"live-26h", func(c *core.StudyConfig) { c.Windows.Live = 26 * time.Hour },
			"d1d9f10f9ae204b2f388369e1d95fc7a097a27ae33f222c5f756ff5f48c83e64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wcfg := world.DefaultConfig(42)
			wcfg.TotalSamples = 150
			scfg := core.Defaults(42)
			scfg.Analysis.ProbeRounds = 12
			scfg.Determinism.Workers = 2
			tc.set(&scfg)
			st := core.RunStudy(world.Generate(wcfg), scfg)
			if got := studyDigest(t, st); got != tc.digest {
				t.Errorf("study digest = %s, want %s", got, tc.digest)
			}
		})
	}
}
