package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"

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
	st := core.RunStudy(w, core.DefaultStudyConfig(42))

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
