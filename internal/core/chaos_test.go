package core

import (
	"testing"

	"malnet/internal/world"
)

// chaosStudy runs a faulted study: the deterministic fault plan is
// installed on the world net and every shard, probe retries are
// armed, and the watchdog bounds activations.
func chaosStudy(t *testing.T, seed int64, workers int) *Study {
	t.Helper()
	wcfg := world.DefaultConfig(seed)
	wcfg.TotalSamples = equivWorldSamples()
	scfg := Defaults(seed)
	scfg.Analysis.ProbeRounds = 4
	scfg.Determinism.Workers = workers
	scfg.Determinism.Faults = true
	scfg.Determinism.FaultSeed = seed + 1000
	return RunStudy(world.Generate(wcfg), scfg)
}

// TestChaosEquivalence is the fault layer's half of the determinism
// contract: with injected packet loss, resets, latency spikes,
// blackouts, and slow drips all armed at a fixed fault seed, the
// study still completes (no wedged workers) and renders byte-identical
// datasets at Workers=1, 2, and 8 — the fault schedule is a pure
// function of the plan seed, never of scheduling.
func TestChaosEquivalence(t *testing.T) {
	ref := chaosStudy(t, 11, 1)
	refRender := renderDatasets(ref)
	if len(refRender) < 200 {
		t.Fatalf("reference render suspiciously small (%d bytes):\n%s", len(refRender), refRender)
	}

	// The run must not be vacuously clean: faults have to have bitten
	// somewhere, and the retry/disposition machinery must have fired.
	var faults, retries int
	disp := map[Disposition]int{}
	for _, s := range ref.Samples {
		faults += s.Faults.Total()
		retries += s.C2Retries
		disp[s.Disposition]++
	}
	if faults == 0 {
		t.Fatal("chaos study saw zero injected faults in sandboxes; the plan is not installed on shards")
	}
	if ref.W.Net.FaultStats().Total() == 0 {
		t.Fatal("chaos study saw zero injected faults on the world net")
	}
	if ref.Probe == nil || ref.Probe.Retries == 0 {
		t.Fatal("probe retries never fired under injected faults")
	}
	if retries == 0 {
		t.Fatal("no sample ever re-dialed its C2 under injected faults")
	}
	if disp[DispAlive]+disp[DispRetriedThenAlive] == 0 || disp[DispDead] == 0 {
		t.Fatalf("disposition split degenerate: %v", disp)
	}

	for _, workers := range []int{2, 8} {
		got := renderDatasets(chaosStudy(t, 11, workers))
		if got != refRender {
			diffAt := len(refRender)
			for i := 0; i < len(got) && i < len(refRender); i++ {
				if got[i] != refRender[i] {
					diffAt = i
					break
				}
			}
			lo, hi := diffAt-80, diffAt+80
			if lo < 0 {
				lo = 0
			}
			clamp := func(s string) string {
				h := hi
				if h > len(s) {
					h = len(s)
				}
				if lo >= h {
					return ""
				}
				return s[lo:h]
			}
			t.Fatalf("workers=%d differs from sequential near byte %d:\nseq: %q\npar: %q",
				workers, diffAt, clamp(refRender), clamp(got))
		}
	}
}

// TestChaosSeedIndependence: changing only the fault seed changes the
// outcome (the plan actually feeds off FaultSeed), while the same
// fault seed reproduces it exactly.
func TestChaosSeedIndependence(t *testing.T) {
	render := func(faultSeed int64) string {
		wcfg := world.DefaultConfig(11)
		wcfg.TotalSamples = equivWorldSamples()
		scfg := Defaults(11)
		scfg.Analysis.ProbeRounds = 2
		scfg.Determinism.Workers = 4
		scfg.Determinism.Faults = true
		scfg.Determinism.FaultSeed = faultSeed
		return renderDatasets(RunStudy(world.Generate(wcfg), scfg))
	}
	a := render(900)
	if b := render(900); b != a {
		t.Fatal("same fault seed did not reproduce the faulted study")
	}
	if c := render(901); c == a {
		t.Fatal("fault seeds 900 and 901 rendered identical studies; FaultSeed is dead")
	}
}
