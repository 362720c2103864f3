package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"malnet/internal/c2"
	"malnet/internal/intel"
	"malnet/internal/obs"
	"malnet/internal/world"
)

// scenWorldConfig sizes the scenario-pack worlds: a modest base feed
// plus the default wisp (p2p-relay) and sora (DGA churn) packs. The
// pack mechanics under test don't depend on base-feed volume.
func scenWorldConfig(seed int64) world.Config {
	wcfg := world.DefaultConfig(seed)
	wcfg.TotalSamples = 120
	wcfg.Scenario.Families = []string{c2.FamilyWisp, c2.FamilySora}
	wcfg.Scenario.Defaults()
	return wcfg
}

func scenStudy(t *testing.T, seed int64, workers int) *Study {
	t.Helper()
	scfg := Defaults(seed)
	scfg.Analysis.ProbeRounds = 4
	scfg.Determinism.Workers = workers
	st, err := RunStudyContext(context.Background(), world.Generate(scenWorldConfig(seed)), scfg)
	if err != nil {
		t.Fatalf("scenario study failed: %v", err)
	}
	return st
}

// assertScenarioContent checks that the packs actually flowed through
// the pipeline: pack samples got dispositions, wisp DDoS commands are
// attributed to relay addresses (the hidden origins never appear),
// and sora's rotating DGA domains show up as C2 records.
func assertScenarioContent(t *testing.T, st *Study) {
	t.Helper()
	w := world.Generate(scenWorldConfig(st.Cfg.Determinism.Seed))
	relays := map[string]bool{}
	origins := map[string]bool{}
	for addr, cs := range w.C2s {
		if cs.Family != c2.FamilyWisp {
			continue
		}
		if cs.RelayUpstream != "" {
			relays[addr] = true
		} else {
			origins[addr] = true
		}
	}
	if len(relays) == 0 || len(origins) == 0 {
		t.Fatal("scenario world has no wisp relay mesh")
	}

	famBySHA := map[string]string{}
	packSamples := map[string]int{}
	for _, s := range st.Samples {
		famBySHA[s.SHA] = s.Family
		if s.Family == c2.FamilyWisp || s.Family == c2.FamilySora {
			packSamples[s.Family]++
		}
	}
	if packSamples[c2.FamilyWisp] == 0 || packSamples[c2.FamilySora] == 0 {
		t.Fatalf("pack samples missing from D-Samples: %v", packSamples)
	}

	relayDDoS := 0
	for _, o := range st.DDoS {
		if famBySHA[o.SHA256] != c2.FamilyWisp {
			continue
		}
		if origins[o.C2] {
			t.Fatalf("wisp DDoS observation attributes hidden origin %s", o.C2)
		}
		if relays[o.C2] {
			relayDDoS++
		}
	}
	if relayDDoS == 0 {
		t.Fatal("no wisp DDoS observation attributed to a relay address")
	}

	dgaC2s := 0
	for addr, r := range st.C2s {
		if strings.Contains(addr, c2.FamilySora+"-gen.xyz") {
			dgaC2s++
			if r.Kind != intel.KindDNS {
				t.Fatalf("DGA C2 %s recorded as %v, want domain", addr, r.Kind)
			}
		}
	}
	if dgaC2s < 2 {
		t.Fatalf("want ≥2 rotating DGA domains in D-C2s, got %d", dgaC2s)
	}
}

// TestScenarioStudyEquivalence extends the executor's parallel
// contract to scenario packs: with wisp's relay mesh and sora's DGA
// churn enabled, workers 1/2/8 must still render byte-identical
// datasets — relay command forwarding and endpoint churn ride the
// same deterministic planes as everything else.
func TestScenarioStudyEquivalence(t *testing.T) {
	const seed = 23
	refStudy := scenStudy(t, seed, 1)
	assertScenarioContent(t, refStudy)
	ref := renderDatasets(refStudy)
	for _, workers := range []int{2, 8} {
		got := renderDatasets(scenStudy(t, seed, workers))
		if got == ref {
			continue
		}
		refLines := strings.Split(ref, "\n")
		gotLines := strings.Split(got, "\n")
		for i := 0; i < len(refLines) && i < len(gotLines); i++ {
			if refLines[i] != gotLines[i] {
				t.Fatalf("workers=%d diverges at line %d:\nref: %s\ngot: %s",
					workers, i+1, refLines[i], gotLines[i])
			}
		}
		t.Fatalf("workers=%d differs in length: %d vs %d lines", workers, len(gotLines), len(refLines))
	}
}

// runScenCkptStudy is runCkptStudy against a scenario-packed world.
func runScenCkptStudy(t *testing.T, seed int64, workers int, journalPath, lakeDir string, resume bool, killDay int) studyOutput {
	t.Helper()
	w := world.Generate(scenWorldConfig(seed))
	scfg := ckptStudyConfig(seed, workers)
	scfg.Durability = CheckpointConfig{Dir: lakeDir, Resume: resume}

	jf, err := os.OpenFile(journalPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	scfg.Observability.Obs = obs.NewObserver()
	scfg.Observability.Obs.SetJournal(jf)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if killDay >= 0 {
		w.Clock.Schedule(world.StudyStart().AddDate(0, 0, killDay), cancel)
	}
	st, err := RunStudyContext(ctx, w, scfg)
	if killDay >= 0 {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("killed run (day %d): want context.Canceled, got %v", killDay, err)
		}
	} else if err != nil {
		t.Fatalf("study failed: %v", err)
	}
	if err := scfg.Observability.Obs.Flush(); err != nil {
		t.Fatalf("journal flush: %v", err)
	}
	jb, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	return studyOutput{
		datasets: renderDatasets(st),
		metrics:  st.Metrics().Snapshot(),
		journal:  string(jb),
	}
}

// TestScenarioCheckpointResumeEquivalence kills a scenario-packed
// study mid-campaign (day 90 lands inside sora's DGA rotation and
// wisp's relay attack cadence) and resumes it; the result must be
// byte-identical to a run that was never interrupted — relay attack
// chains and domain churn restore from the snapshot like any other
// scheduled work.
func TestScenarioCheckpointResumeEquivalence(t *testing.T) {
	const seed = 23
	base := t.TempDir()
	ref := runScenCkptStudy(t, seed, 1, filepath.Join(base, "ref.jsonl"), "", false, -1)
	if len(ref.datasets) < 200 {
		t.Fatalf("reference render suspiciously small (%d bytes)", len(ref.datasets))
	}

	lakeDir := filepath.Join(base, "lake")
	journal := filepath.Join(base, "run.jsonl")
	runScenCkptStudy(t, seed, 2, journal, lakeDir, false, 90)
	got := runScenCkptStudy(t, seed, 2, journal, lakeDir, true, -1)

	for _, cmp := range []struct {
		what, got, want string
	}{
		{"datasets", got.datasets, ref.datasets},
		{"metrics", got.metrics, ref.metrics},
		{"journal", got.journal, ref.journal},
	} {
		if cmp.got == cmp.want {
			continue
		}
		gl, wl := strings.Split(cmp.got, "\n"), strings.Split(cmp.want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("resumed %s diverges at line %d:\nresumed:  %s\nstraight: %s",
					cmp.what, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("resumed %s differs in length: %d vs %d lines", cmp.what, len(gl), len(wl))
	}
}

// TestScenarioFingerprintRefusesChange: a checkpoint written with one
// scenario configuration must not seed a run with another — the
// refusal error names the scenario section.
func TestScenarioFingerprintRefusesChange(t *testing.T) {
	lakeDir := t.TempDir()
	w := world.Generate(scenWorldConfig(29))
	scfg := ckptStudyConfig(29, 2)
	scfg.Analysis.Probing = false
	scfg.Durability = CheckpointConfig{Dir: lakeDir}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.Clock.Schedule(world.StudyStart().AddDate(0, 0, 17), cancel)
	if _, err := RunStudyContext(ctx, w, scfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v", err)
	}
	lakeHead(t, lakeDir)

	// Resume with the DGA pack dropped: same base world, different
	// scenario section.
	wcfg2 := scenWorldConfig(29)
	wcfg2.Scenario.Families = []string{c2.FamilyWisp}
	w2 := world.Generate(wcfg2)
	scfg2 := ckptStudyConfig(29, 2)
	scfg2.Analysis.Probing = false
	scfg2.Durability = CheckpointConfig{Dir: lakeDir, Resume: true}
	_, err := RunStudyContext(context.Background(), w2, scfg2)
	if err == nil {
		t.Fatal("resume under a different scenario did not fail")
	}
	if !strings.Contains(strings.ToLower(err.Error()), "scenario") {
		t.Fatalf("mismatch error does not name the scenario section: %v", err)
	}
}
