package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"malnet/internal/checkpoint"
	"malnet/internal/obs"
	"malnet/internal/world"
)

// ckptWorldConfig sizes the resume-equivalence worlds: small enough
// that seven full runs stay quick, big enough that every dataset and
// both probe sweeps are populated. The mechanics under test don't
// depend on feed volume.
func ckptWorldConfig(seed int64) world.Config {
	wcfg := world.DefaultConfig(seed)
	wcfg.TotalSamples = 120
	return wcfg
}

func ckptStudyConfig(seed int64, workers int) StudyConfig {
	scfg := Defaults(seed)
	scfg.Analysis.ProbeRounds = 4
	scfg.Determinism.Workers = workers
	return scfg
}

// studyOutput is everything a study run externalizes: the rendered
// datasets (the five CSVs; every report table and figure is a pure
// function of these), the deterministic metrics snapshot, and the
// trace journal's bytes.
type studyOutput struct {
	datasets, metrics, journal string
}

// runCkptStudy executes one study against a fresh world. journalPath
// is opened (created, or reopened without truncation when resuming)
// and receives the trace. killDay < 0 runs to completion; otherwise a
// context cancel is scheduled on the world clock killDay days into
// the study and the run is expected to fail with context.Canceled.
// tweaks adjust the study config last.
func runCkptStudy(t *testing.T, seed int64, workers int, journalPath, ckptDir string, resume bool, killDay int, tweaks ...func(*StudyConfig)) studyOutput {
	t.Helper()
	w := world.Generate(ckptWorldConfig(seed))
	scfg := ckptStudyConfig(seed, workers)
	scfg.Durability = CheckpointConfig{Dir: ckptDir, Resume: resume}
	for _, tweak := range tweaks {
		tweak(&scfg)
	}

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

// TestCheckpointResumeEquivalence is the durability contract: a study
// killed mid-run and resumed from its newest checkpoint produces
// byte-identical datasets, metrics, and journal to one that was never
// interrupted — at several worker counts and kill points. Day 3
// typically precedes the first checkpoint (resume-from-nothing must
// equal a fresh run); days 17 and 29 land mid-study with real state
// to restore.
func TestCheckpointResumeEquivalence(t *testing.T) {
	const seed = 11
	base := t.TempDir()
	ref := runCkptStudy(t, seed, 1, filepath.Join(base, "ref.jsonl"), "", false, -1)
	if len(ref.datasets) < 200 {
		t.Fatalf("reference render suspiciously small (%d bytes):\n%s", len(ref.datasets), ref.datasets)
	}

	for _, tc := range []struct {
		workers, killDay int
	}{
		{1, 3},
		{2, 17},
		{8, 29},
	} {
		ckptDir := filepath.Join(base, "ckpt")
		if err := os.RemoveAll(ckptDir); err != nil {
			t.Fatal(err)
		}
		journal := filepath.Join(base, "run.jsonl")
		if err := os.RemoveAll(journal); err != nil {
			t.Fatal(err)
		}

		runCkptStudy(t, seed, tc.workers, journal, ckptDir, false, tc.killDay)
		got := runCkptStudy(t, seed, tc.workers, journal, ckptDir, true, -1)

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
					t.Fatalf("workers=%d killDay=%d: resumed %s diverges at line %d:\nresumed:  %s\nstraight: %s",
						tc.workers, tc.killDay, cmp.what, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("workers=%d killDay=%d: resumed %s differs in length: %d vs %d lines",
				tc.workers, tc.killDay, cmp.what, len(gl), len(wl))
		}
	}
}

// TestCheckpointResumeEquivalenceFaulted covers what a clean network
// cannot: the connection counters. With a fault plan installed, each
// dial's faults are drawn from its (dialer, endpoint, sequence)
// coordinates, so a resume that lost the checkpointed counters would
// draw a different schedule. Killed before the probe sweep and in the
// middle of it, at workers 1 and 8, the resumed study must match an
// uninterrupted one byte for byte: datasets, metrics, journal, and
// every checkpoint it writes after the resume (compared by SHA-256
// footer, so workers 1 and 8 also write identical snapshots). The
// sweep runs for 15 days from ProbeStart, so ProbeStart+7 is mid-sweep.
func TestCheckpointResumeEquivalenceFaulted(t *testing.T) {
	const seed = 11
	base := t.TempDir()
	faulted := func(sums map[int]string) func(*StudyConfig) {
		return func(scfg *StudyConfig) {
			scfg.Determinism.Faults = true
			scfg.Determinism.FaultSeed = seed + 1000
			if sums == nil {
				return
			}
			scfg.Durability.OnCheckpoint = func(day int, path string) error {
				f, err := checkpoint.ReadFile(path)
				if err != nil {
					return err
				}
				sums[day] = f.SumHex()
				return nil
			}
		}
	}
	refSums := map[int]string{}
	ref := runCkptStudy(t, seed, 1, filepath.Join(base, "ref.jsonl"), filepath.Join(base, "ref-ckpt"), false, -1, faulted(refSums))

	probeDay := dayIndex(world.Generate(ckptWorldConfig(seed)).ProbeStart)
	type killCase struct{ workers, killDay int }
	cases := []killCase{{1, probeDay - 30}, {8, probeDay + 7}}
	if !testing.Short() {
		// A faulted study costs about three clean ones; -short keeps
		// one kill point per worker count.
		cases = append(cases, killCase{8, probeDay - 30}, killCase{1, probeDay + 7})
	}
	for _, tc := range cases {
		ckptDir := filepath.Join(base, "ckpt")
		journal := filepath.Join(base, "run.jsonl")
		for _, p := range []string{ckptDir, journal} {
			if err := os.RemoveAll(p); err != nil {
				t.Fatal(err)
			}
		}
		runCkptStudy(t, seed, tc.workers, journal, ckptDir, false, tc.killDay, faulted(nil))
		snap, _, err := checkpoint.Latest(ckptDir)
		if err != nil || snap == nil {
			t.Fatalf("killDay=%d left no checkpoint: %v", tc.killDay, err)
		}
		if (snap.Day < probeDay) != (tc.killDay < probeDay) {
			t.Fatalf("killDay=%d resumes from day %d, on the wrong side of the sweep's start (day %d)", tc.killDay, snap.Day, probeDay)
		}

		sums := map[int]string{}
		got := runCkptStudy(t, seed, tc.workers, journal, ckptDir, true, -1, faulted(sums))
		for _, cmp := range []struct {
			what, got, want string
		}{
			{"datasets", got.datasets, ref.datasets},
			{"metrics", got.metrics, ref.metrics},
			{"journal", got.journal, ref.journal},
		} {
			if cmp.got != cmp.want {
				t.Fatalf("workers=%d killDay=%d: resumed %s differ from the uninterrupted run", tc.workers, tc.killDay, cmp.what)
			}
		}
		if len(sums) == 0 {
			t.Fatalf("workers=%d killDay=%d: no checkpoint written after the resume", tc.workers, tc.killDay)
		}
		for day, sum := range sums {
			if day <= snap.Day {
				t.Fatalf("workers=%d killDay=%d: resumed run rewrote day %d, before its resume point %d", tc.workers, tc.killDay, day, snap.Day)
			}
			if sum != refSums[day] {
				t.Fatalf("workers=%d killDay=%d: day %d checkpoint %s, uninterrupted run wrote %s", tc.workers, tc.killDay, day, sum, refSums[day])
			}
		}
		for day := range refSums {
			if _, ok := sums[day]; day > snap.Day && !ok {
				t.Fatalf("workers=%d killDay=%d: resumed run skipped day %d's checkpoint", tc.workers, tc.killDay, day)
			}
		}
	}
}

// TestCheckpointResumeRefusesJSONConnSeq: a snapshot whose connection
// counters are the old JSON "conn-seq" section, with no binary table,
// cannot resume a study; the error names the missing section.
func TestCheckpointResumeRefusesJSONConnSeq(t *testing.T) {
	const seed = 11
	base := t.TempDir()
	ckptDir := filepath.Join(base, "ckpt")
	journal := filepath.Join(base, "run.jsonl")
	runCkptStudy(t, seed, 2, journal, ckptDir, false, 17)
	snap, _, err := checkpoint.Latest(ckptDir)
	if err != nil || snap == nil {
		t.Fatalf("killed run left no checkpoint: %v", err)
	}
	old := &checkpoint.File{}
	for _, s := range snap.Sections {
		if s.Name != connSeqSection {
			old.Add(s.Name, s.Data)
		}
	}
	old.Add("conn-seq", []byte(`[{"Src":"10.99.0.2","Dst":{"IP":"10.0.0.1","Port":23},"Seq":1}]`))
	if err := checkpoint.WriteFile(snap.Path, old); err != nil {
		t.Fatal(err)
	}

	w := world.Generate(ckptWorldConfig(seed))
	scfg := ckptStudyConfig(seed, 2)
	scfg.Durability = CheckpointConfig{Dir: ckptDir, Resume: true}
	jf, err := os.OpenFile(journal, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	scfg.Observability.Obs = obs.NewObserver()
	scfg.Observability.Obs.SetJournal(jf)
	_, err = RunStudyContext(context.Background(), w, scfg)
	if err == nil || !strings.Contains(err.Error(), `section "conn-seq.bin" missing`) {
		t.Fatalf("resume from a JSON conn-seq snapshot: got %v, want the missing conn-seq.bin section named", err)
	}
}

// TestResumeSkipsCorruptCheckpoint: a corrupt snapshot shadowing the
// newest valid one must not strand the run — resume falls back to
// the valid snapshot, produces output byte-identical to an
// uninterrupted study, and logs the fallback on the
// checkpoint.skipped_corrupt counter (which exists only when the
// fallback fired, so clean runs stay byte-identical).
func TestResumeSkipsCorruptCheckpoint(t *testing.T) {
	const seed = 11
	base := t.TempDir()
	ref := runCkptStudy(t, seed, 1, filepath.Join(base, "ref.jsonl"), "", false, -1)

	ckptDir := filepath.Join(base, "ckpt")
	journal := filepath.Join(base, "run.jsonl")
	runCkptStudy(t, seed, 2, journal, ckptDir, false, 17)

	// Shadow the kill point's snapshot with a newer, truncated one —
	// the shape a crash mid-write leaves on a filesystem without
	// atomic rename.
	snap, _, err := checkpoint.Latest(ckptDir)
	if err != nil || snap == nil {
		t.Fatalf("killed run left no checkpoint: %v", err)
	}
	enc, err := os.ReadFile(snap.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpoint.DayPath(ckptDir, snap.Day+40), enc[:len(enc)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got := runCkptStudy(t, seed, 2, journal, ckptDir, true, -1)
	if got.datasets != ref.datasets {
		t.Fatal("resume past a corrupt snapshot diverged from the uninterrupted run")
	}
	const marker = "counter checkpoint.skipped_corrupt 1\n"
	if !strings.Contains(got.metrics, marker) {
		t.Fatalf("metrics snapshot does not log the skipped snapshot:\n%s", got.metrics)
	}
	if strings.Replace(got.metrics, marker, "", 1) != ref.metrics {
		t.Fatal("resumed metrics differ from reference beyond the skipped_corrupt counter")
	}
}

// TestCheckpointFingerprintMismatch asserts the refusal path: a
// snapshot written by one configuration must not silently seed a
// differently configured run, and the error must name the offending
// fields.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	ckptDir := t.TempDir()
	w := world.Generate(ckptWorldConfig(7))
	scfg := ckptStudyConfig(7, 2)
	scfg.Analysis.Probing = false
	scfg.Durability = CheckpointConfig{Dir: ckptDir}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.Clock.Schedule(world.StudyStart().AddDate(0, 0, 17), cancel)
	if _, err := RunStudyContext(ctx, w, scfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v", err)
	}
	if snap, _, _ := checkpoint.Latest(ckptDir); snap == nil {
		t.Fatal("killed run left no checkpoint to test against")
	}

	w2 := world.Generate(ckptWorldConfig(7))
	scfg2 := ckptStudyConfig(7, 2)
	scfg2.Analysis.Probing = false
	scfg2.Determinism.Seed = 8
	scfg2.Analysis.MinEngines = 7
	scfg2.Durability = CheckpointConfig{Dir: ckptDir, Resume: true}
	_, err := RunStudyContext(context.Background(), w2, scfg2)
	if err == nil {
		t.Fatal("resume under a different config did not fail")
	}
	for _, field := range []string{"seed", "min_engines"} {
		if !strings.Contains(err.Error(), field) {
			t.Fatalf("mismatch error does not name %q: %v", field, err)
		}
	}
}
