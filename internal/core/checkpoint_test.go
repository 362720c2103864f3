package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"malnet/internal/checkpoint"
	"malnet/internal/lake"
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

// runCkptStudy executes one study against a fresh world, durable in
// the run lake at lakeDir unless lakeDir is empty. journalPath is
// opened (created, or reopened without truncation when resuming) and
// receives the trace. killDay < 0 runs to completion; otherwise a
// context cancel is scheduled on the world clock killDay days into
// the study and the run is expected to fail with context.Canceled.
// tweaks adjust the study config last.
func runCkptStudy(t *testing.T, seed int64, workers int, journalPath, lakeDir string, resume bool, killDay int, tweaks ...func(*StudyConfig)) studyOutput {
	t.Helper()
	w := world.Generate(ckptWorldConfig(seed))
	scfg := ckptStudyConfig(seed, workers)
	scfg.Durability = CheckpointConfig{Dir: lakeDir, Resume: resume}
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

// lakeHead returns the head commit of branch "main" in the study lake
// at dir and the path of its object, failing the test when the branch
// has no commit.
func lakeHead(t *testing.T, dir string) (*lake.Commit, string) {
	t.Helper()
	lk, err := lake.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	head, err := lk.Head("main")
	if err != nil || head == nil {
		t.Fatalf("lake %s has no commit on main: head=%v err=%v", dir, head, err)
	}
	return head, lk.ObjectPath(head.Snapshot)
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
		lakeDir := filepath.Join(base, "lake")
		if err := os.RemoveAll(lakeDir); err != nil {
			t.Fatal(err)
		}
		journal := filepath.Join(base, "run.jsonl")
		if err := os.RemoveAll(journal); err != nil {
			t.Fatal(err)
		}

		runCkptStudy(t, seed, tc.workers, journal, lakeDir, false, tc.killDay)
		got := runCkptStudy(t, seed, tc.workers, journal, lakeDir, true, -1)

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
	ref := runCkptStudy(t, seed, 1, filepath.Join(base, "ref.jsonl"), filepath.Join(base, "ref-lake"), false, -1, faulted(refSums))

	probeDay := dayIndex(world.Generate(ckptWorldConfig(seed)).ProbeStart)
	type killCase struct{ workers, killDay int }
	cases := []killCase{{1, probeDay - 30}, {8, probeDay + 7}}
	if !testing.Short() {
		// A faulted study costs about three clean ones; -short keeps
		// one kill point per worker count.
		cases = append(cases, killCase{8, probeDay - 30}, killCase{1, probeDay + 7})
	}
	for _, tc := range cases {
		lakeDir := filepath.Join(base, "lake")
		journal := filepath.Join(base, "run.jsonl")
		for _, p := range []string{lakeDir, journal} {
			if err := os.RemoveAll(p); err != nil {
				t.Fatal(err)
			}
		}
		runCkptStudy(t, seed, tc.workers, journal, lakeDir, false, tc.killDay, faulted(nil))
		snap, _ := lakeHead(t, lakeDir)
		if (snap.Day < probeDay) != (tc.killDay < probeDay) {
			t.Fatalf("killDay=%d resumes from day %d, on the wrong side of the sweep's start (day %d)", tc.killDay, snap.Day, probeDay)
		}

		sums := map[int]string{}
		got := runCkptStudy(t, seed, tc.workers, journal, lakeDir, true, -1, faulted(sums))
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

// resumeFromOlderSnapshot kills a study at day 17, rewrites each
// section of its newest snapshot through older (the shape an older
// build wrote), commits the rewritten snapshot as the new branch head,
// and resumes from it. It returns the rewritten object's path and the
// resume's error.
func resumeFromOlderSnapshot(t *testing.T, older func(checkpoint.Section) checkpoint.Section) (string, error) {
	t.Helper()
	const seed = 11
	base := t.TempDir()
	lakeDir := filepath.Join(base, "lake")
	journal := filepath.Join(base, "run.jsonl")
	runCkptStudy(t, seed, 2, journal, lakeDir, false, 17)
	head, path := lakeHead(t, lakeDir)
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := &checkpoint.File{}
	for _, s := range snap.Sections {
		s = older(s)
		old.Add(s.Name, s.Data)
	}
	lk, err := lake.Open(lakeDir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := lk.Commit(head.Branch, head.Run, head.Seed, head.Day, checkpoint.Encode(old))
	if err != nil {
		t.Fatal(err)
	}

	w := world.Generate(ckptWorldConfig(seed))
	scfg := ckptStudyConfig(seed, 2)
	scfg.Durability = CheckpointConfig{Dir: lakeDir, Resume: true}
	jf, err := os.OpenFile(journal, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	scfg.Observability.Obs = obs.NewObserver()
	scfg.Observability.Obs.SetJournal(jf)
	_, err = RunStudyContext(context.Background(), w, scfg)
	return lk.ObjectPath(c.Snapshot), err
}

// TestCheckpointResumeRefusesJSONConnSeq: a snapshot whose connection
// counters are the old JSON "conn-seq" section, with no binary table,
// cannot resume a study; the error names the missing section.
func TestCheckpointResumeRefusesJSONConnSeq(t *testing.T) {
	_, err := resumeFromOlderSnapshot(t, func(s checkpoint.Section) checkpoint.Section {
		if s.Name == connSeqSection {
			return checkpoint.Section{Name: "conn-seq", Data: []byte(`[{"Src":"10.99.0.2","Dst":{"IP":"10.0.0.1","Port":23},"Seq":1}]`)}
		}
		return s
	})
	if err == nil || !strings.Contains(err.Error(), `section "conn-seq.bin" missing`) {
		t.Fatalf("resume from a JSON conn-seq snapshot: got %v, want the missing conn-seq.bin section named", err)
	}
}

// TestCheckpointResumeRefusesJSONDatasets: a snapshot whose datasets
// are the old JSON "datasets" section, with no datasets.bin, can
// neither resume a study nor be opened for serving; both errors name
// the missing section.
func TestCheckpointResumeRefusesJSONDatasets(t *testing.T) {
	path, err := resumeFromOlderSnapshot(t, func(s checkpoint.Section) checkpoint.Section {
		if s.Name != datasetsSection {
			return s
		}
		ds, err := decodeDatasets(s.Data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return checkpoint.Section{Name: "datasets", Data: b}
	})
	const want = `section "datasets.bin" missing`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume from a JSON datasets snapshot: got %v, want the missing datasets.bin section named", err)
	}
	if _, _, err := OpenSnapshotAt(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("opening a JSON datasets snapshot: got %v, want the missing datasets.bin section named", err)
	}
}

// TestCheckpointResumeWalksBackPastCorruptHead: a branch head whose
// object is truncated must not strand the run. Resume walks back to
// the head's parent, produces datasets, metrics and journal
// byte-identical to an uninterrupted study, and logs the walk-back on
// the checkpoint.skipped_corrupt counter (which exists only when the
// walk-back fired, so clean runs stay byte-identical). Re-running the
// lost day commits the same snapshot again, which rewrites the
// damaged object.
func TestCheckpointResumeWalksBackPastCorruptHead(t *testing.T) {
	const seed = 11
	base := t.TempDir()
	ref := runCkptStudy(t, seed, 1, filepath.Join(base, "ref.jsonl"), "", false, -1)

	lakeDir := filepath.Join(base, "lake")
	journal := filepath.Join(base, "run.jsonl")
	runCkptStudy(t, seed, 2, journal, lakeDir, false, 90)

	// Truncate the kill point's snapshot: the shape a crash mid-write
	// leaves on a filesystem without atomic rename. Day 90 is past the
	// second checkpoint, so the head has a parent to walk back to.
	head, path := lakeHead(t, lakeDir)
	if head.Parent == 0 {
		t.Fatalf("the killed run's head (day %d) has no parent to walk back to", head.Day)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	var rerun []int
	got := runCkptStudy(t, seed, 2, journal, lakeDir, true, -1, func(scfg *StudyConfig) {
		scfg.Durability.OnCheckpoint = func(day int, _ string) error {
			rerun = append(rerun, day)
			return nil
		}
	})
	if len(rerun) == 0 || rerun[0] != head.Day {
		t.Fatalf("the resumed run committed days %v, want the damaged head's day %d first: a damaged head costs one day", rerun, head.Day)
	}
	if got.datasets != ref.datasets {
		t.Fatal("resume past a corrupt head diverged from the uninterrupted run")
	}
	if got.journal != ref.journal {
		t.Fatal("resume past a corrupt head journaled differently from the uninterrupted run")
	}
	const marker = "counter checkpoint.skipped_corrupt 1\n"
	if !strings.Contains(got.metrics, marker) {
		t.Fatalf("metrics snapshot does not log the skipped snapshot:\n%s", got.metrics)
	}
	if strings.Replace(got.metrics, marker, "", 1) != ref.metrics {
		t.Fatal("resumed metrics differ from reference beyond the skipped_corrupt counter")
	}
	if f, err := checkpoint.ReadFile(path); err != nil || f.SumHex() != head.Snapshot {
		t.Fatalf("the damaged head object after the re-run: err=%v, want it rewritten as %.12s", err, head.Snapshot)
	}
}

// TestCheckpointResumeRefusesBadHistograms: the footer is a checksum,
// not a signature, so a lake can hold an object whose metric dumps
// carry a histogram with the wrong number of bucket counts for its
// bounds, one the world plane cannot merge into under "world.", or
// one of the study's own with bounds its sandbox runs do not observe
// it with. Such an object neither resumes a study nor opens for
// serving, and both errors name the histogram.
func TestCheckpointResumeRefusesBadHistograms(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sections map[string]string
		hist     string
	}{
		{"bucket count", map[string]string{
			"metrics": `{"hists":{"x":{"bounds":[1,2],"counts":[1]}}}`,
		}, `"x"`},
		{"world merge", map[string]string{
			"metrics":       `{"hists":{"world.x":{"bounds":[1],"counts":[0,1]}}}`,
			"world-metrics": `{"hists":{"x":{"bounds":[1,2],"counts":[0,0,1]}}}`,
		}, `"world.x"`},
		{"foreign bounds", map[string]string{
			"metrics": `{"hists":{"sandbox.events_per_run":{"bounds":[1],"counts":[0,1]}}}`,
		}, `"sandbox.events_per_run"`},
	} {
		path, err := resumeFromOlderSnapshot(t, func(s checkpoint.Section) checkpoint.Section {
			if dump, ok := tc.sections[s.Name]; ok {
				s.Data = []byte(dump)
			}
			return s
		})
		if err == nil || !strings.Contains(err.Error(), tc.hist) {
			t.Fatalf("%s: resume: got %v, want an error naming histogram %s", tc.name, err, tc.hist)
		}
		if _, _, err := OpenSnapshotAt(path); err == nil || !strings.Contains(err.Error(), tc.hist) {
			t.Fatalf("%s: opening the object: got %v, want an error naming histogram %s", tc.name, err, tc.hist)
		}
	}
}

// TestDurableStudyRefusesNonLakeDir: a durable study pointed at a
// directory that holds something other than a run lake, here a
// checkpoint file an older build wrote, fails with an error naming
// the directory, resumed or not, and leaves the directory's listing
// as it was.
func TestDurableStudyRefusesNonLakeDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "day-354.ckpt"), []byte("MALCKPT"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	before := listing()
	for _, resume := range []bool{true, false} {
		scfg := ckptStudyConfig(7, 1)
		scfg.Durability = CheckpointConfig{Dir: dir, Resume: resume}
		_, err := RunStudyContext(context.Background(), world.Generate(ckptWorldConfig(7)), scfg)
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Fatalf("resume=%v: got %v, want an error naming %s", resume, err, dir)
		}
		if after := listing(); !slices.Equal(after, before) {
			t.Fatalf("resume=%v: the refused directory now lists %v, want %v", resume, after, before)
		}
	}
}

// TestCheckpointFingerprintMismatch asserts the refusal path: a
// snapshot written by one configuration must not silently seed a
// differently configured run, and the error must name the offending
// fields.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	lakeDir := t.TempDir()
	w := world.Generate(ckptWorldConfig(7))
	scfg := ckptStudyConfig(7, 2)
	scfg.Analysis.Probing = false
	scfg.Durability = CheckpointConfig{Dir: lakeDir}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.Clock.Schedule(world.StudyStart().AddDate(0, 0, 17), cancel)
	if _, err := RunStudyContext(ctx, w, scfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v", err)
	}
	lakeHead(t, lakeDir)

	w2 := world.Generate(ckptWorldConfig(7))
	scfg2 := ckptStudyConfig(7, 2)
	scfg2.Analysis.Probing = false
	scfg2.Determinism.Seed = 8
	scfg2.Analysis.MinEngines = 7
	scfg2.Durability = CheckpointConfig{Dir: lakeDir, Resume: true}
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

// TestCheckpointWallStages: a durable -short study times every
// checkpoint on the Wall in two stages, the write (sections, encode,
// lake commit) and the publish (OnCheckpoint), and /metrics renders
// each with one count per checkpoint written. The Wall stays out of
// the deterministic registry.
func TestCheckpointWallStages(t *testing.T) {
	wcfg := world.DefaultConfig(42)
	wcfg.TotalSamples = 150
	scfg := Defaults(42)
	scfg.Analysis.ProbeRounds = 12
	scfg.Observability.Obs = obs.NewObserver()
	written := 0
	scfg.Durability = CheckpointConfig{Dir: t.TempDir(), OnCheckpoint: func(int, string) error {
		written++
		return nil
	}}
	st, err := RunStudyContext(context.Background(), world.Generate(wcfg), scfg)
	if err != nil {
		t.Fatal(err)
	}
	if written == 0 {
		t.Fatal("the durable study wrote no checkpoint")
	}
	var prom bytes.Buffer
	if err := st.Obs().Wall.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"malnet_checkpoint_write_seconds", "malnet_checkpoint_publish_seconds"} {
		if !strings.Contains(prom.String(), "\n"+m+"_sum ") || !strings.Contains(prom.String(), fmt.Sprintf("\n%s_count %d\n", m, written)) {
			t.Fatalf("/metrics lacks %s_sum, or its _count is not the %d checkpoints written:\n%s", m, written, prom.String())
		}
	}
	if snap := st.Metrics().Snapshot(); strings.Contains(snap, "checkpoint.") {
		t.Fatalf("a checkpoint Wall stage reached the deterministic snapshot:\n%s", snap)
	}
}

// TestStudyAdvanceWallStage: a study times the world clock's runs
// between day batches, and its drain to study end, as the Wall stage
// batch.advance. A clean -short study merges every batch at its own
// anchor after the clock ran up to it, so /metrics counts one advance
// per batch and one drain. The Wall stays out of the deterministic
// registry.
func TestStudyAdvanceWallStage(t *testing.T) {
	st := finishedShortStudy()
	var prom bytes.Buffer
	if err := st.Obs().Wall.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	want := len(st.planBatches(-1)) + 1
	if !strings.Contains(prom.String(), "\nmalnet_batch_advance_seconds_sum ") ||
		!strings.Contains(prom.String(), fmt.Sprintf("\nmalnet_batch_advance_seconds_count %d\n", want)) {
		t.Fatalf("/metrics lacks malnet_batch_advance_seconds_sum, or its _count is not %d:\n%s", want, prom.String())
	}
	if snap := st.Metrics().Snapshot(); strings.Contains(snap, "advance") {
		t.Fatalf("the batch.advance Wall stage reached the deterministic snapshot:\n%s", snap)
	}
}

// FuzzOpenSnapshot: no lake object panics the reader malnetd mounts
// it with. The fuzzer mutates a real object's meta, metrics and
// world-metrics sections, and each input is re-sealed with
// checkpoint.Encode, so the mutations pass the footer and reach the
// JSON decoders and the registry restore and merge behind it. Beside
// the study's own sections, the seeds hold the two dumps that once
// panicked the restore and the merge. Whatever opens must also render.
// The input is opened from memory, with OpenSnapshotAt's decoder: a
// file rewritten per input would make the fuzzer wait on the disk.
func FuzzOpenSnapshot(f *testing.F) {
	st := finishedShortStudy()
	st.Cfg.Durability.Dir = f.TempDir()
	if err := st.saveCheckpoint(dayIndex(world.StudyEnd())); err != nil {
		f.Fatal(err)
	}
	real, err := checkpoint.ReadFile(headObject(f, st))
	if err != nil {
		f.Fatal(err)
	}
	section := func(name string) []byte {
		b, found := real.Section(name)
		if !found {
			f.Fatalf("the study's snapshot has no %q section", name)
		}
		return b
	}
	meta, metrics, worldMetrics := section("meta"), section("metrics"), section("world-metrics")
	f.Add(meta, metrics, worldMetrics)
	f.Add(meta, []byte(`{"hists":{"x":{"bounds":[1,2],"counts":[1]}}}`), worldMetrics)
	f.Add(meta, []byte(`{"hists":{"world.x":{"bounds":[1],"counts":[0,1]}}}`), []byte(`{"hists":{"x":{"bounds":[1,2],"counts":[0,0,1]}}}`))
	f.Add([]byte(`{"day":-1}`), []byte(`{}`), []byte(`null`))
	f.Fuzz(func(t *testing.T, meta, metrics, worldMetrics []byte) {
		file := &checkpoint.File{}
		for _, s := range real.Sections {
			switch s.Name {
			case "meta":
				s.Data = meta
			case "metrics":
				s.Data = metrics
			case "world-metrics":
				s.Data = worldMetrics
			}
			file.Add(s.Name, s.Data)
		}
		sealed, err := checkpoint.Decode(checkpoint.Encode(file))
		if err != nil {
			t.Fatal(err)
		}
		if _, reg, err := openSnapshot(sealed); err == nil {
			reg.Snapshot()
		}
	})
}
