package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"malnet/internal/world"
)

// equivWorldSamples sizes the equivalence worlds: big enough that
// every dataset is populated, small enough that three full runs stay
// quick. Short mode subsamples further — the mechanics under test
// don't depend on feed volume.
func equivWorldSamples() int {
	if testing.Short() {
		return 120
	}
	return 300
}

func equivStudy(t *testing.T, seed int64, workers int) *Study {
	t.Helper()
	wcfg := world.DefaultConfig(seed)
	wcfg.TotalSamples = equivWorldSamples()
	scfg := DefaultStudyConfig(seed)
	scfg.Analysis.ProbeRounds = 6
	scfg.Determinism.Workers = workers
	return RunStudy(world.Generate(wcfg), scfg)
}

// renderDatasets serializes the four datasets the way cmd/malnet
// writes them — one line per row, every field included, map-keyed
// data sorted — so byte comparison is exactly dataset equality.
func renderDatasets(st *Study) string {
	var b strings.Builder

	b.WriteString("== D-Samples ==\n")
	for _, s := range st.Samples {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%d,%t,%t,%t,%s,%d,%d", s.SHA, s.Date.Format(time.RFC3339),
			s.FamilyYARA, s.FamilyAVClass, s.Family, s.Detections, s.P2P, s.Activated, s.LiveDay0,
			s.Disposition, s.C2Retries, s.Faults.Total())
		for _, c := range s.C2s {
			fmt.Fprintf(&b, ",%s/%d/%t/%s", c.Address, c.Attempts, c.Live, c.Signature)
		}
		b.WriteByte('\n')
	}

	b.WriteString("== D-C2s ==\n")
	addrs := make([]string, 0, len(st.C2s))
	for a := range st.C2s {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		r := st.C2s[a]
		fmt.Fprintf(&b, "%s,%v,%s,%d,%s,%s,%t,%s,%t,%d,%t,%d,%t,%s\n",
			r.Address, r.Kind, r.IP, r.Port,
			r.FirstSeen.Format(time.RFC3339), r.LastSeen.Format(time.RFC3339),
			r.EverLive, r.Signature,
			r.Day0Malicious, r.Day0Vendors, r.May7Malicious, r.May7Vendors,
			r.Verified, strings.Join(r.Samples, "|"))
	}

	b.WriteString("== D-Exploits ==\n")
	for _, f := range st.Exploits {
		keys := make([]string, len(f.Vulns))
		for i, v := range f.Vulns {
			keys[i] = v.Key
		}
		fmt.Fprintf(&b, "%s,%s,%d,%s,%s,%s,%d\n", f.SHA256, f.Date.Format(time.RFC3339),
			f.Port, strings.Join(keys, "|"), f.Downloader, f.Loader, len(f.Payload))
	}

	b.WriteString("== D-DDOS ==\n")
	for _, o := range st.DDoS {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%v,%v,%s,%d,%t\n", o.Time.Format(time.RFC3339),
			o.SHA256, o.C2, o.C2IP, o.Method,
			o.Command.Attack, o.Command.Target, o.Command.Port, o.Verified)
	}

	b.WriteString("== D-PC2 ==\n")
	for _, tgt := range st.MergedLiveC2s() {
		marks := make([]byte, len(tgt.Outcomes))
		for i, o := range tgt.Outcomes {
			marks[i] = "0123"[o]
		}
		fmt.Fprintf(&b, "%s,%s\n", tgt.Addr, marks)
	}
	for _, ps := range []*ProbeStudy{st.Probe, st.ProbeGafgyt} {
		if ps != nil {
			fmt.Fprintf(&b, "probes=%d retries=%d\n", ps.ProbesSent, ps.Retries)
		}
	}

	fmt.Fprintf(&b, "rejected=%d filtered=%d\n", st.Rejected, st.FilteredArch)
	return b.String()
}

// TestParallelStudyEquivalence is the executor's contract: the worker
// count is a throughput knob, not a semantic one. Workers=1 is the
// sequential reference path; 2 and 8 must render byte-identical
// datasets from the same seed.
func TestParallelStudyEquivalence(t *testing.T) {
	ref := renderDatasets(equivStudy(t, 11, 1))
	if len(ref) < 200 {
		t.Fatalf("reference render suspiciously small (%d bytes):\n%s", len(ref), ref)
	}
	for _, workers := range []int{2, 8} {
		got := renderDatasets(equivStudy(t, 11, workers))
		if got == ref {
			continue
		}
		refLines := strings.Split(ref, "\n")
		gotLines := strings.Split(got, "\n")
		for i := 0; i < len(refLines) && i < len(gotLines); i++ {
			if refLines[i] != gotLines[i] {
				t.Fatalf("workers=%d diverges from sequential at line %d:\nseq: %s\npar: %s",
					workers, i+1, refLines[i], gotLines[i])
			}
		}
		t.Fatalf("workers=%d render differs in length: %d vs %d lines",
			workers, len(refLines), len(gotLines))
	}
}

// TestSeedDeterminismRegression guards the hash-derived per-sample
// RNG chain (world seed → SampleSpec.Seed → bot/env randomness):
// identical seeds must reproduce the study exactly, different seeds
// must actually change the population.
func TestSeedDeterminismRegression(t *testing.T) {
	a := equivStudy(t, 23, 2)
	b := equivStudy(t, 23, 2)
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("same seed, different D-Samples")
	}
	if !reflect.DeepEqual(a.C2s, b.C2s) {
		t.Fatal("same seed, different D-C2s")
	}
	if !reflect.DeepEqual(a.Exploits, b.Exploits) {
		t.Fatal("same seed, different D-Exploits")
	}
	if !reflect.DeepEqual(a.DDoS, b.DDoS) {
		t.Fatal("same seed, different D-DDOS")
	}

	c := equivStudy(t, 24, 2)
	if len(a.Samples) == len(c.Samples) && a.Rejected == c.Rejected &&
		len(a.C2s) == len(c.C2s) && len(a.DDoS) == len(c.DDoS) {
		t.Fatalf("seeds 23 and 24 produced identical dataset shapes (%d samples, %d c2s); "+
			"per-sample RNG derivation looks seed-independent", len(a.Samples), len(a.C2s))
	}
}

// TestParallelStudyStress oversubscribes the pool (16 workers on a
// small world) so the race detector gets real interleavings to chew
// on, and still demands equivalence with the sequential path.
func TestParallelStudyStress(t *testing.T) {
	ref := renderDatasets(equivStudy(t, 31, 1))
	got := renderDatasets(equivStudy(t, 31, 16))
	if got != ref {
		t.Fatal("workers=16 output differs from sequential")
	}
}

// TestLateAnchorEquivalence: with 26-hour live watches most day
// batches start past their analysis day's midnight, so the merge
// goroutine re-runs their guessed pure stages at the real anchor. The
// re-runs must happen, and workers 1 and 4 must still render the same
// datasets.
func TestLateAnchorEquivalence(t *testing.T) {
	run := func(workers int) string {
		wcfg := world.DefaultConfig(11)
		wcfg.TotalSamples = equivWorldSamples()
		scfg := DefaultStudyConfig(11)
		scfg.Analysis.ProbeRounds = 6
		scfg.Windows.Live = 26 * time.Hour
		scfg.Determinism.Workers = workers
		st := RunStudy(world.Generate(wcfg), scfg)
		counters, _ := st.Obs().Wall.Snapshot()["counters"].(map[string]int64)
		if counters["batch.anchor_reruns"] == 0 {
			t.Fatalf("workers=%d: no batch re-ran at its real anchor", workers)
		}
		return renderDatasets(st)
	}
	if run(1) != run(4) {
		t.Fatal("workers=4 output differs from workers=1 when batches re-run")
	}
}

// TestStudyCancellationLeaksNoGoroutines aborts a study mid-batch and
// checks both that it stops early and that the worker pool is fully
// torn down.
func TestStudyCancellationLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	wcfg := world.DefaultConfig(5)
	wcfg.TotalSamples = equivWorldSamples()
	w := world.Generate(wcfg)
	scfg := DefaultStudyConfig(5)
	scfg.Analysis.ProbeRounds = 4
	scfg.Determinism.Workers = 8

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // abort before the first batch: every dispatch must bail
	st, err := RunStudyContext(ctx, w, scfg)
	if err == nil {
		t.Fatal("cancelled study returned nil error")
	}
	if st == nil {
		t.Fatal("cancelled study returned nil study")
	}
	if got := len(st.Samples); got != 0 {
		t.Fatalf("pre-cancelled study still analyzed %d samples", got)
	}

	// A second run cancelled asynchronously, so dispatch is aborted
	// somewhere mid-study rather than at the gate.
	w2 := world.Generate(wcfg)
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(50 * time.Millisecond)
		cancel2()
	}()
	if _, err := RunStudyContext(ctx2, w2, scfg); err == nil {
		// Only possible when the whole study beat the 50 ms timer,
		// which would make this leg vacuous rather than wrong.
		t.Log("study finished before the asynchronous cancel fired")
	}
	<-done

	// Workers exit via executor.close; give the runtime a moment to
	// reap them before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
		runtime.Gosched()
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestCheckpointFailureStopsLookahead fails the third checkpoint's
// OnCheckpoint while the feeder is pushing batches ahead: the study
// returns that error, holds exactly the batches merged before it (the
// snapshot the failed checkpoint wrote), and leaves no feeder or
// worker goroutine behind.
func TestCheckpointFailureStopsLookahead(t *testing.T) {
	before := runtime.NumGoroutine()

	wcfg := world.DefaultConfig(5)
	wcfg.TotalSamples = equivWorldSamples()
	w := world.Generate(wcfg)
	scfg := DefaultStudyConfig(5)
	scfg.Analysis.ProbeRounds = 4
	scfg.Determinism.Workers = 8
	scfg.Durability.Dir = t.TempDir()
	errPublish := errors.New("publish failed")
	checkpoints := 0
	scfg.Durability.OnCheckpoint = func(int, string) error {
		if checkpoints++; checkpoints == 3 {
			return errPublish
		}
		return nil
	}
	st, err := RunStudyContext(context.Background(), w, scfg)
	if !errors.Is(err, errPublish) {
		t.Fatalf("study error = %v, want the OnCheckpoint error", err)
	}
	if checkpoints != 3 {
		t.Fatalf("OnCheckpoint ran %d times after failing on the third", checkpoints)
	}

	snap, _, err := OpenStudySnapshot(scfg.Durability.Dir)
	if err != nil || snap == nil {
		t.Fatalf("third snapshot: %v, %v", snap, err)
	}
	merged := 0
	for day := world.StudyStart(); day.Before(world.StudyEnd()) && dayIndex(day) <= snap.Day; day = day.AddDate(0, 0, 1) {
		merged += len(w.FeedOn(day))
	}
	if st.processed != merged || snap.Meta.Processed != merged {
		t.Fatalf("study merged %d feed entries, snapshot %d; the first three batches hold %d",
			st.processed, snap.Meta.Processed, merged)
	}
	if !reflect.DeepEqual(st.Samples, snap.Datasets.Samples) {
		t.Fatalf("study holds %d samples, the snapshot of its last merged batch %d",
			len(st.Samples), len(snap.Datasets.Samples))
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
		runtime.Gosched()
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// BenchmarkExecutorWorkers measures executor scaling on the small
// world (the full-scale default world is bench_test.go's
// BenchmarkStudyWorkers at the repo root).
func BenchmarkExecutorWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wcfg := world.DefaultConfig(7)
				wcfg.TotalSamples = 300
				w := world.Generate(wcfg)
				scfg := DefaultStudyConfig(7)
				scfg.Analysis.ProbeRounds = 6
				scfg.Determinism.Workers = workers
				b.StartTimer()
				RunStudy(w, scfg)
			}
		})
	}
}
