package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"malnet/internal/obs"
	"malnet/internal/world"
)

// obsStudy runs a faulted study with the full observability plane
// armed — metrics registry plus JSONL trace journal — and returns the
// study, its deterministic metrics snapshot, and the journal bytes.
func obsStudy(t *testing.T, seed int64, workers int) (*Study, string, string) {
	t.Helper()
	wcfg := world.DefaultConfig(seed)
	wcfg.TotalSamples = equivWorldSamples()
	scfg := Defaults(seed)
	scfg.Analysis.ProbeRounds = 4
	scfg.Determinism.Workers = workers
	scfg.Determinism.Faults = true
	scfg.Determinism.FaultSeed = seed + 1000
	var journal bytes.Buffer
	observer := obs.NewObserver()
	observer.SetJournal(&journal)
	scfg.Observability.Obs = observer
	st := RunStudy(world.Generate(wcfg), scfg)
	if err := observer.Flush(); err != nil {
		t.Fatalf("journal flush: %v", err)
	}
	return st, observer.Root.Registry().Snapshot(), journal.String()
}

// diffContext pinpoints the first differing byte between two strings
// and returns a window around it for the failure message.
func diffContext(a, b string) (int, string, string) {
	at := len(a)
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			at = i
			break
		}
	}
	clamp := func(s string) string {
		lo, hi := at-80, at+80
		if lo < 0 {
			lo = 0
		}
		if hi > len(s) {
			hi = len(s)
		}
		if lo >= hi {
			return ""
		}
		return s[lo:hi]
	}
	return at, clamp(a), clamp(b)
}

// TestObservabilityEquivalence is the observability plane's half of
// the determinism contract: with faults injected and the journal
// armed, the metrics snapshot AND the trace journal are byte-identical
// at Workers=1, 2, and 8 — telemetry is merged in feed order, never
// in completion order.
func TestObservabilityEquivalence(t *testing.T) {
	refSt, refSnap, refJournal := obsStudy(t, 11, 1)
	refRender := renderDatasets(refSt)

	// Non-vacuity: the snapshot must show real pipeline activity and
	// real injected faults, and the journal must hold span trees.
	for _, needle := range []string{
		"counter feed.samples_accepted",
		"counter sandbox.runs",
		"counter probe.attempts",
		"histogram sandbox.events_per_run",
		"counter world.simnet.conns_dialed",
	} {
		if !strings.Contains(refSnap, needle) {
			t.Fatalf("metrics snapshot missing %q:\n%s", needle, refSnap)
		}
	}
	if faultCounterTotal(refSt) == 0 {
		t.Fatal("observed study recorded zero injected faults; the plan is not metered")
	}
	if !strings.Contains(refJournal, `"name":"sample"`) || !strings.Contains(refJournal, `"name":"stage.isolated"`) {
		t.Fatalf("journal missing sample/stage spans (len=%d)", len(refJournal))
	}

	for _, workers := range []int{2, 8} {
		st, snap, journal := obsStudy(t, 11, workers)
		if snap != refSnap {
			at, a, b := diffContext(refSnap, snap)
			t.Fatalf("workers=%d metrics snapshot differs near byte %d:\nseq: %q\npar: %q", workers, at, a, b)
		}
		if journal != refJournal {
			at, a, b := diffContext(refJournal, journal)
			t.Fatalf("workers=%d trace journal differs near byte %d:\nseq: %q\npar: %q", workers, at, a, b)
		}
		if got := renderDatasets(st); got != refRender {
			at, a, b := diffContext(refRender, got)
			t.Fatalf("workers=%d datasets differ under observation near byte %d:\nseq: %q\npar: %q", workers, at, a, b)
		}
	}
}

// faultCounterTotal sums the six fault-class counters across the
// shard-side and world-side registries.
func faultCounterTotal(st *Study) int64 {
	reg := st.Metrics()
	var n int64
	for _, class := range []string{"syn_drop", "segment_drop", "reset", "latency_spike", "blackout", "slow_drip"} {
		n += reg.ReadCounter("simnet.faults." + class)
		n += reg.ReadCounter("world.simnet.faults." + class)
	}
	return n
}

// TestJournalRecordsEveryFault cross-checks the two telemetry shapes:
// every fault the counters saw must appear in the journal as a
// fault.* event carrying a valid virtual timestamp, and vice versa.
func TestJournalRecordsEveryFault(t *testing.T) {
	st, _, journal := obsStudy(t, 11, 4)

	want := faultCounterTotal(st)
	if want == 0 {
		t.Fatal("no faults metered; test is vacuous")
	}

	type line struct {
		T    string `json:"t"`
		Name string `json:"name"`
		At   string `json:"at"`
	}
	var got int64
	for _, raw := range strings.Split(strings.TrimRight(journal, "\n"), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("bad journal line %q: %v", raw, err)
		}
		if l.T != "event" || !strings.HasPrefix(l.Name, "fault.") {
			continue
		}
		got++
		at, err := time.Parse(time.RFC3339Nano, l.At)
		if err != nil {
			t.Fatalf("fault event %q has unparseable virtual timestamp %q: %v", l.Name, l.At, err)
		}
		if y := at.Year(); y < 2000 || y > 2100 {
			t.Fatalf("fault event %q timestamp %v outside any plausible study window", l.Name, at)
		}
	}
	if got != want {
		t.Fatalf("journal holds %d fault events but counters metered %d", got, want)
	}
}
