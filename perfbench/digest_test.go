package main

import (
	"strings"
	"testing"
)

func TestDigestChecks(t *testing.T) {
	if got := disagreements([]string{"aa", "aa", "aa"}); len(got) != 0 {
		t.Errorf("equal digests: %v", got)
	}
	if got := disagreements([]string{"aa", "bb", "aa"}); len(got) != 1 {
		t.Errorf("one differing digest: got %v", got)
	}
	p := pin{Seed: 42, Digest: "aa"}
	if got := pinProblem(p, 42, "aa"); got != "" {
		t.Errorf("pinned digest rendered: %q", got)
	}
	if got := pinProblem(p, 42, "bb"); got == "" {
		t.Error("a changed digest at the pinned seed passed")
	}
	if got := pinProblem(p, 7, "bb"); got != "" {
		t.Errorf("seed 7 is not pinned, got %q", got)
	}
}

// TestPinnedDigestIsCurrent runs the study of each workload at the
// pinned seed: both must render the digest pinned.json holds.
func TestPinnedDigestIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the -short study twice")
	}
	for _, wl := range workloads {
		r, err := runStudy(wl, pinned.Seed, 2, t.TempDir(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.digest != pinned.Digest {
			t.Errorf("%s: seed %d renders %s, pinned.json pins %s", wl.name, pinned.Seed, r.digest, pinned.Digest)
		}
	}
}

func TestCheckerJudgesResponses(t *testing.T) {
	arr := []arrival{{endpoint: "samples", path: "/v1/samples?limit=1"}}
	good := outcome{status: 200, gen: 1, mounted: 1, size: 10, sum: 7}
	stale, changed, status := good, good, good
	stale.mounted = 2
	changed.sum = 8
	status.status = 500
	chk := newChecker()
	if n := chk.check(arr, []outcome{good}); n != 0 {
		t.Fatalf("a good response failed: %v", chk.notes)
	}
	for _, c := range []struct {
		name  string
		o     outcome
		wrong int
	}{{"stale generation", stale, 1}, {"changed body", changed, 2}, {"status 500", status, 2}} {
		if n := chk.check(arr, []outcome{c.o}); n != 1 || chk.wrong != c.wrong {
			t.Errorf("%s: %d failed, %d wrong; want 1 failed, %d wrong", c.name, n, chk.wrong, c.wrong)
		}
	}
}

func TestGenerationOf(t *testing.T) {
	gen := strings.Repeat("ab", 32)
	if got := string(generationOf([]byte(`{"generation":"` + gen + `","day":3}`))); got != gen {
		t.Errorf("generationOf = %q, want %q", got, gen)
	}
	if got := generationOf([]byte(`{"error":"no such C2 endpoint"}`)); got != nil {
		t.Errorf("an error body named generation %q", got)
	}
}
