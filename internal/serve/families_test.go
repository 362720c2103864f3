package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"

	"malnet/internal/c2"
	"malnet/internal/c2/spec"
	"malnet/internal/core"
	"malnet/internal/obs"
	"malnet/internal/world"
)

// scenarioCheckpointDir runs one scenario-packed fixture study (base
// feed plus the wisp relay mesh and sora DGA packs) to completion,
// commits its final checkpoint into a lake and returns the lake's
// directory — the end of the study → checkpoint → lake → malnetd
// chain.
func scenarioCheckpointDir(t *testing.T) string {
	t.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if d := fixDirs[-1]; d != "" {
		return d
	}
	ckpt := filepath.Join(fixtureBase, "scenario", "ckpt")
	wcfg := world.DefaultConfig(fixtureSeed)
	wcfg.TotalSamples = fixtureSamples
	wcfg.Scenario.Families = []string{c2.FamilyWisp, c2.FamilySora}
	wcfg.Scenario.Defaults()
	scfg := core.Defaults(fixtureSeed)
	scfg.Analysis.ProbeRounds = 4
	scfg.Determinism.Workers = 2
	scfg.Durability = core.CheckpointConfig{Dir: ckpt}
	if _, err := core.RunStudyContext(context.Background(), world.Generate(wcfg), scfg); err != nil {
		t.Fatalf("scenario fixture study failed: %v", err)
	}
	dir := filepath.Join(fixtureBase, "scenario", "lake")
	commitLatest(t, ckpt, dir)
	fixDirs[-1] = dir
	return dir
}

// TestServeFamilies covers GET /v1/families against a scenario-packed
// snapshot: every registered spec appears with its protocol shape and
// attack vocabulary, the pack families carry their topologies and
// nonzero dataset counts, and unknown parameters 400.
func TestServeFamilies(t *testing.T) {
	srv, err := New(scenarioCheckpointDir(t), obs.NewWall())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var resp struct {
		Generation string       `json:"generation"`
		Day        int          `json:"day"`
		Total      int          `json:"total"`
		Families   []familyInfo `json:"families"`
	}
	getOK(t, ts, "/v1/families", &resp)
	if len(resp.Generation) != 64 {
		t.Fatalf("generation is not a SHA-256 hex string: %q", resp.Generation)
	}
	if resp.Total != len(resp.Families) {
		t.Fatalf("total %d but %d rows", resp.Total, len(resp.Families))
	}
	if !sort.SliceIsSorted(resp.Families, func(i, j int) bool {
		return resp.Families[i].Family < resp.Families[j].Family
	}) {
		t.Fatal("rows not sorted by family")
	}

	rows := map[string]familyInfo{}
	for _, f := range resp.Families {
		rows[f.Family] = f
	}
	// Every registered spec must have a row mirroring it.
	for _, p := range c2.Protocols() {
		ps := p.Spec()
		row, ok := rows[ps.Name]
		if !ok {
			t.Fatalf("registered family %s missing from /v1/families", ps.Name)
		}
		if !row.Registered || row.Transport != ps.Transport || row.Topology != ps.Topology {
			t.Fatalf("row for %s does not mirror its spec: %+v", ps.Name, row)
		}
		if row.Duty != ps.Duty {
			t.Fatalf("row for %s has duty %+v, want %+v", ps.Name, row.Duty, ps.Duty)
		}
	}
	// The base feed and both packs left samples behind.
	for _, fam := range []string{c2.FamilyMirai, c2.FamilyWisp, c2.FamilySora} {
		if rows[fam].Samples == 0 {
			t.Fatalf("family %s has zero dataset samples", fam)
		}
	}
	// The pack families advertise their scenario topologies and
	// attack vocabularies.
	if got := rows[c2.FamilyWisp].Topology; got != spec.TopologyP2PRelay {
		t.Fatalf("wisp topology %q, want %q", got, spec.TopologyP2PRelay)
	}
	if got := rows[c2.FamilySora].Topology; got != spec.TopologyDGA {
		t.Fatalf("sora topology %q, want %q", got, spec.TopologyDGA)
	}
	for _, fam := range []string{c2.FamilyMirai, c2.FamilyWisp, c2.FamilySora} {
		if len(rows[fam].Attacks) == 0 {
			t.Fatalf("family %s has no attack vocabulary", fam)
		}
	}
	// P2P families without a command codec list none.
	if len(rows[c2.FamilyMozi].Attacks) != 0 {
		t.Fatalf("mozi should have no attack vocabulary, got %v", rows[c2.FamilyMozi].Attacks)
	}

	// Unknown parameters 400.
	if status, body := get(t, ts, "/v1/families?bogus=1"); status != http.StatusBadRequest {
		t.Fatalf("GET /v1/families?bogus=1: status %d, want 400: %s", status, body)
	}
}
