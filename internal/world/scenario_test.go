package world

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"malnet/internal/c2"
)

func scenarioTestConfig(seed int64, families ...string) Config {
	cfg := DefaultConfig(seed)
	cfg.TotalSamples = 150
	cfg.Scenario.Families = families
	cfg.Scenario.Defaults()
	return cfg
}

// TestScenarioBaseWorldUnchanged is the pack-generation contract:
// enabling packs appends to the population without perturbing one
// byte of the base world — same binaries, same C2s, same attack-plan
// prefix.
func TestScenarioBaseWorldUnchanged(t *testing.T) {
	base := Generate(scenarioTestConfig(7))
	packed := Generate(scenarioTestConfig(7, c2.FamilyWisp, c2.FamilySora))

	if len(packed.Samples) <= len(base.Samples) {
		t.Fatalf("packs added no samples: %d vs %d", len(packed.Samples), len(base.Samples))
	}
	for i, s := range base.Samples {
		ps := packed.Samples[i]
		a, err := s.SHA256()
		if err != nil {
			t.Fatal(err)
		}
		b, err := ps.SHA256()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("base sample %d binary changed under scenario packs: %s vs %s", i, a, b)
		}
	}
	for addr, cs := range base.C2s {
		pcs := packed.C2s[addr]
		if pcs == nil {
			t.Fatalf("base C2 %s missing under scenario packs", addr)
		}
		if fmt.Sprintf("%+v", *cs) != fmt.Sprintf("%+v", *pcs) {
			t.Fatalf("base C2 %s changed:\n%+v\n%+v", addr, *cs, *pcs)
		}
	}
	if len(packed.Attacks) <= len(base.Attacks) {
		t.Fatal("packs added no attack plans")
	}
	for i, p := range base.Attacks {
		if fmt.Sprintf("%+v", p) != fmt.Sprintf("%+v", packed.Attacks[i]) {
			t.Fatalf("base attack plan %d changed under scenario packs", i)
		}
	}
}

// TestScenarioDeterminism: the same seed renders the same packed
// ground truth, byte for byte.
func TestScenarioDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := Generate(scenarioTestConfig(11, c2.FamilyWisp, c2.FamilySora)).WriteGroundTruth(&a); err != nil {
		t.Fatal(err)
	}
	if err := Generate(scenarioTestConfig(11, c2.FamilyWisp, c2.FamilySora)).WriteGroundTruth(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed, different packed ground truth")
	}
	var c bytes.Buffer
	if err := Generate(scenarioTestConfig(12, c2.FamilyWisp, c2.FamilySora)).WriteGroundTruth(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds, identical packed ground truth")
	}
}

// TestScenarioRelayMeshWiring checks the p2p-relay shape: hidden
// origins that no binary references, relay servers wired to dial
// them, pack binaries referencing relays only, and attack plans
// scheduled on the origins.
func TestScenarioRelayMeshWiring(t *testing.T) {
	cfg := scenarioTestConfig(13, c2.FamilyWisp)
	w := Generate(cfg)

	var origins, relays []*C2Spec
	for _, cs := range w.C2s {
		if cs.Family != c2.FamilyWisp {
			continue
		}
		if cs.RelayUpstream != "" {
			relays = append(relays, cs)
		} else {
			origins = append(origins, cs)
		}
	}
	if len(origins) != cfg.Scenario.P2P.Cells {
		t.Fatalf("want %d origins, got %d", cfg.Scenario.P2P.Cells, len(origins))
	}
	if want := cfg.Scenario.P2P.Cells * cfg.Scenario.P2P.RelaysPerCell; len(relays) != want {
		t.Fatalf("want %d relays, got %d", want, len(relays))
	}
	for _, o := range origins {
		if len(o.SampleIdx) != 0 {
			t.Fatalf("origin %s is referenced by %d binaries; must stay hidden", o.Address, len(o.SampleIdx))
		}
	}
	for _, r := range relays {
		up := w.C2s[r.RelayUpstream]
		if up == nil || up.Family != c2.FamilyWisp || up.RelayUpstream != "" {
			t.Fatalf("relay %s has bad upstream %q", r.Address, r.RelayUpstream)
		}
		srv := w.Servers[r.Address]
		if srv == nil || srv.Config().Relay == nil {
			t.Fatalf("relay %s has no relay-configured server", r.Address)
		}
		if got := srv.Config().Relay.Upstream.IP; got != up.IP {
			t.Fatalf("relay %s dials %s, want %s", r.Address, got, up.IP)
		}
		if !r.Birth.After(up.Birth) || !r.Death.Before(up.Death) {
			t.Fatalf("relay %s lifetime [%v,%v) not inside origin's [%v,%v)",
				r.Address, r.Birth, r.Death, up.Birth, up.Death)
		}
	}

	packSamples := 0
	for _, s := range w.Samples {
		if s.Family != c2.FamilyWisp {
			continue
		}
		packSamples++
		if s.P2P {
			t.Fatalf("wisp sample %d marked P2P; relay bots must run the live stage", s.Index)
		}
		for _, ref := range s.C2Refs {
			if w.C2s[ref] == nil || w.C2s[ref].RelayUpstream == "" {
				t.Fatalf("wisp sample %d references non-relay %s", s.Index, ref)
			}
		}
	}
	if packSamples != cfg.Scenario.P2P.Samples {
		t.Fatalf("want %d wisp samples, got %d", cfg.Scenario.P2P.Samples, packSamples)
	}

	originAttacks := 0
	for _, p := range w.Attacks {
		cs := w.C2s[p.C2Address]
		if cs != nil && cs.Family == c2.FamilyWisp {
			if len(cs.SampleIdx) != 0 || cs.RelayUpstream != "" {
				t.Fatalf("wisp attack scheduled on %s; want a hidden origin", p.C2Address)
			}
			originAttacks++
		}
	}
	if originAttacks == 0 {
		t.Fatal("no attacks scheduled on wisp origins")
	}
}

// TestScenarioDGAWindows checks the churn shape: one domain per
// rotation window, disjoint consecutive lifetimes, DNS registered,
// and samples referencing their window's endpoint (plus lookahead).
func TestScenarioDGAWindows(t *testing.T) {
	cfg := scenarioTestConfig(17, c2.FamilySora)
	w := Generate(cfg)

	var windows []*C2Spec
	for _, cs := range w.C2s {
		if cs.Family == c2.FamilySora {
			windows = append(windows, cs)
		}
	}
	if len(windows) != cfg.Scenario.DGA.Windows {
		t.Fatalf("want %d DGA windows, got %d", cfg.Scenario.DGA.Windows, len(windows))
	}
	domains := map[string]bool{}
	for _, cs := range windows {
		if !cs.IsDNS || cs.Domain == "" {
			t.Fatalf("DGA window %s is not domain-based", cs.Address)
		}
		if domains[cs.Domain] {
			t.Fatalf("duplicate DGA domain %s", cs.Domain)
		}
		domains[cs.Domain] = true
		if _, ok := w.DNSZone[cs.Domain]; !ok {
			t.Fatalf("DGA domain %s not in the DNS zone", cs.Domain)
		}
		if !strings.Contains(cs.Domain, c2.FamilySora) {
			t.Fatalf("DGA domain %s missing family zone", cs.Domain)
		}
	}

	packSamples := 0
	for _, s := range w.Samples {
		if s.Family != c2.FamilySora {
			continue
		}
		packSamples++
		if len(s.C2Refs) == 0 {
			t.Fatalf("sora sample %d has no C2 refs", s.Index)
		}
		// The first ref is the current window: its server must be
		// alive on the sample's date.
		cur := w.C2s[s.C2Refs[0]]
		if cur == nil || !cur.LiveAt(s.Date) {
			t.Fatalf("sora sample %d (%s): first ref %s not live that day",
				s.Index, s.Date.Format("2006-01-02"), s.C2Refs[0])
		}
	}
	if packSamples != cfg.Scenario.DGA.Samples {
		t.Fatalf("want %d sora samples, got %d", cfg.Scenario.DGA.Samples, packSamples)
	}
}

// TestScenarioConfigValidate covers the config surface: unknown
// families, bad overrides, and the knobs.
func TestScenarioConfigValidate(t *testing.T) {
	ok := ScenarioConfig{Families: []string{c2.FamilyWisp}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		sc   ScenarioConfig
		want string
	}{
		{"unknown family", ScenarioConfig{Families: []string{"nosuch"}}, "unknown family"},
		{"duplicate family", ScenarioConfig{Families: []string{"wisp", "wisp"}}, "duplicate"},
		{"empty family", ScenarioConfig{Families: []string{""}}, "empty"},
		{"bad override JSON", ScenarioConfig{SpecOverrides: map[string]string{"x": "{"}}, "bad JSON"},
		{"override name mismatch", ScenarioConfig{SpecOverrides: map[string]string{"x": `{"name":"y","transport":"text","framing":"lines"}`}}, "does not match"},
		{"override does not compile", ScenarioConfig{SpecOverrides: map[string]string{"x": `{"name":"x","framing":"bogus"}`}}, "unknown framing"},
		{"negative p2p knob", ScenarioConfig{Families: []string{"wisp"}, P2P: P2PScenario{Cells: -1}}, "negative"},
		{"negative dga knob", ScenarioConfig{Families: []string{"sora"}, DGA: DGAScenario{RotateDays: -1}}, "negative"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestScenarioSpecOverrideFamily runs a pack for a family that exists
// only as a SpecOverrides entry: the spec registers at generation and
// the fallback client-server pack materializes it.
func TestScenarioSpecOverrideFamily(t *testing.T) {
	const custom = "testpack"
	override := `{
		"name": "testpack",
		"transport": "text",
		"framing": "lines",
		"login": ["HELLO testpack\n"],
		"session": {"ready": "line-prefix", "ready_pat": "HELLO"},
		"commands": {"text": {"verbs": [{"attack": 1, "verb": "FLOOD"}]}},
		"ports": [4444]
	}`
	cfg := scenarioTestConfig(19, custom)
	cfg.Scenario.SpecOverrides = map[string]string{custom: override}
	w := Generate(cfg)

	if _, ok := c2.Lookup(custom); !ok {
		t.Fatal("override family not registered after generation")
	}
	var samples, c2s int
	for _, s := range w.Samples {
		if s.Family == custom {
			samples++
		}
	}
	for _, cs := range w.C2s {
		if cs.Family == custom {
			c2s++
			if cs.Port != 4444 {
				t.Fatalf("override family server on port %d, want 4444", cs.Port)
			}
		}
	}
	if samples == 0 || c2s == 0 {
		t.Fatalf("override pack produced %d samples, %d C2s", samples, c2s)
	}
	// Regenerating with the identical override must be a no-op
	// registration, not a conflict.
	Generate(cfg)
}

// FuzzSpecOverride feeds Validate a (name, JSON) spec override with
// the name enabled as a family, the shape a resumed run reads back
// from its checkpoint. Validate must not panic, must name the
// scenario field in every error, and must leave the protocol registry
// as it found it: it compiles overrides but never registers them.
func FuzzSpecOverride(f *testing.F) {
	f.Add("x", "{")
	f.Add("x", `{"name":"y","transport":"text","framing":"lines"}`)
	f.Add("x", `{"name":"x","framing":"bogus"}`)
	f.Add("fuzzpack", `{"name":"fuzzpack","transport":"text","framing":"lines","login":["HELLO fuzzpack\n"],"session":{"ready":"line-prefix","ready_pat":"HELLO"},"commands":{"text":{"verbs":[{"attack":1,"verb":"FLOOD"}]}},"ports":[4444]}`)
	f.Add(c2.FamilyMirai, "{")
	f.Add("", `{"name":""}`)
	f.Fuzz(func(t *testing.T, name, raw string) {
		before, okBefore := c2.Lookup(name)
		sc := ScenarioConfig{Families: []string{name}, SpecOverrides: map[string]string{name: raw}}
		if err := sc.Validate(); err != nil && !strings.HasPrefix(err.Error(), "scenario.") {
			t.Fatalf("error %q does not name a scenario field", err)
		}
		if after, okAfter := c2.Lookup(name); okAfter != okBefore || after != before {
			t.Fatalf("Validate changed the registry's answer for %q", name)
		}
	})
}
