package core

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"strings"
	"testing"
	"time"

	"malnet/internal/c2"
	"malnet/internal/vuln"
	"malnet/internal/world"
)

func studyDatasets(st *Study) CheckpointDatasets {
	return CheckpointDatasets{Samples: st.Samples, C2s: st.C2s, Exploits: st.Exploits, DDoS: st.DDoS}
}

// assertDatasetsRoundTrip requires ds to decode from its datasets.bin
// bytes into values that encoding/json renders byte for byte as it
// renders ds, and to re-encode to the same bytes.
func assertDatasetsRoundTrip(t *testing.T, name string, ds CheckpointDatasets) {
	t.Helper()
	b := appendDatasets(nil, &ds)
	got, err := decodeDatasets(b)
	if err != nil {
		t.Fatalf("%s: decoding its own encoding: %v", name, err)
	}
	want, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		for i := range min(len(have), len(want)) {
			if have[i] != want[i] {
				t.Fatalf("%s: decoded datasets render differently in JSON at byte %d:\ndecoded:  %.120s\nin memory: %.120s",
					name, i, have[max(0, i-40):], want[max(0, i-40):])
			}
		}
		t.Fatalf("%s: decoded datasets render %d JSON bytes, in memory %d", name, len(have), len(want))
	}
	if again := appendDatasets(nil, &got); !bytes.Equal(again, b) {
		t.Fatalf("%s: decoded datasets re-encode to %d different bytes (was %d)", name, len(again), len(b))
	}
}

// TestDatasetsMatchJSON: for a clean, a faulted and a scenario-packed
// -short study, the datasets decoded from datasets.bin are what the
// JSON section they replace held, as encoding/json renders them (nil
// against empty, and each time's location, included).
func TestDatasetsMatchJSON(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*world.Config, *StudyConfig)
	}{
		{"clean", func(*world.Config, *StudyConfig) {}},
		{"faulted", func(_ *world.Config, scfg *StudyConfig) {
			scfg.Determinism.Faults = true
			scfg.Determinism.FaultSeed = 1042
		}},
		{"wisp,sora", func(wcfg *world.Config, _ *StudyConfig) {
			wcfg.Scenario.Families = []string{c2.FamilyWisp, c2.FamilySora}
			wcfg.Scenario.Defaults()
		}},
	} {
		st := runShortStudy(tc.tweak)
		if len(st.Samples) == 0 || len(st.C2s) == 0 || len(st.Exploits) == 0 || len(st.DDoS) == 0 {
			t.Fatalf("%s: a dataset is empty: %d samples, %d C2s, %d exploits, %d DDoS",
				tc.name, len(st.Samples), len(st.C2s), len(st.Exploits), len(st.DDoS))
		}
		assertDatasetsRoundTrip(t, tc.name, studyDatasets(st))
	}
}

// TestDatasetsEdgeCases covers what a study may not produce: nil and
// empty at every level, nil records, an empty payload, zone offsets
// other than UTC's, and the zero values.
func TestDatasetsEdgeCases(t *testing.T) {
	at := time.Date(2021, 5, 3, 12, 30, 15, 999, time.UTC)
	east := at.In(time.FixedZone("", 5*3600+30*60))
	west := at.In(time.FixedZone("X", -7*3600-17))
	exploit := ExploitFinding{
		SHA256: "ab", Date: east, Vulns: []*vuln.Vulnerability{nil, {CVEs: []string{}, Published: west}, {CVEs: []string{"CVE-1", ""}}},
		Port: 65535, Payload: []byte{},
	}
	ddos := DDoSObservation{
		Time: west, C2IP: netip.MustParseAddr("::ffff:1.2.3.4"), Method: MethodHeuristic,
		Command: c2.Command{Attack: 255, Target: netip.MustParseAddr("2001:db8::1"), Duration: -time.Second, Raw: []byte{}},
	}
	for _, tc := range []struct {
		name string
		ds   CheckpointDatasets
	}{
		{"zero", CheckpointDatasets{}},
		{"empty", CheckpointDatasets{Samples: []*SampleRecord{}, C2s: map[string]*C2Record{}, Exploits: []ExploitFinding{}, DDoS: []DDoSObservation{}}},
		{"nil records", CheckpointDatasets{Samples: []*SampleRecord{nil, {}}, C2s: map[string]*C2Record{"": nil, "a": {}}}},
		{"empty lists", CheckpointDatasets{
			Samples: []*SampleRecord{{C2s: []C2Candidate{}, Exploits: []ExploitFinding{}, DDoS: []DDoSObservation{}}},
			C2s:     map[string]*C2Record{"x": {Samples: []string{}}},
		}},
		{"values", CheckpointDatasets{
			Samples: []*SampleRecord{{
				SHA: "s", Date: east, Detections: -3, P2P: true, Disposition: DispTimedOut,
				C2s:      []C2Candidate{{Address: "h:1", IP: netip.MustParseAddr("10.0.0.1"), Port: 1, Attempts: 1 << 30}},
				Exploits: []ExploitFinding{exploit}, DDoS: []DDoSObservation{ddos},
			}},
			C2s: map[string]*C2Record{
				"b": {Samples: []string{"s", "s"}, FirstSeen: east, LastSeen: west, Verified: true},
				"a": {Address: "a", Day0Vendors: 9, May7Malicious: true},
			},
			Exploits: []ExploitFinding{exploit},
			DDoS:     []DDoSObservation{ddos, {}},
		}},
	} {
		assertDatasetsRoundTrip(t, tc.name, tc.ds)
	}
}

// TestDatasetsMinSizes holds the count checks' per-element minimums to
// what the encoder writes for the smallest element of each kind.
func TestDatasetsMinSizes(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	size := func(walk func(*dsCodec)) int {
		c := dsCodec{}
		walk(&c)
		return len(c.b)
	}
	for _, tc := range []struct {
		what      string
		got, want int
	}{
		{"C2 candidate", size(func(c *dsCodec) { c.candidate(&C2Candidate{}) }), minCandidate},
		{"exploit finding", size(func(c *dsCodec) { c.exploit(&ExploitFinding{Date: epoch}) }), minExploit},
		{"DDoS observation", size(func(c *dsCodec) { c.ddos(&DDoSObservation{Time: epoch}) }), minDDoS},
		{"D-C2s entry", size(func(c *dsCodec) {
			var k string
			var r *C2Record
			text(c, &k)
			ptr(c, &r, (*dsCodec).c2Record)
		}), minC2Entry},
	} {
		if tc.got != tc.want {
			t.Errorf("smallest %s encodes to %d bytes, its minimum says %d", tc.what, tc.got, tc.want)
		}
	}
}

// TestDatasetsDecodeRefuses: each malformed section is refused with an
// error naming datasets.bin.
func TestDatasetsDecodeRefuses(t *testing.T) {
	good := appendDatasets(nil, &CheckpointDatasets{
		Samples: []*SampleRecord{{SHA: "s", C2s: []C2Candidate{{IP: netip.MustParseAddr("10.0.0.1")}}}},
		C2s:     map[string]*C2Record{"a": {}, "b": {}},
	})
	if _, err := decodeDatasets(good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"empty", "truncated", nil},
		{"truncated", "truncated", good[:len(good)-1]},
		{"trailing byte", "trailing", append(append([]byte(nil), good...), 0)},
		{"non-minimal varint", "non-minimal", []byte{0x80, 0x00, 0, 0, 0}},
		{"count past the end", "count", []byte{0x7f, 0, 0, 0}},
		{"presence byte 2", "bool byte", []byte{2, 2}},
		{"bad address length", "address length", func() []byte {
			b := bytes.Clone(good)
			b[bytes.Index(b, []byte{4, 10, 0, 0, 1})] = 5
			return b
		}()},
		// No samples, D-C2s entries "b" and "a" (both nil), no
		// exploits or DDoS.
		{"keys out of order", "does not sort", []byte{0, 3, 1, 'b', 0, 1, 'a', 0, 0, 0}},
	} {
		_, err := decodeDatasets(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), datasetsSection) {
			t.Errorf("%s: got %v, want an error naming %s and %q", tc.name, err, datasetsSection, tc.want)
		}
	}
}

// FuzzDatasetsDecode: the decoder never panics, and whatever it
// accepts re-encodes to the same bytes. The study's seed is about
// 130 KB, so fuzz with a bounded minimization, e.g.
// -fuzzminimizetime 100x: minimizing an input that size stalls the
// fuzzer for up to a minute each time it finds one.
func FuzzDatasetsDecode(f *testing.F) {
	ds := studyDatasets(finishedShortStudy())
	b := appendDatasets(nil, &ds)
	f.Add(b)
	for _, n := range []int{0, 1, 2, 100, len(b) / 2, len(b) - 1} {
		f.Add(b[:n])
	}
	f.Add(append(bytes.Clone(b), 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		ds, err := decodeDatasets(b)
		if err != nil {
			return
		}
		if got := appendDatasets(nil, &ds); !bytes.Equal(got, b) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(b), len(got))
		}
	})
}
