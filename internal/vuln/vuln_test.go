package vuln

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

var ref = time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC) // end of study

func TestCatalogHasTwelveRows(t *testing.T) {
	if got := len(Catalog()); got != 12 {
		t.Fatalf("catalog rows = %d, want 12", got)
	}
}

func TestCatalogAgeDistributionMatchesPaper(t *testing.T) {
	// Paper: 12 vulnerabilities, "9 of them more than 4 years old",
	// most recent 5 months old (CVE-2021-45382, Dec 2021 vs study
	// end Mar 2022). Against Table 4's own exploit publication
	// dates the 4-year claim holds for 6 rows and the 3-year one
	// for 9 (the paper likely aged by vulnerability disclosure);
	// we pin the dates and check both shapes.
	old3, old4 := 0, 0
	var newest *Vulnerability
	for _, v := range Catalog() {
		if v.AgeAt(ref) > 4*365*24*time.Hour {
			old4++
		}
		if v.AgeAt(ref) > 3*365*24*time.Hour {
			old3++
		}
		if newest == nil || v.Published.After(newest.Published) {
			newest = v
		}
	}
	if old4 != 6 || old3 != 9 {
		t.Fatalf("older than 4y = %d (want 6), older than 3y = %d (want 9)", old4, old3)
	}
	if newest.Key != "dlink-dir820l" {
		t.Fatalf("newest = %s", newest.Key)
	}
	if age := newest.AgeAt(ref); age > 6*30*24*time.Hour {
		t.Fatalf("newest is %v old, want ~5 months", age)
	}
}

func TestFiveRowsLackCVEs(t *testing.T) {
	noCVE := 0
	for _, v := range Catalog() {
		if len(v.CVEs) == 0 {
			noCVE++
		}
	}
	if noCVE != 5 {
		t.Fatalf("rows without CVE = %d, want 5", noCVE)
	}
}

func TestTwoCVEsLackPublicExploits(t *testing.T) {
	// CVE-2017-18368 and CVE-2021-45382 have CVEs but no exploit ID.
	n := 0
	for _, v := range Catalog() {
		if len(v.CVEs) > 0 && v.ExploitID == "" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("CVEs without public exploit = %d, want 2", n)
	}
}

func TestTopFourByPaperSamples(t *testing.T) {
	// §4: the top four are CVE-2015-2051, CVE-2018-10561/2 and
	// MVPower DVR, all at least 4 years old.
	wantTop := map[string]bool{"gpon-rce": true, "dlink-hnap": true, "mvpower-dvr": true}
	var counts []struct {
		key string
		n   int
	}
	for _, v := range Catalog() {
		counts = append(counts, struct {
			key string
			n   int
		}{v.Key, v.PaperSamples})
	}
	for i := 0; i < 3; i++ {
		max := i
		for j := i + 1; j < len(counts); j++ {
			if counts[j].n > counts[max].n {
				max = j
			}
		}
		counts[i], counts[max] = counts[max], counts[i]
		if !wantTop[counts[i].key] {
			t.Fatalf("rank %d = %s (%d samples), not in paper top set", i, counts[i].key, counts[i].n)
		}
	}
}

func TestEveryPayloadCarriesDownloaderAndLoader(t *testing.T) {
	for _, v := range Catalog() {
		p := v.Payload("60.0.0.5:80", "t8UsA2.sh")
		if p == nil {
			t.Fatalf("%s: nil payload", v.Key)
		}
		if !bytes.Contains(p, []byte("60.0.0.5")) {
			t.Errorf("%s: payload missing downloader address", v.Key)
		}
		if !bytes.Contains(p, []byte("t8UsA2.sh")) {
			t.Errorf("%s: payload missing loader name", v.Key)
		}
	}
}

func TestClassifyRoundTripsEveryPayload(t *testing.T) {
	for _, v := range Catalog() {
		p := v.Payload("60.0.0.5:80", "x.sh")
		got := Classify(p)
		found := false
		for _, g := range got {
			if g.Key == v.Key {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: Classify did not recover the vulnerability (got %d matches)", v.Key, len(got))
		}
	}
}

func TestClassifyUniqueAcrossCatalog(t *testing.T) {
	// Each payload must classify as exactly one catalog row (one
	// signature; the GPON row covers both of its CVEs).
	for _, v := range Catalog() {
		p := v.Payload("60.0.0.5:80", "x.sh")
		if got := Classify(p); len(got) != 1 {
			keys := make([]string, 0, len(got))
			for _, g := range got {
				keys = append(keys, g.Key)
			}
			t.Errorf("%s: classified as %v", v.Key, keys)
		}
	}
}

func TestClassifyBenignTrafficEmpty(t *testing.T) {
	benign := []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
	if got := Classify(benign); len(got) != 0 {
		t.Fatalf("benign request classified: %v", got[0].Key)
	}
}

func TestPayloadsAreValidHTTPish(t *testing.T) {
	for _, v := range Catalog() {
		p := string(v.Payload("60.0.0.5:80", "x.sh"))
		if !strings.HasPrefix(p, "GET ") && !strings.HasPrefix(p, "POST ") {
			t.Errorf("%s: payload does not start with a method", v.Key)
		}
		if !strings.Contains(p, "\r\n\r\n") {
			t.Errorf("%s: payload missing header terminator", v.Key)
		}
	}
}

func TestGPONCoversTwoCVEs(t *testing.T) {
	byKey := ByKey()
	g := byKey["gpon-rce"]
	if g == nil || len(g.CVEs) != 2 {
		t.Fatalf("gpon-rce CVEs = %v", g.CVEs)
	}
}

func TestPatchStatusShares(t *testing.T) {
	// §4: of the 10 CVE-bearing vulnerabilities (8 rows), patches
	// exist for 3, 5 are firewall-only, 2 replace-only across the
	// full catalog.
	var patch, fw, replace int
	for _, v := range Catalog() {
		switch v.Patch {
		case PatchAvailable:
			patch++
		case FirewallOnly:
			fw++
		case ReplaceDevice:
			replace++
		}
	}
	if patch != 3 || fw != 5 || replace != 2 {
		t.Fatalf("patch=%d firewall=%d replace=%d, want 3/5/2", patch, fw, replace)
	}
}

func TestLoaderNamesMatchFigure9(t *testing.T) {
	names := LoaderNames()
	if len(names) != 7 {
		t.Fatalf("loader names = %d, want 7", len(names))
	}
	if names[0].Name != "t8UsA2.sh" {
		t.Fatalf("most common loader = %s", names[0].Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i].Count > names[i-1].Count {
			t.Fatal("loader names not sorted by frequency")
		}
	}
}

func TestLabelPrefersCVE(t *testing.T) {
	byKey := ByKey()
	if got := byKey["dlink-hnap"].Label(); got != "CVE-2015-2051" {
		t.Fatalf("label = %q", got)
	}
	if got := byKey["mvpower-dvr"].Label(); got != "mvpower-dvr" {
		t.Fatalf("label = %q", got)
	}
}

// TestLookupMatchesByKey: Lookup reads the same rows ByKey indexes.
func TestLookupMatchesByKey(t *testing.T) {
	for key, want := range ByKey() {
		if got, ok := Lookup(key); !ok || got != want {
			t.Fatalf("Lookup(%q) = %v, %v; want the ByKey row", key, got, ok)
		}
	}
	if v, ok := Lookup("no-such-vuln"); ok || v != nil {
		t.Fatalf("Lookup of an unknown key = %v, %v", v, ok)
	}
}

// TestCallerContainersDoNotAlias: the slice and map handed out are
// the caller's; reordering, overwriting or deleting their entries
// leaves Classify and Lookup untouched.
func TestCallerContainersDoNotAlias(t *testing.T) {
	gpon, _ := Lookup("gpon-rce")
	payload := gpon.Payload("1.2.3.4:80", "x.sh")
	want := Classify(payload)

	cat := Catalog()
	for i := range cat {
		cat[i] = &Vulnerability{Key: "gpon-rce", Signature: "never-on-the-wire"}
	}
	m := ByKey()
	delete(m, "gpon-rce")
	m["dlink-hnap"] = &Vulnerability{Key: "forged"}

	got := Classify(payload)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("Classify after caller mutation = %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Classify row %d = %s, want %s", i, got[i].Key, want[i].Key)
		}
	}
	if v, ok := Lookup("gpon-rce"); !ok || v != gpon {
		t.Fatal("Lookup lost a key deleted from a ByKey map")
	}
	if v, _ := Lookup("dlink-hnap"); v == nil || v.Key != "dlink-hnap" {
		t.Fatal("Lookup sees a row overwritten in a ByKey map")
	}
	if fresh := Catalog(); len(fresh) != 12 || fresh[0] != gpon {
		t.Fatal("Catalog sees rows overwritten in an earlier copy")
	}
}
