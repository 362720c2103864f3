package intel

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"malnet/internal/avclass"
)

var (
	day0 = time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	may7 = time.Date(2022, 5, 7, 0, 0, 0, 0, time.UTC)
)

func TestVendorPopulationShape(t *testing.T) {
	vendors := StandardVendors()
	if len(vendors) != 89 {
		t.Fatalf("vendors = %d, want 89 (paper: 89 feeds on VT)", len(vendors))
	}
	active, silent := 0, 0
	for _, v := range vendors {
		if v.Weight > 0 {
			active++
		} else {
			silent++
		}
	}
	if active != 44 || silent != 45 {
		t.Fatalf("active=%d silent=%d, want 44/45 (Appendix D)", active, silent)
	}
}

func TestUnknownAddressReport(t *testing.T) {
	s := NewService(1)
	rep := s.QueryAddress("198.51.100.1", day0)
	if rep.Known || rep.Malicious {
		t.Fatalf("unknown address report = %+v", rep)
	}
}

func TestRegisterIdempotentKeepsEarliest(t *testing.T) {
	s := NewService(1)
	s.RegisterC2("60.0.0.1", KindIP, day0)
	before := s.QueryAddress("60.0.0.1", may7)
	s.RegisterC2("60.0.0.1", KindIP, day0.Add(48*time.Hour))
	after := s.QueryAddress("60.0.0.1", may7)
	if len(before.Vendors) != len(after.Vendors) {
		t.Fatalf("re-registration changed verdict: %d vs %d vendors", len(before.Vendors), len(after.Vendors))
	}
}

func TestDeterministicAcrossServices(t *testing.T) {
	a := NewService(7)
	b := NewService(7)
	a.RegisterC2("60.0.0.9", KindIP, day0)
	b.RegisterC2("60.0.0.9", KindIP, day0)
	ra := a.QueryAddress("60.0.0.9", may7)
	rb := b.QueryAddress("60.0.0.9", may7)
	if len(ra.Vendors) != len(rb.Vendors) {
		t.Fatal("same seed produced different verdicts")
	}
}

// registerMany registers n addresses of a kind and returns the
// day-0 and May-7 miss rates plus the vendor-count distribution at
// May 7.
func missRates(t *testing.T, kind AddrKind, n int) (day0Miss, lateMiss float64, vendorCounts []int) {
	t.Helper()
	s := NewService(42)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("60.%d.%d.%d", i/65536, (i/256)%256, i%256)
		if kind == KindDNS {
			addr = fmt.Sprintf("c2-%d.example.net", i)
		}
		s.RegisterC2(addr, kind, day0)
	}
	var missed0, missedLate int
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("60.%d.%d.%d", i/65536, (i/256)%256, i%256)
		if kind == KindDNS {
			addr = fmt.Sprintf("c2-%d.example.net", i)
		}
		if !s.QueryAddress(addr, day0).Malicious {
			missed0++
		}
		rep := s.QueryAddress(addr, may7)
		if !rep.Malicious {
			missedLate++
		} else {
			vendorCounts = append(vendorCounts, len(rep.Vendors))
		}
	}
	return float64(missed0) / float64(n), float64(missedLate) / float64(n), vendorCounts
}

func TestIPMissRatesMatchTable3(t *testing.T) {
	d0, late, _ := missRates(t, KindIP, 2000)
	if math.Abs(d0-0.133) > 0.03 {
		t.Fatalf("IP day-0 miss = %.3f, want ~0.133", d0)
	}
	if math.Abs(late-0.015) > 0.01 {
		t.Fatalf("IP May-7 miss = %.3f, want ~0.015", late)
	}
}

func TestDNSMissRatesMatchTable3(t *testing.T) {
	d0, late, _ := missRates(t, KindDNS, 2000)
	if math.Abs(d0-0.576) > 0.05 {
		t.Fatalf("DNS day-0 miss = %.3f, want ~0.576", d0)
	}
	if math.Abs(late-0.35) > 0.05 {
		t.Fatalf("DNS May-7 miss = %.3f, want ~0.35", late)
	}
}

func TestVendorCountCDFMatchesFigure7(t *testing.T) {
	_, _, counts := missRates(t, KindIP, 2000)
	le2 := 0
	for _, c := range counts {
		if c <= 2 {
			le2++
		}
		if c > 44 {
			t.Fatalf("a C2 flagged by %d vendors; only 44 ever flag", c)
		}
	}
	share := float64(le2) / float64(len(counts))
	if math.Abs(share-0.25) > 0.05 {
		t.Fatalf("share flagged by <=2 vendors = %.3f, want ~0.25", share)
	}
}

func TestTopVendorCountsMatchTable7Shape(t *testing.T) {
	s := NewService(42)
	const n = 1000
	for i := 0; i < n; i++ {
		s.RegisterC2(fmt.Sprintf("61.0.%d.%d", i/256, i%256), KindIP, day0)
	}
	perVendor := map[string]int{}
	for i := 0; i < n; i++ {
		rep := s.QueryAddress(fmt.Sprintf("61.0.%d.%d", i/256, i%256), may7)
		for _, v := range rep.Vendors {
			perVendor[v]++
		}
	}
	// Table 7's top vendor flags ~799/1000; shape check: best
	// vendor in [600, 900], and >= 15 vendors above 200.
	best := 0
	over200 := 0
	for _, c := range perVendor {
		if c > best {
			best = c
		}
		if c >= 200 {
			over200++
		}
	}
	if best < 600 || best > 900 {
		t.Fatalf("top vendor count = %d, want ~799", best)
	}
	if over200 < 15 {
		t.Fatalf("vendors with >=200 detections = %d, want >= 15 (Table 7 top-20)", over200)
	}
	for v, c := range perVendor {
		if c > 0 && len(v) >= 10 && v[:10] == "SilentFeed" {
			t.Fatalf("silent vendor %s flagged %d addresses", v, c)
		}
	}
}

func TestDetectionMonotonicOverTime(t *testing.T) {
	s := NewService(3)
	for i := 0; i < 200; i++ {
		s.RegisterC2(fmt.Sprintf("62.0.0.%d", i), KindIP, day0)
	}
	for i := 0; i < 200; i++ {
		addr := fmt.Sprintf("62.0.0.%d", i)
		prev := -1
		for _, at := range []time.Time{day0, day0.Add(7 * 24 * time.Hour), may7} {
			n := len(s.QueryAddress(addr, at).Vendors)
			if n < prev {
				t.Fatalf("%s: vendor count decreased over time (%d -> %d)", addr, prev, n)
			}
			prev = n
		}
	}
}

func TestScanSampleCorroboration(t *testing.T) {
	s := NewService(1)
	dets := s.ScanSample("sha-abc", "mirai")
	if avclass.MaliciousCount(dets) < 5 {
		t.Fatalf("detections = %d, want >= 5 (collection threshold)", len(dets))
	}
	fam, _ := avclass.Label(dets)
	if fam != "mirai" {
		t.Fatalf("labeled %q", fam)
	}
}

func TestMoziLabeledAsMirai(t *testing.T) {
	s := NewService(1)
	fam, _ := avclass.Label(s.ScanSample("sha-mozi", "mozi"))
	if fam != "mirai" {
		t.Fatalf("Mozi sample labeled %q, want mirai (documented AVClass2 failure)", fam)
	}
}

// TestScanSampleIsPure checks the contract the study's parallel
// stage relies on: a scan depends only on (seed, sha, family), so
// concurrent scans on one Service, and scans in any order on another,
// all equal a sequential scan.
func TestScanSampleIsPure(t *testing.T) {
	type sample struct{ sha, family string }
	var samples []sample
	for i, fam := range []string{"mirai", "gafgyt", "tsunami", "mozi", "hajime"} {
		for j := 0; j < 20; j++ {
			samples = append(samples, sample{fmt.Sprintf("%064x", i*1000+j), fam})
		}
	}
	want := make([][]avclass.Detection, len(samples))
	seq := NewService(9)
	for i, sm := range samples {
		want[i] = seq.ScanSample(sm.sha, sm.family)
	}

	shared := NewService(9)
	const goroutines = 8
	got := make([][][]avclass.Detection, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			got[g] = make([][]avclass.Detection, len(samples))
			for i, sm := range samples {
				got[g][i] = shared.ScanSample(sm.sha, sm.family)
			}
		}()
	}
	wg.Wait()

	fresh := NewService(9)
	reversed := make([][]avclass.Detection, len(samples))
	for i := len(samples) - 1; i >= 0; i-- {
		reversed[i] = fresh.ScanSample(samples[i].sha, samples[i].family)
	}
	got = append(got, reversed)

	for g, scans := range got {
		for i := range samples {
			if !reflect.DeepEqual(scans[i], want[i]) {
				t.Fatalf("scan %d of %v (run %d) = %v, want %v", i, samples[i], g, scans[i], want[i])
			}
		}
	}
}

func TestCustomTunablesShiftMissRates(t *testing.T) {
	// The generative knobs must actually steer the model: a
	// zero-miss configuration detects everything on day 0.
	tun := DefaultTunables()
	tun.NeverRateIP = 0
	tun.DayZeroRateIP = 1
	s := NewServiceWith(5, StandardVendors(), tun)
	missed := 0
	for i := 0; i < 300; i++ {
		addr := fmt.Sprintf("64.0.%d.%d", i/256, i%256)
		s.RegisterC2(addr, KindIP, day0)
		if !s.QueryAddress(addr, day0).Malicious {
			missed++
		}
	}
	if missed != 0 {
		t.Fatalf("missed %d with day-zero certainty", missed)
	}
	// And the opposite extreme: never detected.
	tun.NeverRateIP = 1
	s2 := NewServiceWith(5, StandardVendors(), tun)
	s2.RegisterC2("65.0.0.1", KindIP, day0)
	if s2.QueryAddress("65.0.0.1", may7).Malicious {
		t.Fatal("never-rate 1.0 still detected")
	}
}

func TestVendorListIsolatedPerService(t *testing.T) {
	// Shrinking the vendor population must shrink verdicts.
	few := []Vendor{{Name: "OnlyFeed", Weight: 1.0}}
	s := NewServiceWith(5, few, DefaultTunables())
	s.RegisterC2("66.0.0.1", KindIP, day0)
	rep := s.QueryAddress("66.0.0.1", may7)
	if len(rep.Vendors) > 1 {
		t.Fatalf("vendors = %v with a one-feed population", rep.Vendors)
	}
}
