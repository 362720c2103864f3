package world

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"malnet/internal/binfmt"
	"malnet/internal/c2"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	return Generate(DefaultConfig(42))
}

func TestCalendarHas31Weeks(t *testing.T) {
	cal := Calendar()
	if len(cal) != 31 {
		t.Fatalf("weeks = %d, want 31 (Appendix E)", len(cal))
	}
	// Week 1 is 2021 ISO week 14 (early April 2021).
	if cal[0].Start.Year() != 2021 || cal[0].Start.Month() != time.April {
		t.Fatalf("week 1 starts %v", cal[0].Start)
	}
	// Weeks 21+ are in 2022.
	if cal[20].Start.Year() != 2022 {
		t.Fatalf("week 21 starts %v", cal[20].Start)
	}
	// Strictly increasing.
	for i := 1; i < len(cal); i++ {
		if !cal[i].Start.After(cal[i-1].Start) {
			t.Fatal("calendar not increasing")
		}
	}
	// Every week start is a Monday.
	for _, w := range cal {
		if w.Start.Weekday() != time.Monday {
			t.Fatalf("week %d starts on %v", w.Num, w.Start.Weekday())
		}
	}
}

func TestWeekOfRoundTrips(t *testing.T) {
	for _, w := range Calendar() {
		if got := WeekOf(w.Start.AddDate(0, 0, 3)); got != w.Num {
			t.Fatalf("WeekOf(mid week %d) = %d", w.Num, got)
		}
	}
	// A gap date maps to 0.
	gap := time.Date(2021, 9, 15, 0, 0, 0, 0, time.UTC) // between weeks 33 and 44
	if got := WeekOf(gap); got != 0 {
		t.Fatalf("WeekOf(gap) = %d", got)
	}
}

func TestPopulationTotals(t *testing.T) {
	w := testWorld(t)
	mips, decoys := 0, 0
	for _, s := range w.Samples {
		if s.ForeignArch == binfmt.ArchMIPS32BE {
			mips++
		} else {
			decoys++
		}
	}
	if mips != 1447 {
		t.Fatalf("MIPS samples = %d, want 1447", mips)
	}
	if decoys == 0 {
		t.Fatal("feed carries no foreign-arch decoys")
	}
	// C2 addresses referenced by samples (D-C2s scale ~1160).
	refC2s := 0
	for _, cs := range w.C2s {
		if len(cs.SampleIdx) > 0 {
			refC2s++
		}
	}
	if refC2s < 950 || refC2s > 1350 {
		t.Fatalf("referenced C2s = %d, want ~1160", refC2s)
	}
	// All samples dated inside study weeks.
	for _, s := range w.Samples {
		if WeekOf(s.Date) == 0 {
			t.Fatalf("sample %d dated %v outside study weeks", s.Index, s.Date)
		}
	}
}

func TestFamilyMixAndP2PShare(t *testing.T) {
	w := testWorld(t)
	fams := map[string]int{}
	p2p := 0
	for _, s := range w.Samples {
		fams[s.Family]++
		if s.P2P {
			p2p++
		}
	}
	for _, want := range []string{"mirai", "gafgyt", "mozi", "tsunami", "daddyl33t", "hajime", "vpnfilter"} {
		if fams[want] == 0 {
			t.Fatalf("family %s absent", want)
		}
	}
	if fams["mirai"] < fams["tsunami"] {
		t.Fatal("mirai should dominate tsunami")
	}
	share := float64(p2p) / float64(len(w.Samples))
	if share < 0.10 || share > 0.25 {
		t.Fatalf("P2P share = %.2f", share)
	}
}

func TestTop10ASShareNear70Percent(t *testing.T) {
	w := testWorld(t)
	top := map[int]bool{36352: true, 211252: true, 14061: true, 53667: true, 202306: true,
		399471: true, 16276: true, 44812: true, 139884: true, 50673: true}
	var inTop, total int
	for _, cs := range w.C2s {
		if len(cs.SampleIdx) == 0 {
			continue
		}
		total++
		if top[cs.ASN] {
			inTop++
		}
	}
	share := float64(inTop) / float64(total)
	if math.Abs(share-0.697) > 0.06 {
		t.Fatalf("top-10 AS share = %.3f, want ~0.697", share)
	}
}

func TestSamplesPerC2Distribution(t *testing.T) {
	// Figure 5: ~40% of C2s used by one binary, ~20% by more than
	// ten.
	w := testWorld(t)
	var ones, tens, total int
	for _, cs := range w.C2s {
		k := len(cs.SampleIdx)
		if k == 0 {
			continue
		}
		total++
		if k == 1 {
			ones++
		}
		if k > 10 {
			tens++
		}
	}
	oneShare := float64(ones) / float64(total)
	tenShare := float64(tens) / float64(total)
	if oneShare < 0.28 || oneShare > 0.52 {
		t.Fatalf("single-binary C2 share = %.3f, want ~0.40", oneShare)
	}
	if tenShare < 0.08 || tenShare > 0.32 {
		t.Fatalf(">10-binary C2 share = %.3f, want ~0.20", tenShare)
	}
}

func TestObservedLifespanShape(t *testing.T) {
	// Figure 2: ~80% of C2s have a one-day observed lifespan; the
	// mean is ~4 days.
	w := testWorld(t)
	var oneDay, total int
	var sumDays float64
	for _, cs := range w.C2s {
		if len(cs.SampleIdx) == 0 {
			continue
		}
		total++
		span := cs.LastRef.Sub(cs.FirstRef)
		days := span.Hours() / 24
		if days < 1 {
			days = 1
			oneDay++
		}
		sumDays += days
	}
	oneShare := float64(oneDay) / float64(total)
	mean := sumDays / float64(total)
	if oneShare < 0.70 || oneShare > 0.90 {
		t.Fatalf("one-day share = %.3f, want ~0.80", oneShare)
	}
	if mean < 2.0 || mean > 6.5 {
		t.Fatalf("mean lifespan = %.2f days, want ~4", mean)
	}
}

func TestSampleDayZeroLiveRate(t *testing.T) {
	// §3.2: 60% of samples have a dead C2 server on their day.
	w := testWorld(t)
	var live, total int
	for _, s := range w.Samples {
		if s.P2P || len(s.C2Refs) == 0 {
			continue
		}
		total++
		anyLive := false
		for _, ref := range s.C2Refs {
			if cs := w.C2s[ref]; cs != nil && cs.LiveAt(s.Date.Add(time.Hour)) {
				anyLive = true
			}
		}
		if anyLive {
			live++
		}
	}
	rate := float64(live) / float64(total)
	if math.Abs(rate-0.40) > 0.08 {
		t.Fatalf("day-0 live rate = %.3f, want ~0.40", rate)
	}
}

func TestAttackPlanShape(t *testing.T) {
	w := testWorld(t)
	if len(w.Attacks) != 42 {
		t.Fatalf("attacks = %d, want 42", len(w.Attacks))
	}
	c2set := map[string]bool{}
	types := map[c2.AttackType]bool{}
	proto := map[string]int{}
	for _, a := range w.Attacks {
		c2set[a.C2Address] = true
		types[a.Command.Attack] = true
		p := a.Command.Attack.TargetProto()
		if a.Command.Attack == c2.AttackTLS && a.Command.TCPTransport {
			p = "TCP"
		}
		if p == "UDP" && a.Command.Port == 53 {
			p = "DNS"
		}
		proto[p]++
	}
	if len(c2set) != 17 {
		t.Fatalf("attack C2s = %d, want 17", len(c2set))
	}
	if len(types) != 8 {
		t.Fatalf("attack types = %d, want 8", len(types))
	}
	// Figure 10 shape: UDP dominant (~74%), then TCP, DNS, ICMP.
	if proto["UDP"] < 28 || proto["UDP"] > 34 {
		t.Fatalf("UDP attacks = %d, want ~31", proto["UDP"])
	}
	if proto["ICMP"] != 2 || proto["DNS"] != 3 {
		t.Fatalf("proto split = %v", proto)
	}
	// Every attack C2 spec exists, is marked, and is long-lived.
	for addr := range c2set {
		cs := w.C2s[addr]
		if cs == nil || !cs.AttackLauncher {
			t.Fatalf("attack C2 %s not marked", addr)
		}
		if life := cs.Death.Sub(cs.Birth); life < 8*24*time.Hour {
			t.Fatalf("attack C2 %s life = %v, want ~10 days", addr, life)
		}
	}
}

func TestAttackC2CountriesAndGeography(t *testing.T) {
	w := testWorld(t)
	countries := map[string]int{} // per attack (not per C2)
	for _, a := range w.Attacks {
		cs := w.C2s[a.C2Address]
		as := w.Geo.ByASN(cs.ASN)
		if as == nil {
			t.Fatalf("attack C2 AS %d unregistered", cs.ASN)
		}
		countries[as.Country]++
	}
	if len(countries) != 6 {
		t.Fatalf("attack C2 countries = %d (%v), want 6", len(countries), countries)
	}
	share := float64(countries["US"]+countries["NL"]+countries["CZ"]) / float64(len(w.Attacks))
	if share < 0.70 || share > 0.92 {
		t.Fatalf("US+NL+CZ attack share = %.2f, want ~0.80", share)
	}
}

func TestDoubleAttackedTargets(t *testing.T) {
	w := testWorld(t)
	byTarget := map[string]map[c2.AttackType]bool{}
	for _, a := range w.Attacks {
		k := a.Command.Target.String()
		if byTarget[k] == nil {
			byTarget[k] = map[c2.AttackType]bool{}
		}
		byTarget[k][a.Command.Attack] = true
	}
	double := 0
	for _, types := range byTarget {
		if len(types) >= 2 {
			double++
		}
	}
	if double < 6 || double > 10 {
		t.Fatalf("double-attacked targets = %d, want ~8 (25%% of targets)", double)
	}
}

func TestAttackTargetsResolveToVictimASes(t *testing.T) {
	w := testWorld(t)
	asSet := map[int]bool{}
	for _, a := range w.Attacks {
		as, ok := w.Geo.Lookup(a.Command.Target)
		if !ok {
			t.Fatalf("target %v resolves to no AS", a.Command.Target)
		}
		asSet[as.ASN] = true
	}
	if len(asSet) < 15 {
		t.Fatalf("target ASes = %d, want ~23", len(asSet))
	}
}

func TestServersMaterializedForReferencedC2s(t *testing.T) {
	w := testWorld(t)
	for addr, cs := range w.C2s {
		if len(cs.SampleIdx) == 0 && !cs.Elusive {
			continue
		}
		if w.Servers[addr] == nil {
			t.Fatalf("no server for %s", addr)
		}
	}
}

func TestDNSZoneCoversDomainC2s(t *testing.T) {
	w := testWorld(t)
	domains := 0
	for _, cs := range w.C2s {
		if !cs.IsDNS {
			continue
		}
		domains++
		ip, ok := w.Resolve(cs.Domain)
		if !ok || ip != cs.IP {
			t.Fatalf("domain %s resolves to %v, want %v", cs.Domain, ip, cs.IP)
		}
	}
	if domains < 30 || domains > 120 {
		t.Fatalf("domain C2s = %d, want ~60", domains)
	}
}

func TestProbeWorldPlanted(t *testing.T) {
	w := testWorld(t)
	if len(w.ProbeSubnets) != 6 {
		t.Fatalf("probe subnets = %d, want 6", len(w.ProbeSubnets))
	}
	if w.PlantedElusive != 7 {
		t.Fatalf("planted elusive C2s = %d, want 7", w.PlantedElusive)
	}
	for _, cs := range w.C2s {
		if !cs.Elusive {
			continue
		}
		inSubnet := false
		for _, s := range w.ProbeSubnets {
			if s.Contains(cs.IP) {
				inSubnet = true
			}
		}
		if !inSubnet {
			t.Fatalf("elusive C2 %s outside probe subnets", cs.Address)
		}
		if !cs.LiveAt(w.ProbeStart.Add(7 * 24 * time.Hour)) {
			t.Fatalf("elusive C2 %s not alive mid probe window", cs.Address)
		}
	}
}

func TestSampleBinariesEncodeAndCarryRefs(t *testing.T) {
	w := testWorld(t)
	s := w.Samples[0]
	raw, err := s.Binary()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 8192 {
		t.Fatalf("binary size = %d", len(raw))
	}
	sha, err := s.SHA256()
	if err != nil || len(sha) != 64 {
		t.Fatalf("sha = %q, %v", sha, err)
	}
	// Deterministic across regenerations.
	w2 := Generate(DefaultConfig(42))
	sha2, _ := w2.Samples[0].SHA256()
	if sha != sha2 {
		t.Fatal("sample hash not reproducible across identical worlds")
	}
}

func TestWorldIntelScansSample(t *testing.T) {
	w := testWorld(t)
	s := w.Samples[0]
	sha, err := s.SHA256()
	if err != nil {
		t.Fatal(err)
	}
	dets := w.Intel.ScanSample(sha, s.Family)
	if len(dets) < 5 {
		t.Fatalf("detections = %d, want >= 5", len(dets))
	}
}

func TestFeedOnReturnsDaySamples(t *testing.T) {
	w := testWorld(t)
	day := w.Samples[0].Date
	feed := w.FeedOn(day)
	if len(feed) == 0 {
		t.Fatal("empty feed on a sample day")
	}
	for _, s := range feed {
		if !s.Date.Equal(day) {
			t.Fatalf("feed sample dated %v, want %v", s.Date, day)
		}
	}
}

func TestDownloaderPoolsWithinPaperCounts(t *testing.T) {
	w := testWorld(t)
	distinct := map[string]bool{}
	for _, s := range w.Samples {
		if s.DownloaderAddr != "" {
			distinct[s.DownloaderAddr] = true
		}
	}
	if len(distinct) == 0 || len(distinct) > 47 {
		t.Fatalf("distinct downloaders = %d, want <= 47", len(distinct))
	}
}

func TestExploitArmedSampleCountNear197(t *testing.T) {
	w := testWorld(t)
	n := 0
	for _, s := range w.Samples {
		if len(s.ExploitIDs) > 0 {
			n++
		}
	}
	if n < 160 || n > 240 {
		t.Fatalf("exploit-armed samples = %d, want ~197", n)
	}
}

func TestWorldInvariantsAcrossSeeds(t *testing.T) {
	// The calibration must not be a single-seed accident: core
	// invariants hold for any seed.
	for _, seed := range []int64{1, 2, 3, 99, 1234} {
		cfg := DefaultConfig(seed)
		cfg.TotalSamples = 250
		w := Generate(cfg)
		mips := 0
		for _, smp := range w.Samples {
			if smp.ForeignArch == binfmt.ArchMIPS32BE {
				mips++
			}
		}
		if mips != 250 {
			t.Fatalf("seed %d: MIPS samples = %d", seed, mips)
		}
		if len(w.Attacks) != 42 {
			t.Fatalf("seed %d: attacks = %d", seed, len(w.Attacks))
		}
		if w.PlantedElusive != 7 {
			t.Fatalf("seed %d: planted = %d", seed, w.PlantedElusive)
		}
		// Every referenced C2 has a server and resolvable geography.
		for addr, cs := range w.C2s {
			if len(cs.SampleIdx) == 0 && !cs.Elusive {
				continue
			}
			if w.Servers[addr] == nil {
				t.Fatalf("seed %d: no server for %s", seed, addr)
			}
			if _, ok := w.Geo.Lookup(cs.IP); !ok {
				t.Fatalf("seed %d: %s has no AS", seed, addr)
			}
			if !cs.Death.After(cs.Birth) {
				t.Fatalf("seed %d: %s death %v <= birth %v", seed, addr, cs.Death, cs.Birth)
			}
		}
		// Sample refs point at existing C2 specs; evasion values are
		// from the known set.
		for _, s := range w.Samples {
			for _, ref := range s.C2Refs {
				if w.C2s[ref] == nil {
					t.Fatalf("seed %d: sample %d references unknown C2 %s", seed, s.Index, ref)
				}
			}
			switch s.Evasion {
			case "", "connectivity", "strict":
			default:
				t.Fatalf("seed %d: bad evasion %q", seed, s.Evasion)
			}
			if s.P2P && len(s.C2Refs) > 0 {
				t.Fatalf("seed %d: P2P sample %d has C2 refs", seed, s.Index)
			}
		}
		// Canaries resolve to distinct addresses.
		g1, ok1 := w.Resolve("www.google.com")
		g2, ok2 := w.Resolve("www.bing.com")
		if !ok1 || !ok2 || g1 == g2 {
			t.Fatalf("seed %d: canaries broken (%v %v)", seed, g1, g2)
		}
	}
}

func TestDifferentSeedsDifferentWorlds(t *testing.T) {
	cfgA, cfgB := DefaultConfig(1), DefaultConfig(2)
	cfgA.TotalSamples, cfgB.TotalSamples = 100, 100
	a, b := Generate(cfgA), Generate(cfgB)
	shaA, _ := a.Samples[0].SHA256()
	shaB, _ := b.Samples[0].SHA256()
	if shaA == shaB {
		t.Fatal("different seeds produced identical first samples")
	}
}

func TestWeek28IsTheVolumePeak(t *testing.T) {
	// §3.1 / Figure 1: "we observe a peak of IoT malware samples on
	// week 28".
	w := testWorld(t)
	perWeek := map[int]int{}
	for _, s := range w.Samples {
		perWeek[WeekOf(s.Date)]++
	}
	peak, peakWeek := 0, 0
	for wk, n := range perWeek {
		if n > peak {
			peak, peakWeek = n, wk
		}
	}
	if peakWeek != 28 {
		t.Fatalf("peak week = %d (%d samples), want 28", peakWeek, peak)
	}
}

func TestLateWeeksBoostRussianASes(t *testing.T) {
	// §3.1: AS-44812 and AS-139884 "become more active in the last
	// 4 weeks of the study".
	w := testWorld(t)
	var early, late int
	for _, cs := range w.C2s {
		if len(cs.SampleIdx) == 0 || (cs.ASN != 44812 && cs.ASN != 139884) {
			continue
		}
		if WeekOf(cs.FirstRef) >= 28 {
			late++
		} else {
			early++
		}
	}
	// Weeks 28-31 are 4 of 31 weeks; without the boost they would
	// hold ~13% of these ASes' C2s. The boost should push well past
	// parity with the remaining 27 weeks' rate.
	if late*4 < early {
		t.Fatalf("AS-44812/139884 late-week C2s = %d vs early %d; no surge visible", late, early)
	}
}

func TestGroundTruthExport(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.TotalSamples = 60
	w := Generate(cfg)
	var buf bytes.Buffer
	if err := w.WriteGroundTruth(&buf); err != nil {
		t.Fatal(err)
	}
	var gt GroundTruth
	if err := json.Unmarshal(buf.Bytes(), &gt); err != nil {
		t.Fatal(err)
	}
	if gt.Seed != 3 || len(gt.Samples) < 60 {
		t.Fatalf("seed=%d samples=%d", gt.Seed, len(gt.Samples))
	}
	if len(gt.Attacks) != 42 {
		t.Fatalf("attacks = %d", len(gt.Attacks))
	}
	// Every exported sample hash is 64 hex chars; every C2 ref in
	// samples exists in the C2 list.
	c2set := map[string]bool{}
	for _, c := range gt.C2s {
		c2set[c.Address] = true
	}
	for _, s := range gt.Samples {
		if len(s.SHA256) != 64 {
			t.Fatalf("sample %d sha = %q", s.Index, s.SHA256)
		}
		for _, ref := range s.C2Refs {
			if !c2set[ref] {
				t.Fatalf("sample %d references unexported C2 %s", s.Index, ref)
			}
		}
	}
}
