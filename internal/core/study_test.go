package core

import (
	"testing"
	"time"

	"malnet/internal/world"
)

// smallStudySamples is the scaled-down feed size. Short mode (the CI
// race build) subsamples the year further; the statistical assertions
// below stay inside their tolerance bands at both scales.
func smallStudySamples() int {
	if testing.Short() {
		return 250
	}
	return 400
}

// smallStudy runs the full pipeline on a scaled-down world: same
// mechanics, fewer samples and probe rounds, so the integration test
// stays fast.
func smallStudy(t *testing.T) *Study {
	t.Helper()
	wcfg := world.DefaultConfig(7)
	wcfg.TotalSamples = smallStudySamples()
	w := world.Generate(wcfg)
	scfg := Defaults(7)
	scfg.Analysis.ProbeRounds = 12
	return RunStudy(w, scfg)
}

var cachedStudy *Study

func getStudy(t *testing.T) *Study {
	if cachedStudy == nil {
		cachedStudy = smallStudy(t)
	}
	return cachedStudy
}

func TestStudyAcceptsMostSamples(t *testing.T) {
	st := getStudy(t)
	total := smallStudySamples()
	if len(st.Samples)+st.Rejected != total {
		t.Fatalf("samples %d + rejected %d != %d", len(st.Samples), st.Rejected, total)
	}
	if float64(st.Rejected)/float64(total) > 0.10 {
		t.Fatalf("rejected = %d, want < 10%%", st.Rejected)
	}
}

func TestStudyFamilyLabelsResolve(t *testing.T) {
	st := getStudy(t)
	famSet := map[string]bool{}
	for _, s := range st.Samples {
		if s.Family == "" {
			t.Fatalf("sample %s has no family", s.SHA[:12])
		}
		famSet[s.Family] = true
	}
	if len(famSet) < 5 {
		t.Fatalf("families seen = %d, want >= 5", len(famSet))
	}
	// The documented AVClass2 failure: mozi samples labeled mirai
	// by AV, but YARA recovers the true family.
	var moziSeen bool
	for _, s := range st.Samples {
		if s.FamilyYARA == "mozi" {
			moziSeen = true
			if s.FamilyAVClass != "mirai" {
				t.Fatalf("mozi sample AVClass label = %q, want mirai", s.FamilyAVClass)
			}
			if !s.P2P {
				t.Fatal("mozi sample not marked P2P")
			}
		}
	}
	if !moziSeen {
		t.Skip("no mozi sample in the scaled feed")
	}
}

func TestStudyC2DatasetAgainstGroundTruth(t *testing.T) {
	st := getStudy(t)
	if len(st.C2s) == 0 {
		t.Fatal("empty D-C2s")
	}
	// Every detected C2 must exist in the world's ground truth.
	matched := 0
	for addr := range st.C2s {
		if st.W.C2s[addr] != nil {
			matched++
		}
	}
	precision := float64(matched) / float64(len(st.C2s))
	if precision < 0.95 {
		t.Fatalf("C2 detection precision vs ground truth = %.3f", precision)
	}
	// Recall: most ground-truth C2s referenced by accepted samples
	// should be found.
	refd := 0
	for _, cs := range st.W.C2s {
		if len(cs.SampleIdx) > 0 && !cs.Elusive {
			refd++
		}
	}
	recall := float64(matched) / float64(refd)
	if recall < 0.80 {
		t.Fatalf("C2 recall = %.3f (found %d of %d)", recall, matched, refd)
	}
}

func TestStudyDayZeroLiveRateShape(t *testing.T) {
	st := getStudy(t)
	var live, total int
	for _, s := range st.Samples {
		if s.P2P || len(s.C2s) == 0 {
			continue
		}
		total++
		if s.LiveDay0 {
			live++
		}
	}
	if total == 0 {
		t.Fatal("no C2 samples")
	}
	rate := float64(live) / float64(total)
	// Paper: 60% dead on day 0 => ~40% live; allow slack at this
	// scale.
	if rate < 0.20 || rate > 0.60 {
		t.Fatalf("day-0 live rate = %.3f over %d samples, want ~0.40", rate, total)
	}
}

func TestStudyExploitsClassified(t *testing.T) {
	st := getStudy(t)
	if len(st.Exploits) == 0 {
		t.Fatal("no exploits captured")
	}
	vulnsSeen := map[string]bool{}
	for _, f := range st.Exploits {
		for _, v := range f.Vulns {
			vulnsSeen[v.Key] = true
		}
		if f.Loader == "" || f.Downloader == "" {
			t.Fatalf("finding missing loader/downloader: %+v", f)
		}
	}
	if len(vulnsSeen) < 4 {
		t.Fatalf("distinct vulnerabilities = %d, want several", len(vulnsSeen))
	}
}

func TestStudyObservesDDoSCommands(t *testing.T) {
	st := getStudy(t)
	if len(st.DDoS) == 0 {
		t.Fatal("no DDoS commands observed")
	}
	verified := 0
	for _, o := range st.DDoS {
		if o.Verified {
			verified++
		}
		if o.C2 == "" || !o.Command.Target.IsValid() {
			t.Fatalf("malformed observation: %+v", o)
		}
		// Every observed command must match a ground-truth plan's
		// target.
		found := false
		for _, plan := range st.W.Attacks {
			if plan.Command.Target == o.Command.Target {
				found = true
			}
		}
		if !found {
			t.Fatalf("observed attack on %v matches no ground-truth plan", o.Command.Target)
		}
	}
	if verified == 0 {
		t.Fatal("no observation verified")
	}
}

func TestStudyProbingFindsPlantedC2s(t *testing.T) {
	st := getStudy(t)
	if st.Probe == nil || !st.Probe.Done {
		t.Fatal("probe study missing or unfinished")
	}
	merged := st.MergedLiveC2s()
	if len(merged) == 0 {
		t.Fatal("probing found no live C2s")
	}
	// All found C2s must be the planted elusive population.
	for _, tgt := range merged {
		cs := st.W.C2s[tgt.Addr.String()]
		if cs == nil || !cs.Elusive {
			t.Fatalf("probe hit %v which is not a planted elusive C2", tgt.Addr)
		}
	}
	if len(merged) > st.W.PlantedElusive {
		t.Fatalf("found %d live C2s, only %d planted", len(merged), st.W.PlantedElusive)
	}
}

func TestStudyTIValidationFields(t *testing.T) {
	st := getStudy(t)
	var day0Miss, verified, total int
	for _, r := range st.C2s {
		total++
		if !r.Day0Malicious {
			day0Miss++
		}
		if r.Verified {
			verified++
		}
		if r.FirstSeen.After(r.LastSeen) {
			t.Fatalf("record %s has FirstSeen after LastSeen", r.Address)
		}
	}
	missRate := float64(day0Miss) / float64(total)
	if missRate < 0.05 || missRate > 0.40 {
		t.Fatalf("day-0 miss rate = %.3f, want ~0.15", missRate)
	}
	if float64(verified)/float64(total) < 0.90 {
		t.Fatalf("verified share = %.3f", float64(verified)/float64(total))
	}
}

func TestStudyLifespanFloorsAtOneDay(t *testing.T) {
	st := getStudy(t)
	for _, r := range st.C2s {
		if r.LifespanDays() < 1 {
			t.Fatalf("lifespan %v < 1 day", r.LifespanDays())
		}
	}
}

func TestStudyAttackC2LongerLifespan(t *testing.T) {
	st := getStudy(t)
	attackC2 := map[string]bool{}
	for _, o := range st.DDoS {
		attackC2[o.C2] = true
	}
	if len(attackC2) == 0 {
		t.Skip("no attack C2 observed at this scale")
	}
	var atkSum, atkN, allSum, allN float64
	for addr, r := range st.C2s {
		d := r.LifespanDays()
		allSum += d
		allN++
		if attackC2[addr] {
			atkSum += d
			atkN++
		}
	}
	if atkN == 0 {
		t.Skip("attack C2s not in D-C2s at this scale")
	}
	if atkSum/atkN <= allSum/allN {
		t.Fatalf("attack C2 mean lifespan %.1f <= overall %.1f; paper finds ~10 vs ~4 days",
			atkSum/atkN, allSum/allN)
	}
}

func TestStudyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	a := smallStudy(t)
	b := smallStudy(t)
	if len(a.Samples) != len(b.Samples) || len(a.C2s) != len(b.C2s) ||
		len(a.DDoS) != len(b.DDoS) || len(a.Exploits) != len(b.Exploits) {
		t.Fatalf("studies differ: samples %d/%d c2s %d/%d ddos %d/%d exploits %d/%d",
			len(a.Samples), len(b.Samples), len(a.C2s), len(b.C2s),
			len(a.DDoS), len(b.DDoS), len(a.Exploits), len(b.Exploits))
	}
}

func TestStudyWindowsAdvanceClock(t *testing.T) {
	st := getStudy(t)
	if st.W.Clock.Now().Before(world.StudyEnd()) {
		t.Fatalf("clock at %v, want past study end", st.W.Clock.Now())
	}
	_ = time.Now // keep time import if asserts change
}

func TestStudyDatasetCoherence(t *testing.T) {
	// Cross-dataset referential integrity: every row in the derived
	// datasets points back at an accepted sample.
	st := getStudy(t)
	known := map[string]bool{}
	for _, s := range st.Samples {
		known[s.SHA] = true
	}
	for _, o := range st.DDoS {
		if !known[o.SHA256] {
			t.Fatalf("D-DDOS row references unknown sample %s", o.SHA256[:12])
		}
	}
	for _, f := range st.Exploits {
		if !known[f.SHA256] {
			t.Fatalf("D-Exploits row references unknown sample %s", f.SHA256[:12])
		}
		if len(f.Vulns) == 0 {
			t.Fatal("finding without vulnerabilities")
		}
	}
	for addr, r := range st.C2s {
		if len(r.Samples) == 0 {
			t.Fatalf("C2 record %s has no samples", addr)
		}
		for _, sha := range r.Samples {
			if !known[sha] {
				t.Fatalf("C2 record %s references unknown sample", addr)
			}
		}
		if r.Address != addr {
			t.Fatalf("record key %s != address %s", addr, r.Address)
		}
	}
	// Per-sample DDoS lists must re-aggregate to the global one.
	total := 0
	for _, s := range st.Samples {
		total += len(s.DDoS)
	}
	if total != len(st.DDoS) {
		t.Fatalf("per-sample DDoS sum %d != global %d", total, len(st.DDoS))
	}
}

func TestStudyActivationRateShape(t *testing.T) {
	st := getStudy(t)
	activated := 0
	for _, s := range st.Samples {
		if s.Activated {
			activated++
		}
	}
	rate := float64(activated) / float64(len(st.Samples))
	if rate < 0.84 || rate > 0.98 {
		t.Fatalf("activation rate = %.3f, want ~0.90-0.93", rate)
	}
}

func TestStudyFiltersForeignArchitectures(t *testing.T) {
	// §2.2: the collection keeps only MIPS 32B binaries; the feed's
	// ARM/x86 decoys must be skipped before analysis.
	st := getStudy(t)
	if st.FilteredArch == 0 {
		t.Fatal("no foreign-arch downloads filtered")
	}
	want := smallStudySamples() * 8 / 100
	if st.FilteredArch != want {
		t.Fatalf("filtered = %d, want %d", st.FilteredArch, want)
	}
}
