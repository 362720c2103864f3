// Package intel simulates the VirusTotal-style threat-intelligence
// ecosystem the paper measures against: 89 vendor feeds (44 of which
// ever flag IoT C2 addresses), per-vendor coverage and detection lag,
// two-query address reputation (day of discovery vs. a later
// re-query), and per-sample AV detections feeding the AVClass2-style
// labeler.
//
// The detection dynamics are generative models calibrated to the
// paper's measurements (Table 3 miss-rates, Table 7 vendor counts,
// Figure 7 vendor-count CDF), so the pipeline can *measure back*
// those numbers through the same query mechanics the authors used.
package intel

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"malnet/internal/avclass"
	"malnet/internal/detrand"
)

// AddrKind distinguishes IP-literal C2 addresses from DNS names;
// Table 3 reports sharply worse feed coverage for DNS C2s.
type AddrKind uint8

// Address kinds.
const (
	KindIP AddrKind = iota
	KindDNS
)

// String names the kind.
func (k AddrKind) String() string {
	if k == KindDNS {
		return "DNS"
	}
	return "IP"
}

// Vendor is one threat-intelligence feed.
type Vendor struct {
	// Name is the feed name as shown on VT.
	Name string
	// Weight in [0,1] drives how often the vendor appears in an
	// address's detecting set; 0 marks the 45 feeds that never
	// flag IoT C2s.
	Weight float64
	// ExtraLag delays this vendor's verdict after the address
	// first becomes known to any feed.
	ExtraLag time.Duration
}

// Tunables shapes the generative detection model. Defaults are
// calibrated to the paper.
type Tunables struct {
	// NeverRate is the probability an address of each kind is
	// never flagged by any feed (Table 3's May-7th column: 1.5 %
	// IP, 35 % DNS).
	NeverRateIP  float64
	NeverRateDNS float64
	// DayZeroRate is the probability that a *detected* address is
	// already flagged on its submission day (backed out of
	// Table 3's same-day column).
	DayZeroRateIP  float64
	DayZeroRateDNS float64
	// LateWindow bounds how long after submission a late detection
	// lands.
	LateWindow time.Duration
	// Tier shares for the size of an address's detecting-vendor
	// set (Figure 7: ~25 % of known C2s are reported by 1–2 feeds).
	ObscureShare  float64 // |V| in 1..2
	ModerateShare float64 // |V| in 3..10
	// remainder: wide, |V| in 11..30
}

// DefaultTunables returns the paper-calibrated parameters.
func DefaultTunables() Tunables {
	return Tunables{
		NeverRateIP:    0.015,
		NeverRateDNS:   0.35,
		DayZeroRateIP:  0.867 / (1 - 0.015), // so unreported-at-day-0 is 13.3 %
		DayZeroRateDNS: 0.424 / (1 - 0.35),  // so unreported-at-day-0 is 57.6 %
		LateWindow:     45 * 24 * time.Hour,
		ObscureShare:   0.25,
		ModerateShare:  0.35,
	}
}

// entry is the service's knowledge about one C2 address.
type entry struct {
	addr      string
	kind      AddrKind
	submitted time.Time
	never     bool
	// firstDetect is when the fastest vendor flags it (valid when
	// !never).
	firstDetect time.Time
	// vendors maps vendor index -> that vendor's detection time.
	vendors map[int]time.Time
}

// Service is the simulated intelligence aggregator.
type Service struct {
	seed    int64
	tun     Tunables
	vendors []Vendor
	entries map[string]*entry
}

// NewService builds a Service with the standard vendor population
// and default tunables.
func NewService(seed int64) *Service {
	return NewServiceWith(seed, StandardVendors(), DefaultTunables())
}

// NewServiceWith builds a Service with explicit vendors and
// tunables (ablations vary these).
func NewServiceWith(seed int64, vendors []Vendor, tun Tunables) *Service {
	return &Service{
		seed:    seed,
		tun:     tun,
		vendors: vendors,
		entries: make(map[string]*entry),
	}
}

// Vendors returns the vendor population.
func (s *Service) Vendors() []Vendor { return s.vendors }

// hash01 returns a deterministic uniform float64 in [0,1) from the
// service seed and the given strings.
func (s *Service) hash01(parts ...string) float64 {
	return detrand.Float01(s.seed, parts...)
}

// RegisterC2 introduces a C2 address to the ecosystem. submitted is
// the day the first binary referring to it appears in public feeds.
// Registration is idempotent: re-submissions keep the earliest date.
func (s *Service) RegisterC2(addr string, kind AddrKind, submitted time.Time) {
	if have, ok := s.entries[addr]; ok {
		if submitted.Before(have.submitted) {
			// Re-derive with the earlier date so detection timing
			// keys off first appearance.
			delete(s.entries, addr)
		} else {
			return
		}
	}
	e := &entry{addr: addr, kind: kind, submitted: submitted, vendors: map[int]time.Time{}}
	s.entries[addr] = e

	neverRate, dayZeroRate := s.tun.NeverRateIP, s.tun.DayZeroRateIP
	if kind == KindDNS {
		neverRate, dayZeroRate = s.tun.NeverRateDNS, s.tun.DayZeroRateDNS
	}
	if s.hash01(addr, "never") < neverRate {
		e.never = true
		return
	}
	if s.hash01(addr, "day0") < dayZeroRate {
		// Already known before our pipeline saw the binary.
		pre := time.Duration(s.hash01(addr, "pre") * float64(7*24*time.Hour))
		e.firstDetect = submitted.Add(-pre)
	} else {
		lateFloor := 12 * time.Hour
		late := lateFloor + time.Duration(s.hash01(addr, "late")*float64(s.tun.LateWindow-lateFloor))
		e.firstDetect = submitted.Add(late)
	}

	// Build the detecting-vendor set. Two tiers reproduce the
	// Figure 7 / Table 7 tension: ~25 % of known C2s are flagged by
	// only 1–2 feeds, yet the top feeds each flag ~80 % of all
	// addresses — so obscure addresses are picked up by (only) a
	// couple of the high-coverage feeds, while the rest are flagged
	// by each vendor independently with probability Weight.
	add := func(idx int) {
		v := s.vendors[idx]
		jit := time.Duration(s.hash01(addr, "jit", v.Name) * float64(20*24*time.Hour))
		e.vendors[idx] = e.firstDetect.Add(v.ExtraLag + jit)
	}
	if s.hash01(addr, "tier") < s.tun.ObscureShare {
		// 1–2 of the top-coverage vendors, weighted.
		type cand struct {
			idx   int
			score float64
		}
		var cands []cand
		for i, v := range s.vendors {
			if v.Weight < 0.9 {
				continue
			}
			u := s.hash01(addr, "v", v.Name)
			cands = append(cands, cand{i, math.Pow(u, 1/v.Weight)})
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
		size := 2
		if s.hash01(addr, "sz") < 0.25 {
			size = 1
		}
		if size > len(cands) {
			size = len(cands)
		}
		for _, c := range cands[:size] {
			add(c.idx)
		}
	} else {
		for i, v := range s.vendors {
			if v.Weight > 0 && s.hash01(addr, "v", v.Name) < v.Weight {
				add(i)
			}
		}
	}
	// The fastest vendor defines firstDetect exactly.
	fastest := -1
	for idx, t := range e.vendors {
		if fastest < 0 || t.Before(e.vendors[fastest]) {
			fastest = idx
		}
	}
	if fastest >= 0 {
		e.vendors[fastest] = e.firstDetect
	}
}

// AddressReport is a reputation query result.
type AddressReport struct {
	Addr string
	Kind AddrKind
	// Known reports whether the address was ever registered.
	Known bool
	// Malicious reports whether >= 1 vendor flags it at query time.
	Malicious bool
	// Vendors lists the names of flagging vendors at query time.
	Vendors []string
}

// QueryAddress returns the ecosystem's verdict on addr at time at —
// the paper's VT query, run once on discovery day and once on May 7.
func (s *Service) QueryAddress(addr string, at time.Time) AddressReport {
	e, ok := s.entries[addr]
	if !ok {
		return AddressReport{Addr: addr}
	}
	rep := AddressReport{Addr: addr, Kind: e.kind, Known: true}
	if e.never {
		return rep
	}
	for idx, t := range e.vendors {
		if !t.After(at) {
			rep.Vendors = append(rep.Vendors, s.vendors[idx].Name)
		}
	}
	sort.Strings(rep.Vendors)
	rep.Malicious = len(rep.Vendors) > 0
	return rep
}

// ScanSample returns per-vendor detections for a binary — the input
// to the >= 5 engine corroboration check and the AVClass2 labeler.
// The verdicts are a pure function of (service seed, sha, family): a
// scan reads only the seed and the vendor population, so scans may
// run concurrently. Mozi samples are labeled as Mirai by every
// engine, reproducing the misclassification the paper reports.
func (s *Service) ScanSample(sha, family string) []avclass.Detection {
	var out []avclass.Detection
	for _, v := range s.vendors {
		// File-scanning coverage is much broader than C2-feed
		// coverage: even "inactive" URL-feed vendors scan files.
		if s.hash01(sha, "av", v.Name) < 0.35+0.6*v.Weight {
			out = append(out, avclass.Detection{
				Vendor: v.Name,
				Label:  detectionLabel(family, v.Name),
			})
		}
	}
	return out
}

// detectionLabel renders a vendor-flavored detection string for the
// family.
func detectionLabel(family, vendor string) string {
	shown := family
	if family == "mozi" {
		shown = "mirai" // AVClass2-unreliability reproduction
	}
	styles := []string{
		"Linux.%s.B!tr", "Trojan:Linux/%s.SM", "ELF/%s-A",
		"Linux/%s.gen", "HEUR:Backdoor.Linux.%s.b",
	}
	h := fnv.New32a()
	h.Write([]byte(vendor))
	// Reduce in uint32: int(h.Sum32()) is negative for half the
	// hashes where int is 32 bits wide.
	style := styles[h.Sum32()%uint32(len(styles))]
	return fmt.Sprintf(style, titleCase(shown))
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}
