// Package results aggregates a completed study into every table and
// figure of the paper's evaluation, each as structured data plus a
// text rendering. cmd/experiments, the benchmarks, and EXPERIMENTS.md
// are all built on these constructors.
package results

import (
	"fmt"
	"sort"
	"strconv"

	"malnet/internal/analysis"
	"malnet/internal/core"
	"malnet/internal/geo"
	"malnet/internal/intel"
	"malnet/internal/malware"
	"malnet/internal/report"
	"malnet/internal/vuln"
	"malnet/internal/world"
)

// Table1 is the dataset summary.
type Table1 struct {
	DSamples         int `json:"d_samples"`
	DC2s             int `json:"d_c2s"`
	DPC2Measurements int `json:"d_pc2_measurements"`
	DExploitSamples  int `json:"d_exploit_samples"`
	DDDoS            int `json:"d_ddos"`
	ProbeLiveC2s     int `json:"probe_live_c2s"`
}

// NewTable1 computes the dataset sizes.
func NewTable1(st *core.Study) Table1 {
	t := Table1{
		DSamples: len(st.Samples),
		DC2s:     len(st.C2s),
		DDDoS:    len(st.DDoS),
	}
	exploitSamples := map[string]bool{}
	for _, f := range st.Exploits {
		exploitSamples[f.SHA256] = true
	}
	t.DExploitSamples = len(exploitSamples)
	for _, tgt := range st.MergedLiveC2s() {
		t.ProbeLiveC2s++
		for _, o := range tgt.Outcomes {
			if o != core.ProbeNoAnswer {
				t.DPC2Measurements++
			}
		}
	}
	return t
}

// Render prints the Table 1 rows.
func (t Table1) Render() string {
	return report.Table("Table 1: datasets", []string{"Dataset", "Size", "Methodology"}, [][]string{
		{"D-Samples", strconv.Itoa(t.DSamples), "daily collection from simulated VT/MalwareBazaar feeds"},
		{"D-C2s", strconv.Itoa(t.DC2s), "sandbox C2 detection, TI cross-verified"},
		{"D-PC2", strconv.Itoa(t.DPC2Measurements), fmt.Sprintf("probing: %d live C2s, 4h interval, 2 weeks", t.ProbeLiveC2s)},
		{"D-Exploits", strconv.Itoa(t.DExploitSamples), "handshaker exploit extraction"},
		{"D-DDOS", strconv.Itoa(t.DDDoS), "C2 command eavesdropping"},
	})
}

// Table2Row is one AS row.
type Table2Row struct {
	AS    *geo.AS
	C2s   int
	Share float64
}

// Table2 ranks the ASes hosting C2 IPs.
type Table2 struct {
	Rows []Table2Row
	// Top10Share is the §3.1 "10 ASes host 69.7%" figure.
	Top10Share float64
	// TotalASes is Appendix A's 128.
	TotalASes int
}

// NewTable2 aggregates D-C2s by autonomous system.
func NewTable2(st *core.Study) Table2 {
	counts := analysis.NewHistogram()
	byName := map[string]*geo.AS{}
	for _, r := range st.C2s {
		as, ok := st.W.Geo.Lookup(r.IP)
		if !ok {
			continue
		}
		counts.Add(as.Name, 1)
		byName[as.Name] = as
	}
	t := Table2{TotalASes: len(counts.Labels()), Top10Share: analysis.TopShare(counts, 10)}
	for _, name := range counts.Labels() {
		n := counts.Count(name)
		t.Rows = append(t.Rows, Table2Row{
			AS: byName[name], C2s: n,
			Share: float64(n) / float64(counts.Total()),
		})
	}
	// The labels came in D-C2s map order, so rank by count and break
	// ties by ASN.
	sort.Slice(t.Rows, func(i, j int) bool {
		a, b := t.Rows[i], t.Rows[j]
		if a.C2s != b.C2s {
			return a.C2s > b.C2s
		}
		return a.AS.ASN < b.AS.ASN
	})
	return t
}

// Render prints the top-10 rows with Table 2's attribute columns.
func (t Table2) Render() string {
	rows := make([][]string, 0, 10)
	for i, r := range t.Rows {
		if i == 10 {
			break
		}
		anti := "Yes"
		if r.AS.Unknown {
			anti = "N/A"
		} else if !r.AS.AntiDDoS {
			anti = "No"
		}
		rows = append(rows, []string{
			r.AS.Name, strconv.Itoa(r.AS.ASN), r.AS.Country, "Yes", anti,
			strconv.Itoa(r.C2s), analysis.FmtPct(r.Share),
		})
	}
	out := report.Table("Table 2: top ASes hosting C2 IPs",
		[]string{"AS Name", "ASN", "Country", "Hosting", "Anti-DDoS", "C2s", "Share"}, rows)
	out += fmt.Sprintf("top-10 combined share: %s over %d ASes total\n",
		analysis.FmtPct(t.Top10Share), t.TotalASes)
	return out
}

// Table3 is the threat-intel miss-rate measurement.
type Table3 struct {
	// Day0/May7 miss rates for all, IP-based, and DNS-based C2s.
	AllDay0, AllMay7 float64
	IPDay0, IPMay7   float64
	DNSDay0, DNSMay7 float64
	NIP, NDNS        int
}

// NewTable3 computes unreported-C2 shares among verified records.
func NewTable3(st *core.Study) Table3 {
	var t Table3
	var missIP0, missIP7, missDNS0, missDNS7 int
	for _, r := range st.C2s {
		if !r.Verified {
			continue
		}
		if r.Kind == intel.KindDNS {
			t.NDNS++
			if !r.Day0Malicious {
				missDNS0++
			}
			if !r.May7Malicious {
				missDNS7++
			}
		} else {
			t.NIP++
			if !r.Day0Malicious {
				missIP0++
			}
			if !r.May7Malicious {
				missIP7++
			}
		}
	}
	total := t.NIP + t.NDNS
	if total == 0 {
		return t
	}
	t.AllDay0 = float64(missIP0+missDNS0) / float64(total)
	t.AllMay7 = float64(missIP7+missDNS7) / float64(total)
	if t.NIP > 0 {
		t.IPDay0 = float64(missIP0) / float64(t.NIP)
		t.IPMay7 = float64(missIP7) / float64(t.NIP)
	}
	if t.NDNS > 0 {
		t.DNSDay0 = float64(missDNS0) / float64(t.NDNS)
		t.DNSMay7 = float64(missDNS7) / float64(t.NDNS)
	}
	return t
}

// Render prints the Table 3 grid.
func (t Table3) Render() string {
	return report.Table("Table 3: C2 servers unreported by threat intelligence",
		[]string{"Type", "Same Day", "May 7th 2022", "n"}, [][]string{
			{"All", analysis.FmtPct(t.AllDay0), analysis.FmtPct(t.AllMay7), strconv.Itoa(t.NIP + t.NDNS)},
			{"IP-based", analysis.FmtPct(t.IPDay0), analysis.FmtPct(t.IPMay7), strconv.Itoa(t.NIP)},
			{"DNS-based", analysis.FmtPct(t.DNSDay0), analysis.FmtPct(t.DNSMay7), strconv.Itoa(t.NDNS)},
		})
}

// Table4Row pairs a catalog vulnerability with its measured count.
type Table4Row struct {
	Vuln *vuln.Vulnerability
	// Samples is the measured number of distinct binaries
	// exploiting it.
	Samples int
}

// Table4 is the vulnerability table with measured sample counts.
type Table4 struct {
	Rows []Table4Row
}

// NewTable4 counts distinct exploiting samples per vulnerability.
func NewTable4(st *core.Study) Table4 {
	perVuln := map[string]map[string]bool{}
	for _, f := range st.Exploits {
		for _, v := range f.Vulns {
			if perVuln[v.Key] == nil {
				perVuln[v.Key] = map[string]bool{}
			}
			perVuln[v.Key][f.SHA256] = true
		}
	}
	var t Table4
	for _, v := range vuln.Catalog() {
		t.Rows = append(t.Rows, Table4Row{Vuln: v, Samples: len(perVuln[v.Key])})
	}
	return t
}

// TopKeys returns the n most-exploited vulnerability keys.
func (t Table4) TopKeys(n int) []string {
	rows := append([]Table4Row(nil), t.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Samples > rows[j].Samples })
	if n > len(rows) {
		n = len(rows)
	}
	keys := make([]string, 0, n)
	for _, r := range rows[:n] {
		keys = append(keys, r.Vuln.Key)
	}
	return keys
}

// Render prints the Table 4 rows (paper count alongside measured).
func (t Table4) Render() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		cves := "-"
		if len(r.Vuln.CVEs) > 0 {
			cves = r.Vuln.CVEs[0]
			if len(r.Vuln.CVEs) > 1 {
				cves += "+" + r.Vuln.CVEs[1]
			}
		}
		exploitID := r.Vuln.ExploitID
		if exploitID == "" {
			exploitID = "N/A"
		}
		rows = append(rows, []string{
			strconv.Itoa(r.Vuln.ID), r.Vuln.Key, cves, exploitID,
			r.Vuln.Published.Format("2006-01-02"), r.Vuln.Device,
			strconv.Itoa(r.Samples), strconv.Itoa(r.Vuln.PaperSamples),
		})
	}
	return report.Table("Table 4: exploited vulnerabilities",
		[]string{"ID", "Key", "CVE", "Exploit ID", "Published", "Device", "Samples", "(paper)"}, rows)
}

// Table5 is the probing port configuration.
type Table5 struct{ Ports []uint16 }

// NewTable5 returns the configured probe ports.
func NewTable5() Table5 { return Table5{Ports: core.ProbePorts} }

// Render prints the port list.
func (t Table5) Render() string {
	s := "Table 5: ports probed for D-PC2\n  "
	for i, p := range t.Ports {
		if i > 0 {
			s += ", "
		}
		s += strconv.Itoa(int(p))
	}
	return s + "\n"
}

// Table6 is the malware family registry.
type Table6 struct{ Families []malware.FamilyInfo }

// NewTable6 returns the Table 6 rows.
func NewTable6() Table6 { return Table6{Families: malware.Families()} }

// Render prints the family descriptions.
func (t Table6) Render() string {
	rows := make([][]string, 0, len(t.Families))
	for _, f := range t.Families {
		kind := "C2:" + f.Protocol
		if f.P2P {
			kind = "P2P"
		}
		rows = append(rows, []string{f.Name, kind, f.Description})
	}
	return report.Table("Table 6: malware families", []string{"Family", "Comm", "Description"}, rows)
}

// Table7 is the per-vendor detection count over C2 IPs.
type Table7 struct {
	Rows []analysis.Entry
	// SampleSize is how many C2 IPs were queried (paper: 1000).
	SampleSize int
	// EverFlagging is the number of vendors flagging >= 1 C2
	// (Appendix D: 44 of 89).
	EverFlagging int
}

// NewTable7 queries the May-7 verdict for up to 1000 IP-based C2s
// and counts flags per vendor.
func NewTable7(st *core.Study) Table7 {
	perVendor := analysis.NewHistogram()
	var addrs []string
	for _, r := range st.C2s {
		if r.Kind == intel.KindIP {
			addrs = append(addrs, r.IP.String())
		}
	}
	sort.Strings(addrs)
	if len(addrs) > 1000 {
		addrs = addrs[:1000]
	}
	for _, host := range addrs {
		rep := st.W.Intel.QueryAddress(host, world.May7)
		for _, v := range rep.Vendors {
			perVendor.Add(v, 1)
		}
	}
	return Table7{
		Rows:         perVendor.Sorted(),
		SampleSize:   len(addrs),
		EverFlagging: len(perVendor.Labels()),
	}
}

// Render prints the top-20 vendors.
func (t Table7) Render() string {
	rows := make([][]string, 0, 20)
	for i, e := range t.Rows {
		if i == 20 {
			break
		}
		rows = append(rows, []string{e.Label, strconv.Itoa(e.Count)})
	}
	out := report.Table(fmt.Sprintf("Table 7: vendor detections over %d C2 IPs", t.SampleSize),
		[]string{"Vendor", "C2s flagged"}, rows)
	out += fmt.Sprintf("vendors ever flagging a C2: %d\n", t.EverFlagging)
	return out
}
