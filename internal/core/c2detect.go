// Package core is the MalNet pipeline itself — the paper's primary
// contribution. Given freshly-published binaries it produces the
// five study datasets:
//
//	D-Samples  verified binaries with family labels (§2.2)
//	D-C2s      C2 addresses found via sandbox analysis and
//	           cross-validated against threat intelligence (§2.3a)
//	D-PC2      active-probing measurements of live C2s (§2.3b)
//	D-Exploits exploits captured by the handshaker (§2.4)
//	D-DDOS     DDoS commands extracted from live C2 sessions (§2.5)
//
// Each stage is a standalone analyzer over sandbox reports, so the
// stages are individually testable and reusable outside the
// year-long study driver.
package core

import (
	"bytes"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"malnet/internal/c2"
	"malnet/internal/intel"
	"malnet/internal/sandbox"
	"malnet/internal/simnet"
)

// C2Candidate is one C2 endpoint the traffic classifier attributes
// to a sample.
type C2Candidate struct {
	// Address is the endpoint as the malware references it:
	// "ip:port" or "name:port".
	Address string
	// Kind distinguishes IP-literal from DNS-name C2s.
	Kind intel.AddrKind
	// IP is the concrete address dials went to (the resolution for
	// DNS-kind).
	IP netip.Addr
	// Port is the C2 port.
	Port uint16
	// Attempts is how many call-home dials targeted it.
	Attempts int
	// Live reports whether a session was established and the
	// protocol engaged during analysis.
	Live bool
	// Signature names the matched protocol artifact, "" if the
	// classification rests on behavior only.
	Signature string
}

// c2Signature inspects a session's first payloads for known C2
// protocol openings (the profile-based half of the classifier). The
// per-family artifacts come from the spec registry; a generic
// server-keepalive check backstops families without one.
func c2Signature(firstOut, firstIn []byte) string {
	if label, ok := c2.Signature(firstOut); ok {
		return label
	}
	if bytes.Contains(firstIn, []byte("PING")) && !bytes.HasPrefix(firstOut, []byte("GET ")) {
		return "server-keepalive"
	}
	return ""
}

// looksLikeExploit rejects sessions whose first payload is an HTTP
// exploit or download — those are proliferation, not C2.
func looksLikeExploit(firstOut []byte) bool {
	return bytes.HasPrefix(firstOut, []byte("GET ")) ||
		bytes.HasPrefix(firstOut, []byte("POST "))
}

// DetectC2 classifies a sandbox report's traffic into C2 endpoints.
// It is binary-centric: the verdict rests on the sample's observed
// call-home behavior — repeated dials to one endpoint, protocol
// signatures, DNS-then-dial patterns — not on the sample's config
// (which a real analysis cannot read). minAttempts is the repeat
// threshold for signature-less endpoints (2 is the default used by
// the study).
func DetectC2(rep *sandbox.Report, minAttempts int) []C2Candidate {
	if minAttempts < 1 {
		minAttempts = 2
	}
	type agg struct {
		cand  C2Candidate
		name  string
		first []byte
	}
	// An endpoint is a name and port, or an address when no name was
	// looked up. Names never parse as IP literals (the bot dials a
	// literal without a lookup), so the two kinds never meet on one
	// Address.
	type endpoint struct {
		name string
		addr simnet.Addr
	}
	byEndpoint := map[endpoint]*agg{}
	for _, d := range rep.Dials {
		// Group by what the sample *requested* — redirection and
		// InetSim routing must not change the attribution. Dials
		// preceded by a DNS lookup are attributed to the looked-up
		// name (the sandbox records it per dial, since in isolated
		// mode every name resolves to the same fake address).
		key := endpoint{addr: d.Requested}
		if d.Name != "" {
			key = endpoint{name: d.Name, addr: simnet.Addr{Port: d.Requested.Port}}
		}
		a := byEndpoint[key]
		if a == nil {
			kind := intel.KindIP
			if d.Name != "" {
				kind = intel.KindDNS
			}
			a = &agg{name: d.Name, cand: C2Candidate{
				Kind: kind,
				IP:   d.Requested.IP,
				Port: d.Requested.Port,
			}}
			byEndpoint[key] = a
		}
		a.cand.Attempts++
		if sig := c2Signature(d.FirstOut, d.FirstIn); sig != "" && a.cand.Signature == "" {
			a.cand.Signature = sig
		}
		if d.Established && (len(d.FirstOut) > 0 || len(d.FirstIn) > 0) {
			a.cand.Live = true
		}
		if a.first == nil {
			a.first = d.FirstOut
		}
	}

	var out []C2Candidate
	for _, a := range byEndpoint {
		if looksLikeExploit(a.first) && a.cand.Signature == "" {
			continue // proliferation traffic
		}
		if a.cand.Signature == "" && a.cand.Attempts < minAttempts {
			continue // one-shot connection without protocol match
		}
		// Rendered only for a kept endpoint: most are one-shot scan
		// targets.
		host := a.name
		if host == "" {
			host = a.cand.IP.String()
		}
		a.cand.Address = host + ":" + strconv.Itoa(int(a.cand.Port))
		out = append(out, a.cand)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Address < out[j].Address })
	return out
}

// LiveC2 reports whether any detected C2 endpoint engaged during the
// run — the paper's "live C2 server on the day they were reported"
// measurement.
func LiveC2(cands []C2Candidate) bool {
	for _, c := range cands {
		if c.Live {
			return true
		}
	}
	return false
}

// ObservedLifespan is the paper's lifespan definition (§3.2): "the
// interval between the last and the first time we observe a C2
// server referred by a sample", floored at one day for same-day
// observations.
func ObservedLifespan(first, last time.Time) time.Duration {
	d := last.Sub(first)
	if d < 24*time.Hour {
		return 24 * time.Hour
	}
	return d
}
