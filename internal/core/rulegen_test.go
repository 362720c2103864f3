package core

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"malnet/internal/ids"
	"malnet/internal/intel"
	"malnet/internal/simclock"
	"malnet/internal/simnet"
	"malnet/internal/vuln"
)

// ruleStudy builds a minimal hand-rolled study for rule generation.
func ruleStudy() *Study {
	st := &Study{Cfg: Defaults(1), C2s: map[string]*C2Record{}}
	st.C2s["60.0.0.9:23"] = &C2Record{
		Address: "60.0.0.9:23", Kind: intel.KindIP,
		IP: netip.MustParseAddr("60.0.0.9"), Port: 23,
		Samples: []string{"a", "b"}, Verified: true,
	}
	st.C2s["cnc.example.net:666"] = &C2Record{
		Address: "cnc.example.net:666", Kind: intel.KindDNS,
		IP: netip.MustParseAddr("61.0.0.5"), Port: 666,
		Samples: []string{"c"}, Verified: true,
	}
	st.C2s["62.0.0.1:23"] = &C2Record{ // unverified: no rule
		Address: "62.0.0.1:23", Kind: intel.KindIP,
		IP: netip.MustParseAddr("62.0.0.1"), Port: 23,
	}
	gpon := vuln.ByKey()["gpon-rce"]
	st.Exploits = []ExploitFinding{{SHA256: "a", Vulns: []*vuln.Vulnerability{gpon}, Port: 80}}
	return st
}

func TestGenerateRulesShape(t *testing.T) {
	rules := GenerateRules(ruleStudy())
	var drops, alerts, rates int
	for _, r := range rules {
		switch {
		case r.MinPPS > 0:
			rates++
		case r.Action == ids.ActionDrop:
			drops++
		default:
			alerts++
		}
	}
	if drops != 2 {
		t.Fatalf("drop rules = %d, want 2 (verified C2s only)", drops)
	}
	if alerts != 1 {
		t.Fatalf("alert rules = %d, want 1 (gpon signature)", alerts)
	}
	if rates != 1 {
		t.Fatalf("rate rules = %d, want 1", rates)
	}
}

func TestGeneratedRulesRoundTrip(t *testing.T) {
	rules := GenerateRules(ruleStudy())
	text := ids.RenderAll(rules)
	parsed, err := ids.ParseAll(text)
	if err != nil {
		t.Fatalf("parse own output: %v\n%s", err, text)
	}
	if len(parsed) != len(rules) {
		t.Fatalf("parsed %d of %d", len(parsed), len(rules))
	}
}

func TestGeneratedRulesContainABot(t *testing.T) {
	// End-to-end impact check (§6a): deploy the generated C2
	// blocklist at a "customer" perimeter; an infected host there
	// can no longer reach the profiled C2.
	rules := GenerateRules(ruleStudy())
	engine := ids.NewEngine(rules)

	clock := simclock.New(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	n := simnet.New(clock, simnet.DefaultConfig())
	c2Host := n.AddHost(netip.MustParseAddr("60.0.0.9"))
	sessions := 0
	c2Host.ListenTCP(23, func(local, remote simnet.Addr) simnet.ConnHandler {
		sessions++
		return simnet.ConnFuncs{}
	})
	infected := n.AddHost(netip.MustParseAddr("10.0.0.7"))
	infected.Egress = engine.EgressGate(clock)
	gotErr := error(nil)
	infected.DialTCP(simnet.AddrFrom("60.0.0.9", 23), simnet.ConnFuncs{
		Close: func(c *simnet.Conn, err error) { gotErr = err },
	})
	clock.RunFor(time.Minute)
	if sessions != 0 {
		t.Fatal("blocklisted C2 accepted a session through the perimeter")
	}
	if gotErr != simnet.ErrTimeout {
		t.Fatalf("dial err = %v, want contained timeout", gotErr)
	}
	if len(engine.Alerts) == 0 {
		t.Fatal("no alert logged for the contained call-home")
	}
}

func TestGenerateRulesMessagesNameTheEvidence(t *testing.T) {
	rules := GenerateRules(ruleStudy())
	text := ids.RenderAll(rules)
	for _, want := range []string{"60.0.0.9:23", "cnc.example.net:666", "CVE-2018-10561", "/GponForm/diag_Form"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rules missing %q:\n%s", want, text)
		}
	}
}
