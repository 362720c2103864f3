// Command rulecheck replays a capture through a MalNet-generated
// rule file and prints the alerts — the consumer side of the paper's
// "firewalls and NIDS incorporate rules provided by our service"
// loop (§6a). With no arguments it runs a demo: generates rules from
// a tiny study, replays an infected host's capture against them.
//
// Usage:
//
//	rulecheck [rules.file capture.pcap]
package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"malnet/internal/core"
	"malnet/internal/flow"
	"malnet/internal/ids"
	"malnet/internal/sandbox"
	"malnet/internal/simnet"
	"malnet/internal/world"
)

func main() {
	var rules []*ids.Rule
	var records []simnet.PacketRecord
	var err error

	if len(os.Args) == 3 {
		text, rerr := os.ReadFile(os.Args[1])
		if rerr != nil {
			fatal(rerr)
		}
		rules, err = ids.ParseAll(string(text))
		if err != nil {
			fatal(err)
		}
		f, ferr := os.Open(os.Args[2])
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		records, err = flow.ReadRecords(f)
		if err != nil {
			fatal(err)
		}
	} else {
		rules, records = demo()
	}

	engine := ids.NewEngine(rules)
	dropped := 0
	for _, rec := range records {
		if !engine.Inspect(rec.Time, rec) {
			dropped++
		}
	}
	fmt.Printf("replayed %d records against %d rules: %d alerts, %d would be dropped\n",
		len(records), len(rules), len(engine.Alerts), dropped)
	shown := 0
	for _, a := range engine.Alerts {
		fmt.Printf("  [%d] %s  %s -> %s\n", a.SID, a.Msg, a.Rec.Src, a.Rec.Dst)
		if shown++; shown == 15 {
			fmt.Printf("  ... and %d more\n", len(engine.Alerts)-shown)
			break
		}
	}
}

// demo builds rules from a small study and a capture from a freshly
// infected host calling one of the profiled C2s.
func demo() ([]*ids.Rule, []simnet.PacketRecord) {
	wcfg := world.DefaultConfig(5)
	wcfg.TotalSamples = 60
	w := world.Generate(wcfg)
	scfg := core.Defaults(5)
	scfg.Analysis.Probing = false
	st := core.RunStudy(w, scfg)
	rules := core.GenerateRules(st)
	fmt.Printf("demo: generated %d rules from a %d-sample study\n", len(rules), len(st.Samples))

	// Re-run one sample live and capture its traffic: the rules
	// must light up on its call-home.
	var spec = w.Samples[0]
	for _, s := range w.Samples {
		if !s.P2P && len(s.C2Refs) > 0 {
			spec = s
			break
		}
	}
	raw, err := spec.Binary()
	if err != nil {
		fatal(err)
	}
	sb := sandbox.New(w.Net, sandbox.Config{DNS: w.Resolve, Seed: 99})
	rep, err := sb.Run(raw, sandbox.RunOptions{Mode: sandbox.ModeLive, Duration: 10 * time.Minute, DisableScanning: true})
	if err != nil {
		fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WritePCAP(&buf, 8); err != nil {
		fatal(err)
	}
	records, err := flow.ReadRecords(&buf)
	if err != nil {
		fatal(err)
	}
	return rules, records
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rulecheck:", err)
	os.Exit(1)
}
