// Package sandbox is the CnCHunter-equivalent dynamic-analysis
// environment (§2.1): it activates a MIPS 32B sample on a virtual
// host, captures every packet it emits, fakes the Internet
// InetSim-style when isolation is required, traps exploit payloads
// with the handshaker's fake victims (§2.4), contains non-C2 egress
// SNORT-style (§2.6), and — in weaponized mode — redirects the
// sample's C2 call-home to arbitrary probe targets (§2.1's second
// mode of execution).
package sandbox

import (
	"fmt"
	"net/netip"
	"time"

	"malnet/internal/binfmt"
	"malnet/internal/c2"
	"malnet/internal/malware"
	"malnet/internal/obs"
	"malnet/internal/simclock"
	"malnet/internal/simnet"
)

// Mode selects how the sandbox connects the sample to the world.
type Mode uint8

// Execution modes.
const (
	// ModeIsolated fakes the Internet: DNS resolves everything to
	// an InetSim host that accepts any TCP connection. No traffic
	// reaches real hosts. This is how C2 addresses are detected
	// without contacting them (§2.6a).
	ModeIsolated Mode = iota
	// ModeLive lets the sample reach the (virtual) Internet,
	// optionally restricted to C2-only egress (§2.5: "restricted
	// mode (only C2 traffic is allowed)").
	ModeLive
)

// RunOptions configures one activation.
type RunOptions struct {
	Mode Mode
	// Duration is the analysis window (the paper watches live C2
	// sessions for 2 hours).
	Duration time.Duration
	// RestrictToC2 contains all egress except to the sample's
	// resolved C2 endpoints (and DNS). Only meaningful in
	// ModeLive.
	RestrictToC2 bool
	// RedirectC2 rewrites the sample's C2-bound dials to this
	// target — CnCHunter's weaponized probing.
	RedirectC2 *simnet.Addr
	// DisableFakeServices turns off InetSim in isolated mode: DNS
	// queries fail and nothing answers TCP. Used by the activation
	// ablation (§6f) to show why the paper deploys InetSim.
	DisableFakeServices bool
	// DisableScanning suppresses the sample's victim scanner for
	// this run — used by the C2-liveness and DDoS-watch windows,
	// where only C2 traffic matters and scan containment noise
	// would dominate the event budget.
	DisableScanning bool
	// HandshakerThreshold enables exploit trapping: once a scanned
	// port has been tried against this many distinct addresses,
	// later dials to it are redirected to a fake victim and the
	// first payload is captured. 0 disables. The paper uses 20.
	HandshakerThreshold int
	// OnAttack surfaces ground-truth attack executions (tests and
	// dataset validation; the pipeline itself re-derives attacks
	// from traffic).
	OnAttack func(cmd c2.Command)
	// EventBudget arms the activation watchdog: an emulation that
	// fires this many simulated events before its window closes is
	// declared hung, aborted, and reported with TimedOut set. 0
	// disables the watchdog (unbounded, the historical behavior).
	EventBudget int
	// NoCapture leaves Report.Capture empty, for a caller that never
	// reads it. Everything else in the report is unchanged: the tap
	// still fills each dial's FirstOut and BytesOut, and the run
	// fires the same events.
	NoCapture bool
}

// DialRecord is one outbound TCP connection attempt observed by the
// sandbox MITM layer.
type DialRecord struct {
	Time time.Time
	// Requested is where the sample wanted to connect.
	Requested simnet.Addr
	// Actual is where the sandbox routed it (differs under
	// redirection).
	Actual simnet.Addr
	// Local is the sample-side ephemeral endpoint.
	Local simnet.Addr
	// Name is the DNS name the sample resolved immediately before
	// this dial, when the destination came from a lookup. It
	// disambiguates attribution when several names resolve to one
	// address (in isolated mode, everything resolves to InetSim).
	Name string
	// Established reports handshake completion.
	Established bool
	// BytesIn / BytesOut are payload totals over the connection.
	BytesIn, BytesOut int
	// FirstOut is the first payload the sample sent.
	FirstOut []byte
	// FirstIn is the first payload the peer sent.
	FirstIn []byte
	// Err is the failure, if the dial failed.
	Err error
}

// CapturedExploit is a handshaker catch.
type CapturedExploit struct {
	Time time.Time
	// Port is the victim port the exploit targeted.
	Port uint16
	// Payload is the captured exploit bytes.
	Payload []byte
	// DistinctIPs is how many addresses the sample had scanned on
	// the port when the trap armed.
	DistinctIPs int
}

// Report is the outcome of one activation.
type Report struct {
	// SHA256 identifies the sample.
	SHA256 string
	// HostIP is the sandbox host the sample ran on.
	HostIP netip.Addr
	// Activated reports whether the sample passed its anti-sandbox
	// gate and began operating (the paper's ~90 % activation rate).
	Activated bool
	// Config is the behavioral profile the emulation recovered.
	Config *binfmt.BotConfig
	// Capture is every packet the sample's host sent or received.
	Capture []simnet.PacketRecord
	// Dials are the MITM-observed TCP attempts in order.
	Dials []*DialRecord
	// DNSQueries are the names the sample resolved, in order.
	DNSQueries []string
	// Resolutions maps resolved names to the answers they got,
	// letting the pipeline attribute dials to DNS-based C2s.
	Resolutions map[string]netip.Addr
	// Exploits are handshaker catches.
	Exploits []CapturedExploit
	// TimedOut reports that the activation watchdog aborted a hung
	// emulation: the sample exhausted RunOptions.EventBudget before
	// the analysis window closed. The partial capture up to the abort
	// is retained.
	TimedOut bool
	// Faults counts the network faults injected into this activation
	// (zero when no fault plan is installed).
	Faults simnet.FaultStats
	// EventsFired counts simulated events the activation consumed —
	// the watchdog's meter.
	EventsFired int
	// Started/Ended bound the analysis window.
	Started, Ended time.Time
}

// Config describes the sandbox installation.
type Config struct {
	// IP is the sandbox host's address (the infected device).
	IP netip.Addr
	// InetSimIP hosts the fake-Internet services in ModeIsolated.
	InetSimIP netip.Addr
	// TrapIP hosts the handshaker's fake victims.
	TrapIP netip.Addr
	// DNS resolves names in ModeLive (the world's name service);
	// nil means every lookup fails.
	DNS func(name string) (netip.Addr, bool)
	// DNSServer is where fake DNS query packets are addressed
	// (traffic realism); zero means 8.8.8.8.
	DNSServer netip.Addr
	// Seed drives per-run determinism.
	Seed int64
}

// Sandbox is an installed analysis environment. One Sandbox runs one
// sample at a time.
type Sandbox struct {
	cfg   Config
	net   *simnet.Network
	clock *simclock.Clock
	host  *simnet.Host
	inet  *simnet.Host
	trap  *simnet.Host

	run *runState
}

// flowKey identifies a dialed connection by its endpoints.
type flowKey struct {
	local, remote simnet.Addr
}

// runState is the per-activation mutable state.
type runState struct {
	opts     RunOptions
	report   *Report
	tap      simnet.Tap
	bot      *malware.Bot
	c2Allow  map[netip.Addr]bool
	scanSeen map[uint16]map[netip.Addr]bool
	trapped  map[uint16]bool
	dialFlow map[flowKey]*DialRecord
	// lastName remembers the most recent name resolved to each
	// address; the next dial to that address inherits it.
	lastName map[netip.Addr]string
}

// New installs a sandbox on the network.
func New(n *simnet.Network, cfg Config) *Sandbox {
	if !cfg.IP.IsValid() {
		cfg.IP = netip.MustParseAddr("10.99.0.2")
	}
	if !cfg.InetSimIP.IsValid() {
		cfg.InetSimIP = netip.MustParseAddr("10.99.0.3")
	}
	if !cfg.TrapIP.IsValid() {
		cfg.TrapIP = netip.MustParseAddr("10.99.0.4")
	}
	if !cfg.DNSServer.IsValid() {
		cfg.DNSServer = netip.MustParseAddr("8.8.8.8")
	}
	sb := &Sandbox{
		cfg:   cfg,
		net:   n,
		clock: n.Clock,
		host:  n.AddHost(cfg.IP),
		inet:  n.AddHost(cfg.InetSimIP),
		trap:  n.AddHost(cfg.TrapIP),
	}
	sb.installInetSim()
	return sb
}

// Host returns the sandbox's infected-device host.
func (sb *Sandbox) Host() *simnet.Host { return sb.host }

// Network returns the network the sandbox is installed on — shard
// owners use it to install the study's fault plan on a freshly built
// shard net.
func (sb *Sandbox) Network() *simnet.Network { return sb.net }

// NewShard installs a sandbox on a private, freshly built network
// driven by clock — the isolation unit of the parallel study
// executor. The network is seeded like the shared world net, and
// since simnet latency is a pure function of (seed, address pair),
// the shard observes the same delays the world would. It only ever
// hosts the sandbox trio, which is all an isolated-mode run can
// reach: InetSim impersonates every C2 and scanned addresses are
// dead air either way. A non-nil rec redirects the shard network's
// metering (traffic counters, fault counters/events) onto the
// caller's recorder — the executor passes the per-sample recorder so
// shard telemetry merges back in feed order.
func NewShard(clock *simclock.Clock, seed int64, dns func(name string) (netip.Addr, bool), rec *obs.Recorder) *Sandbox {
	netCfg := simnet.DefaultConfig()
	netCfg.Seed = seed
	n := simnet.New(clock, netCfg)
	if rec != nil {
		n.SetObs(rec)
	}
	return New(n, Config{DNS: dns, Seed: seed})
}

// Run activates raw as a sample for opts.Duration of virtual time
// and returns the analysis report. The caller drives the clock; Run
// itself advances it (it is synchronous in virtual time).
func (sb *Sandbox) Run(raw []byte, opts RunOptions) (*Report, error) {
	bin, err := binfmt.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("sandbox: loading sample: %w", err)
	}
	cfg, err := binfmt.ExtractConfig(bin)
	if err != nil {
		return nil, fmt.Errorf("sandbox: emulating sample %s: %w", bin.SHA256[:12], err)
	}
	if opts.Duration <= 0 {
		opts.Duration = 2 * time.Hour
	}
	report := &Report{
		SHA256:      bin.SHA256,
		HostIP:      sb.cfg.IP,
		Config:      cfg,
		Started:     sb.clock.Now(),
		Resolutions: map[string]netip.Addr{},
	}
	rs := &runState{
		opts:     opts,
		report:   report,
		c2Allow:  map[netip.Addr]bool{},
		scanSeen: map[uint16]map[netip.Addr]bool{},
		trapped:  map[uint16]bool{},
		dialFlow: map[flowKey]*DialRecord{},
		lastName: map[netip.Addr]string{},
	}
	sb.run = rs

	// Pre-resolve configured C2 endpoints for the egress allowlist.
	for _, spec := range cfg.C2Addrs {
		if addr, ok := sb.resolveSpec(spec); ok {
			rs.c2Allow[addr.IP] = true
		}
	}

	tap := simnet.TapFunc(func(rec simnet.PacketRecord, outbound bool) {
		if !opts.NoCapture {
			report.Capture = append(report.Capture, rec)
		}
		if outbound && rec.Proto == simnet.ProtoTCP && len(rec.Payload) > 0 {
			if d := rs.dialFlow[flowKey{rec.Src, rec.Dst}]; d != nil {
				if d.FirstOut == nil {
					d.FirstOut = rec.Payload
				}
				d.BytesOut += len(rec.Payload)
			}
		}
	})
	rs.tap = tap
	detach := sb.host.AttachTap(tap)
	if opts.Mode == ModeLive && opts.RestrictToC2 {
		sb.host.Egress = func(dst simnet.Addr, proto simnet.Protocol) bool {
			if dst.IP == sb.cfg.DNSServer || dst.IP == sb.cfg.InetSimIP || dst.IP == sb.cfg.TrapIP {
				return true
			}
			return rs.c2Allow[dst.IP]
		}
	}

	botCfg := cfg
	if opts.DisableScanning {
		c := *cfg
		c.ScanPorts = nil
		botCfg = &c
	}
	env := malware.Env{
		Host:       sb.host,
		Clock:      sb.clock,
		Dialer:     malware.DialerFunc(sb.dial),
		Resolve:    sb.resolve,
		Rand:       detrandRand(sb.cfg.Seed, bin.SHA256),
		OnAttack:   opts.OnAttack,
		OnActivate: func() { report.Activated = true },
	}
	bot := malware.New(botCfg, env)
	rs.bot = bot
	bot.Start()

	faultsBefore := sb.net.FaultStats()
	if opts.EventBudget > 0 {
		fired, exhausted := sb.clock.RunBudget(report.Started.Add(opts.Duration), opts.EventBudget)
		report.EventsFired, report.TimedOut = fired, exhausted
	} else {
		report.EventsFired = sb.clock.RunFor(opts.Duration)
	}

	bot.Stop()
	detach()
	sb.host.Egress = nil
	report.Faults = sb.net.FaultStats().Sub(faultsBefore)
	report.Ended = sb.clock.Now()
	sb.run = nil
	if opts.Mode == ModeLive {
		// Drain connection teardown: the bot's Stop closed its C2
		// sessions, but the FIN segments are still in flight (one-way
		// latency tops out under 200ms). Running the clock briefly
		// past the window lets them land so the servers close their
		// session state and cancel the attached keepalive/TTL timers.
		// Without this the shared-world event queue keeps dead-session
		// timers whose firing depends on when the *next* window opens
		// — state a checkpoint/resume cycle cannot reproduce. The
		// drain is unconditional so an uninterrupted run and a resumed
		// one see identical queues.
		sb.clock.RunFor(time.Second)
	}
	return report, nil
}
