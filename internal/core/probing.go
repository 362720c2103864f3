package core

import (
	"net/netip"
	"sort"
	"strconv"
	"time"

	"malnet/internal/c2"
	"malnet/internal/obs"
	"malnet/internal/simnet"
)

// ProbePorts is Table 5: the twelve ports with a history of
// malicious activity that the D-PC2 study probes.
var ProbePorts = []uint16{1312, 666, 1791, 9506, 606, 6738, 5555, 1014, 3074, 6969, 42516, 81}

// ProbeConfig parameterizes the active-probing study (§2.3b): probe
// a set of subnets across a port list every Interval for Rounds
// rounds, using a weaponized sample's C2 protocol as the probe
// payload.
type ProbeConfig struct {
	// Subnets to sweep.
	Subnets []simnet.Subnet
	// Ports per host; nil means ProbePorts.
	Ports []uint16
	// Interval between rounds; the paper uses 4 h.
	Interval time.Duration
	// Rounds is the number of sweeps; the paper's two weeks at 4 h
	// = 84.
	Rounds int
	// Family selects the weaponized protocol ("mirai" sends the
	// binary handshake and expects the ping echo; text families
	// send a login and expect the server's keepalive).
	Family string
	// SourceIP is the prober's address.
	SourceIP netip.Addr
	// EngageTimeout bounds how long a probe waits for protocol
	// engagement after connecting.
	EngageTimeout time.Duration
	// Retries is the per-probe budget of additional attempts after a
	// transient failure (timeout or reset). 0 disables retrying, which
	// keeps the clean-network schedule identical to the historical one.
	Retries int
	// RetryBase and RetryCap shape the exponential backoff between
	// attempts; defaults are 2s and 30s when Retries > 0. Delays are
	// simclock-driven — retrying never touches wall time.
	RetryBase time.Duration
	RetryCap  time.Duration
	// Seed feeds the deterministic backoff jitter.
	Seed int64
	// Obs meters probe activity (attempts, retries, virtual backoff
	// time, dispositions) onto a recorder. Nil disables metering.
	// Probe callbacks run on whichever goroutine drives the clock,
	// so the recorder must be owned by that goroutine.
	Obs *obs.Recorder
}

// ProbeOutcome is one probe's verdict.
type ProbeOutcome uint8

// Probe verdicts, ordered by strength: a round keeps its strongest.
const (
	// ProbeNoAnswer: connection refused or timed out.
	ProbeNoAnswer ProbeOutcome = iota
	// ProbeAcceptedSilent: TCP accepted but no protocol engagement.
	ProbeAcceptedSilent
	// ProbeBanner: a well-known service banner answered — the
	// ethics filter excludes the host from C2 candidacy.
	ProbeBanner
	// ProbeEngaged: the peer spoke the C2 protocol back.
	ProbeEngaged
)

// ProbeTarget aggregates one endpoint's history across rounds.
type ProbeTarget struct {
	Addr simnet.Addr
	// Outcomes has one entry per round.
	Outcomes []ProbeOutcome
	// Banner is the first banner observed, if any.
	Banner string
}

// Engagements counts rounds with protocol engagement.
func (pt *ProbeTarget) Engagements() int {
	n := 0
	for _, o := range pt.Outcomes {
		if o == ProbeEngaged {
			n++
		}
	}
	return n
}

// EverBanner reports whether the host ever presented a well-known
// banner.
func (pt *ProbeTarget) EverBanner() bool {
	for _, o := range pt.Outcomes {
		if o == ProbeBanner {
			return true
		}
	}
	return false
}

// ProbeStudy is the full D-PC2 result.
type ProbeStudy struct {
	Config ProbeConfig
	// Started is the virtual time of round 0.
	Started time.Time
	// LiveC2s are targets that engaged at least once and never
	// bannered, sorted by address. Populated at finalization.
	LiveC2s []*ProbeTarget
	// ProbesSent counts every probe attempt, including retries.
	ProbesSent int
	// Retries counts attempts that were re-dials after a transient
	// failure (so ProbesSent - Retries is the first-attempt count).
	Retries int
	// Done reports finalization (the clock passed the last round).
	Done bool
}

// Raster renders Figure 4's probe-response matrix: one row per live
// C2, one column per round, true = engaged.
func (ps *ProbeStudy) Raster() [][]bool {
	out := make([][]bool, len(ps.LiveC2s))
	for i, t := range ps.LiveC2s {
		row := make([]bool, len(t.Outcomes))
		for j, o := range t.Outcomes {
			row[j] = o == ProbeEngaged
		}
		out[i] = row
	}
	return out
}

// SecondProbeMissRate computes the §3.2 headline: the fraction of
// successful probes whose immediate next probe (Interval later) got
// no engagement.
func (ps *ProbeStudy) SecondProbeMissRate() (rate float64, pairs int) {
	var after, miss int
	for _, t := range ps.LiveC2s {
		for i := 0; i+1 < len(t.Outcomes); i++ {
			if t.Outcomes[i] == ProbeEngaged {
				after++
				if t.Outcomes[i+1] != ProbeEngaged {
					miss++
				}
			}
		}
	}
	if after == 0 {
		return 0, 0
	}
	return float64(miss) / float64(after), after
}

// MaxDailyStreak returns the longest run of consecutive engaged
// probes within any single day across live C2s (the paper: never
// 6/6 in a day).
func (ps *ProbeStudy) MaxDailyStreak() int {
	perDay := 1
	if ps.Config.Interval > 0 {
		perDay = int(24 * time.Hour / ps.Config.Interval)
	}
	best := 0
	for _, t := range ps.LiveC2s {
		for day := 0; day*perDay < len(t.Outcomes); day++ {
			run := 0
			for i := day * perDay; i < (day+1)*perDay && i < len(t.Outcomes); i++ {
				if t.Outcomes[i] == ProbeEngaged {
					run++
					if run > best {
						best = run
					}
				} else {
					run = 0
				}
			}
		}
	}
	return best
}

// RunProbing executes the study on the network, driving the clock
// through Rounds sweeps, and returns the aggregated results.
func RunProbing(n *simnet.Network, cfg ProbeConfig) *ProbeStudy {
	study := ScheduleProbing(n, cfg)
	n.Clock.RunUntil(study.Started.Add(time.Duration(study.Config.Rounds)*study.Config.Interval + study.Config.EngageTimeout + time.Second))
	return study
}

// ScheduleProbing arranges the study's rounds on the clock and
// returns the (initially empty) result aggregate. The caller — e.g.
// the year-long study driver interleaving probing with daily sample
// analysis — advances the clock; once it passes the final round plus
// the engagement timeout, Done is true and the results are complete.
func ScheduleProbing(n *simnet.Network, cfg ProbeConfig) *ProbeStudy {
	if cfg.Ports == nil {
		cfg.Ports = ProbePorts
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 4 * time.Hour
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 84
	}
	if cfg.EngageTimeout <= 0 {
		cfg.EngageTimeout = 90 * time.Second
	}
	if cfg.Family == "" {
		cfg.Family = c2.FamilyMirai
	}
	if cfg.Retries > 0 {
		if cfg.RetryBase <= 0 {
			cfg.RetryBase = 2 * time.Second
		}
		if cfg.RetryCap <= 0 {
			cfg.RetryCap = 30 * time.Second
		}
	}
	if !cfg.SourceIP.IsValid() {
		cfg.SourceIP = netip.MustParseAddr("10.98.0.2")
	}
	pb := &prober{
		net:     n,
		cfg:     cfg,
		study:   &ProbeStudy{Config: cfg, Started: n.Clock.Now()},
		host:    n.AddHost(cfg.SourceIP),
		targets: map[simnet.Addr]*ProbeTarget{},
		// Counters are cached up front; a nil cfg.Obs yields nil
		// no-op counters, so the probe loop needs no conditionals.
		mAttempts:  cfg.Obs.Counter("probe.attempts"),
		mRetries:   cfg.Obs.Counter("probe.retries"),
		mBackoffNs: cfg.Obs.Counter("probe.backoff_virtual_ns"),
		mAccepted:  cfg.Obs.Counter("probe.tcp_accepted"),
		mEngaged:   cfg.Obs.Counter("probe.engaged"),
		mBanners:   cfg.Obs.Counter("probe.banners"),
	}
	study := pb.study

	for round := 0; round < cfg.Rounds; round++ {
		round := round
		n.Clock.Schedule(study.Started.Add(time.Duration(round)*cfg.Interval), func() {
			// The family's protocol is resolved once per sweep, not
			// per probe or per received segment.
			pr := &probeRound{prober: pb, index: round, handshake: c2.ProbeHandshake(cfg.Family)}
			pr.proto, _ = c2.Lookup(cfg.Family)
			var hosts []netip.Addr
			for _, subnet := range cfg.Subnets {
				hosts = append(hosts, subnet.Hosts()...)
			}
			// One slice for the round's probes, never grown: the clock
			// and the conns hold pointers into it.
			probes := make([]probe, len(hosts)*len(cfg.Ports))
			for i := range probes {
				p := &probes[i]
				*p = probe{probeRound: pr, addr: simnet.Addr{IP: hosts[i/len(cfg.Ports)], Port: cfg.Ports[i%len(cfg.Ports)]}}
				p.try(0)
			}
		})
	}
	// Finalize after the last round plus the engagement window.
	n.Clock.Schedule(study.Started.Add(time.Duration(cfg.Rounds-1)*cfg.Interval+cfg.EngageTimeout+time.Second), func() {
		for _, t := range pb.targets {
			if t.Engagements() > 0 && !t.EverBanner() {
				study.LiveC2s = append(study.LiveC2s, t)
			}
		}
		sort.Slice(study.LiveC2s, func(i, j int) bool {
			a, b := study.LiveC2s[i].Addr, study.LiveC2s[j].Addr
			if a.IP != b.IP {
				return a.IP.Less(b.IP)
			}
			return a.Port < b.Port
		})
		study.Done = true
	})
	return study
}

// prober is one probing study's shared state: the prober host, the
// cached counters and every endpoint's history.
type prober struct {
	net     *simnet.Network
	cfg     ProbeConfig
	study   *ProbeStudy
	host    *simnet.Host
	targets map[simnet.Addr]*ProbeTarget

	mAttempts, mRetries, mBackoffNs, mAccepted, mEngaged, mBanners *obs.Counter
}

// probeRound is one sweep over every subnet host and port, with the
// family's handshake and protocol resolved when the round fires.
type probeRound struct {
	*prober
	index     int
	handshake [][]byte
	proto     c2.Protocol // nil: the family is not registered
}

// engages classifies peer data as C2-protocol engagement, as
// c2.ProbeEngaged does: without a registered probe rule, any data
// counts.
func (pr *probeRound) engages(b []byte) bool {
	if pr.proto == nil {
		return len(b) > 0
	}
	return pr.proto.ProbeEngaged(b)
}

// probe is one endpoint's probe in one round. Its verdict spans
// every retry attempt. It is the handler of each attempt's conn and
// of its own timers, which carry the attempt they belong to.
type probe struct {
	*probeRound
	addr      simnet.Addr
	engaged   bool
	attempt   int          // the current attempt; 0 is the first dial
	conn      *simnet.Conn // the current attempt's conn
	connected bool         // the current attempt connected
}

// Probe timer kinds, the low bit of a timer's argument; the attempt
// is the rest.
const (
	probeEngageTimeout uint64 = iota
	probeRetry
)

// record folds one verdict into the endpoint's history.
func (p *probe) record(o ProbeOutcome, banner string) {
	t := p.targets[p.addr]
	if t == nil {
		t = &ProbeTarget{Addr: p.addr, Outcomes: make([]ProbeOutcome, p.cfg.Rounds)}
		p.targets[p.addr] = t
	}
	// Keep the strongest verdict for the round (engagement beats
	// silence).
	if o > t.Outcomes[p.index] {
		t.Outcomes[p.index] = o
	}
	if banner != "" && t.Banner == "" {
		t.Banner = banner
	}
}

// try dials attempt number attempt (0 is the first dial).
func (p *probe) try(attempt int) {
	p.study.ProbesSent++
	p.mAttempts.Inc()
	if attempt > 0 {
		p.study.Retries++
		p.mRetries.Inc()
	}
	p.attempt, p.connected = attempt, false
	p.conn = p.host.DialTCP(p.addr, p)
}

// Fire runs a probe timer: an engagement timeout closes its attempt's
// conn if that attempt is still current and established, and a retry
// dials its attempt.
func (p *probe) Fire(arg uint64) {
	attempt := int(arg >> 1)
	switch arg & 1 {
	case probeEngageTimeout:
		if attempt == p.attempt && p.conn.Established() {
			p.conn.Close()
		}
	case probeRetry:
		p.try(attempt)
	}
}

// OnConnect sends the weaponized handshake and arms the engagement
// timeout.
func (p *probe) OnConnect(cn *simnet.Conn) {
	p.connected = true
	p.mAccepted.Inc()
	for _, msg := range p.handshake {
		cn.Write(msg)
	}
	p.record(ProbeAcceptedSilent, "")
	p.net.Clock.AfterCall(p.cfg.EngageTimeout, p, uint64(p.attempt)<<1|probeEngageTimeout)
}

// OnData classifies the peer's answer: a well-known banner excludes
// the host, protocol engagement marks it live.
func (p *probe) OnData(cn *simnet.Conn, b []byte) {
	if c2.WellKnownBanner(b) {
		p.mBanners.Inc()
		p.record(ProbeBanner, string(b[:min(len(b), 40)]))
		cn.Close()
		return
	}
	if !p.engaged && p.engages(b) {
		p.engaged = true
		p.mEngaged.Inc()
		p.record(ProbeEngaged, "")
		cn.Close()
	}
}

// OnClose scores a reset as a live host and schedules a retry after a
// transient failure, within the per-probe budget.
func (p *probe) OnClose(cn *simnet.Conn, err error) {
	if err == nil || p.engaged {
		return
	}
	if p.connected && c2.AliveOnReset(err) {
		// RST during the banner wait: something spoke TCP and hung
		// up on us — alive but rude, not dead air.
		p.record(ProbeAcceptedSilent, "")
	}
	// Under a flaky network a timeout or reset is worth re-dialing,
	// within the per-probe budget.
	if p.attempt < p.cfg.Retries && c2.TransientProbeError(err) {
		bo := c2.Backoff{
			Base: p.cfg.RetryBase, Cap: p.cfg.RetryCap,
			Seed: p.cfg.Seed, Key: p.addr.String() + "#" + strconv.Itoa(p.index),
		}
		delay := bo.Delay(p.attempt)
		p.mBackoffNs.Add(int64(delay))
		p.net.Clock.AfterCall(delay, p, uint64(p.attempt+1)<<1|probeRetry)
	}
}
