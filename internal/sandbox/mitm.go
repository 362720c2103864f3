package sandbox

import (
	"math/rand"
	"net/netip"
	"strconv"
	"strings"

	"malnet/internal/detrand"
	"malnet/internal/packet"
	"malnet/internal/simnet"
)

// detrandRand derives a deterministic *rand.Rand for a sample run.
func detrandRand(seed int64, sha string) *rand.Rand {
	return rand.New(rand.NewSource(int64(detrand.Hash64(seed, "bot", sha))))
}

// resolveSpec resolves a config "host:port" to a concrete endpoint
// without emitting traffic (used to build the egress allowlist).
func (sb *Sandbox) resolveSpec(spec string) (simnet.Addr, bool) {
	i := strings.LastIndexByte(spec, ':')
	if i < 0 {
		return simnet.Addr{}, false
	}
	port, err := strconv.ParseUint(spec[i+1:], 10, 16)
	if err != nil {
		return simnet.Addr{}, false
	}
	host := spec[:i]
	if ip, perr := netip.ParseAddr(host); perr == nil {
		return simnet.Addr{IP: ip, Port: uint16(port)}, true
	}
	if sb.cfg.DNS != nil {
		if ip, ok := sb.cfg.DNS(host); ok {
			return simnet.Addr{IP: ip, Port: uint16(port)}, true
		}
	}
	return simnet.Addr{}, false
}

// resolve is the bot-facing DNS hook. It records the query, emits a
// realistic DNS packet exchange, and answers per the mode: InetSim
// answers everything with its own address in isolation; the world's
// DNS answers in live mode.
func (sb *Sandbox) resolve(name string) (netip.Addr, bool) {
	rs := sb.run
	if rs == nil {
		return netip.Addr{}, false
	}
	rs.report.DNSQueries = append(rs.report.DNSQueries, name)

	var answer netip.Addr
	ok := false
	if rs.opts.Mode == ModeIsolated {
		if !rs.opts.DisableFakeServices {
			answer, ok = sb.cfg.InetSimIP, true
		}
	} else if sb.cfg.DNS != nil {
		answer, ok = sb.cfg.DNS(name)
	}

	// Wire realism: query out, answer (or NXDOMAIN) back, visible
	// to the capture tap.
	q := packet.NewDNSQuery(uint16(len(rs.report.DNSQueries)), name)
	if wire, err := q.Encode(); err == nil {
		sb.host.SendUDP(53530, simnet.Addr{IP: sb.cfg.DNSServer, Port: 53}, wire)
	}
	resp := q.Answer(answer, 60)
	if !ok {
		resp = q.Answer(netip.Addr{}, 0)
	}
	if wire, err := resp.Encode(); err == nil && !rs.opts.NoCapture {
		rs.report.Capture = append(rs.report.Capture, simnet.PacketRecord{
			Time:  sb.clock.Now(),
			Src:   simnet.Addr{IP: sb.cfg.DNSServer, Port: 53},
			Dst:   simnet.Addr{IP: sb.cfg.IP, Port: 53530},
			Proto: simnet.ProtoUDP, Payload: wire, Size: len(wire) + 28, Count: 1,
		})
	}
	if ok {
		rs.c2Allow[answer] = true // resolved C2 endpoints pass egress
		rs.report.Resolutions[name] = answer
		rs.lastName[answer] = name
	}
	return answer, ok
}

// dial is the MITM layer every bot TCP connection crosses. It
// implements C2 redirection (weaponized probing), isolated-mode
// InetSim routing, and the handshaker's fake-victim trap, while
// recording a DialRecord for the pipeline's classifiers.
func (sb *Sandbox) dial(to simnet.Addr, h simnet.ConnHandler) *simnet.Conn {
	rs := sb.run
	if rs == nil {
		return sb.host.DialTCP(to, h)
	}
	md := &mitmDial{DialRecord: DialRecord{Time: sb.clock.Now(), Requested: to, Actual: to}, bot: h}
	rec := &md.DialRecord
	rec.Name = rs.lastName[to.IP]
	rs.report.Dials = append(rs.report.Dials, rec)

	isC2Bound := rs.c2Allow[to.IP]
	switch {
	case isC2Bound && rs.opts.RedirectC2 != nil:
		// Weaponized probing: send the call-home at the probe
		// target instead.
		rec.Actual = *rs.opts.RedirectC2
		rs.c2Allow[rec.Actual.IP] = true
	case isC2Bound && rs.opts.Mode == ModeIsolated:
		// Fake Internet: the C2 session terminates at InetSim.
		rec.Actual = simnet.Addr{IP: sb.cfg.InetSimIP, Port: to.Port}
		sb.ensureInetSimPort(to.Port)
	case !isC2Bound:
		rec.Actual = sb.handshakerRoute(to)
	}

	conn := sb.host.DialTCP(rec.Actual, md)
	rec.Local = conn.LocalAddr()
	// The run tap fills FirstOut/BytesOut from outbound payloads
	// keyed by this flow.
	rs.dialFlow[flowKey{rec.Local, rec.Actual}] = rec
	return conn
}

// mitmDial is one MITM'd dial: the record the report keeps, and the
// bot's handler, which it calls after recording each event.
type mitmDial struct {
	DialRecord
	bot simnet.ConnHandler
}

func (d *mitmDial) OnConnect(c *simnet.Conn) {
	d.Established = true
	d.bot.OnConnect(c)
}

func (d *mitmDial) OnData(c *simnet.Conn, b []byte) {
	if d.FirstIn == nil {
		d.FirstIn = append([]byte{}, b...)
	}
	d.BytesIn += len(b)
	d.bot.OnData(c, b)
}

func (d *mitmDial) OnClose(c *simnet.Conn, err error) {
	d.Err = err
	d.bot.OnClose(c, err)
}

// handshakerRoute counts scan targets per port and, past the
// threshold, redirects the dial to the fake-victim trap.
func (sb *Sandbox) handshakerRoute(to simnet.Addr) simnet.Addr {
	rs := sb.run
	if rs.opts.HandshakerThreshold <= 0 {
		return to
	}
	seen := rs.scanSeen[to.Port]
	if seen == nil {
		seen = map[netip.Addr]bool{}
		rs.scanSeen[to.Port] = seen
	}
	seen[to.IP] = true
	if !rs.trapped[to.Port] && len(seen) >= rs.opts.HandshakerThreshold {
		rs.trapped[to.Port] = true
		sb.armTrap(to.Port, len(seen))
	}
	if rs.trapped[to.Port] {
		return simnet.Addr{IP: sb.cfg.TrapIP, Port: to.Port}
	}
	return to
}

// armTrap installs the fake victim on the trap host: it completes
// the TCP handshake and records the first payload as a captured
// exploit (§2.4).
func (sb *Sandbox) armTrap(port uint16, distinct int) {
	rs := sb.run
	sb.trap.ListenTCP(port, func(local, remote simnet.Addr) simnet.ConnHandler {
		return &trapConn{sb: sb, rs: rs, port: port, distinct: distinct}
	})
}

// trapConn is one connection to a fake victim: it keeps the first
// payload as a captured exploit.
type trapConn struct {
	sb       *Sandbox
	rs       *runState
	port     uint16
	distinct int
	got      bool
}

func (t *trapConn) OnConnect(*simnet.Conn) {}

func (t *trapConn) OnData(c *simnet.Conn, b []byte) {
	if t.got || t.rs == nil {
		return
	}
	t.got = true
	t.rs.report.Exploits = append(t.rs.report.Exploits, CapturedExploit{
		Time:        t.sb.clock.Now(),
		Port:        t.port,
		Payload:     append([]byte{}, b...),
		DistinctIPs: t.distinct,
	})
}

func (t *trapConn) OnClose(*simnet.Conn, error) {}

// installInetSim arms the fake-Internet host's generic services: a
// catch-all HTTP responder on common web ports; other ports are
// armed lazily by dial routing.
func (sb *Sandbox) installInetSim() {
	for _, p := range []uint16{80, 443, 8080} {
		sb.ensureInetSimPort(p)
	}
}

// ensureInetSimPort makes the InetSim host accept connections on
// port, answering HTTP-looking requests with a generic 200 and
// staying silent otherwise (so C2 handshakes flow into the capture).
func (sb *Sandbox) ensureInetSimPort(port uint16) {
	if sb.inet.TCPListening(port) {
		return
	}
	sb.inet.ListenTCP(port, func(local, remote simnet.Addr) simnet.ConnHandler {
		return simnet.ConnFuncs{
			Data: func(c *simnet.Conn, b []byte) {
				if len(b) > 4 && (string(b[:4]) == "GET " || string(b[:5]) == "POST ") {
					c.Write([]byte("HTTP/1.0 200 OK\r\nServer: INetSim HTTP Server\r\nContent-Length: 0\r\n\r\n"))
				}
			},
		}
	})
}
