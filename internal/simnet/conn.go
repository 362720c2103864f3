package simnet

import (
	"time"

	"malnet/internal/faultinject"
)

// connState tracks a Conn through its lifecycle.
type connState uint8

const (
	stateConnecting connState = iota
	stateEstablished
	stateClosed
)

// Conn is one side of an established (or establishing) TCP-like
// connection. All methods must be called from the event loop.
type Conn struct {
	host    *Host
	local   Addr
	remote  Addr
	handler ConnHandler
	peer    *Conn
	state   connState
	// fIn marks the accepting side: segments it sends travel "in",
	// the dialer's "out", in the fault plan's coordinates.
	fIn bool
	id  uint64

	// Stats observed by this side.
	bytesIn  int
	bytesOut int
	opened   time.Time

	// f is the injected-fault schedule and its coordinates, nil until
	// a fault plan needs them. fSeq is the dialer-relative connection
	// number (it stays 0, a pair's first number, on a conn dialed with
	// no plan); fSeg counts data segments this side has attempted to
	// send.
	f    *connFaults
	fSeq uint64
	fSeg int
}

// connFaults is what a fault plan decided for one connection, shared
// by both sides when it is decided at dial time: its schedule and the
// dialer-relative endpoint coordinates the plan hashes.
type connFaults struct {
	plan     faultinject.ConnFaults
	src, dst string
}

// noFaults is the schedule of a conn dialed with no plan: ConnPlan's
// answer for a nil plan.
var noFaults = (*faultinject.Plan)(nil).ConnPlan("", "", 0)

// faults returns c's fault schedule; a conn without one carries none.
func (c *Conn) faults() faultinject.ConnFaults {
	if c.f == nil {
		return noFaults
	}
	return c.f.plan
}

// faultCoords returns the dialer-relative endpoint coordinates the
// fault plan hashes: the dialing host's IP and the dialed ip:port. A
// conn dialed under a plan has them from dial time; any other conn
// renders them on first use from its own addresses, so both halves
// of a connection agree on them and a conn dialed before
// InstallFaults still draws the plan's decisions.
func (c *Conn) faultCoords() (src, dst string) {
	if c.f == nil {
		dialer, dialed := c.local, c.remote
		if c.fIn {
			dialer, dialed = c.remote, c.local
		}
		c.f = &connFaults{plan: noFaults, src: dialer.IP.String(), dst: dialed.String()}
	}
	return c.f.src, c.f.dst
}

// LocalAddr returns this side's address.
func (c *Conn) LocalAddr() Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() Addr { return c.remote }

// Established reports whether the connection completed its handshake
// and has not closed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// BytesIn returns payload bytes received so far.
func (c *Conn) BytesIn() int { return c.bytesIn }

// BytesOut returns payload bytes sent so far.
func (c *Conn) BytesOut() int { return c.bytesOut }

// OpenedAt returns when the connection became established.
func (c *Conn) OpenedAt() time.Time { return c.opened }

// DialTCP opens a TCP connection from the host to addr. The returned
// Conn is in the connecting state; handler.OnConnect fires when the
// handshake completes, or handler.OnClose fires with ErrRefused,
// ErrTimeout, or ErrBlocked if it cannot.
func (h *Host) DialTCP(to Addr, handler ConnHandler) *Conn {
	n := h.net
	n.nextID++
	c := &Conn{
		host:    h,
		local:   Addr{IP: h.IP, Port: h.ephemeralPort()},
		remote:  to,
		handler: handler,
		state:   stateConnecting,
		id:      n.nextID,
	}
	// Only a fault plan reads the pair counters, so a clean network
	// keeps none, and a clean conn no fault schedule.
	if n.faults != nil {
		c.fSeq = n.nextConnSeq(h.IP, to)
		src, dst := c.faultCoords()
		c.f.plan = n.faults.ConnPlan(src, dst, c.fSeq)
	}
	faults := c.faults()
	n.m.connsDialed.Inc()
	now := n.Clock.Now()
	syn := PacketRecord{
		Time: now, Src: c.local, Dst: to, Proto: ProtoTCP,
		Flags: FlagSYN, Size: tcpHeaderBytes, Count: 1,
	}
	if h.Egress != nil && !h.Egress(to, ProtoTCP) {
		// Containment drop: the SYN is recorded at the host tap
		// but never leaves, so the dialer sees a plain timeout.
		h.tap(syn, true)
		c.after(n.cfg.SYNTimeout, connTimeout)
		return c
	}
	// The dialed host, looked up once: it receives the SYN, and its
	// state decides the dial.
	dst := n.hosts[to.IP]
	n.record(h, dst, syn)

	// Every fault below needs a plan, so c.f is set when one fires.
	if faults.ExtraLatency > 0 {
		n.m.latencySpikes.Inc()
		n.faultEvent("fault.latency_spike", c.f.src, c.f.dst)
	}
	if faults.DripChunk > 0 {
		n.m.slowDrips.Inc()
		n.faultEvent("fault.slow_drip", c.f.src, c.f.dst)
	}
	if dst == nil || !dst.Online {
		c.after(n.cfg.SYNTimeout, connTimeout)
		return c
	}
	if n.darkAt(to.IP, now) {
		// Injected blackout: the host is up but unreachable for the
		// moment — indistinguishable from offline to the dialer.
		n.m.blackouts.Inc()
		n.faultEvent("fault.blackout", c.f.src, c.f.dst)
		c.after(n.cfg.SYNTimeout, connTimeout)
		return c
	}
	if faults.DropSYN {
		// Injected handshake loss: the SYN left the host tap but
		// the network ate it.
		n.m.synsDropped.Inc()
		n.faultEvent("fault.syn_drop", c.f.src, c.f.dst)
		c.after(n.cfg.SYNTimeout, connTimeout)
		return c
	}
	rtt := 2 * (n.Latency(h.IP, to.IP) + faults.ExtraLatency)
	acceptor, listening := dst.tcpListeners[to.Port]
	if !listening {
		// RST comes back after one round trip.
		n.record(dst, h, PacketRecord{
			Time: now.Add(n.Latency(h.IP, to.IP)), Src: to, Dst: c.local,
			Proto: ProtoTCP, Flags: FlagRST | FlagACK, Size: tcpHeaderBytes, Count: 1,
		})
		c.after(rtt, connRefused)
		return c
	}
	n.fly(now.Add(rtt), flightHandshake, flight{dst: dst, conn: c, acceptor: acceptor})
	return c
}

// handshake completes the dial once the SYN's round trip is up,
// accepting through the acceptor that was bound when c dialed.
func (c *Conn) handshake(dst *Host, acceptor TCPAcceptor) {
	if c.state != stateConnecting {
		return
	}
	if !dst.Online {
		// Host went dark mid-handshake.
		c.fail(ErrTimeout)
		return
	}
	serverHandler := acceptor(c.remote, c.local)
	if serverHandler == nil {
		c.fail(ErrRefused)
		return
	}
	n := dst.net
	n.record(dst, c.host, PacketRecord{
		Time: n.Clock.Now(), Src: c.remote, Dst: c.local, Proto: ProtoTCP,
		Flags: FlagSYN | FlagACK, Size: tcpHeaderBytes, Count: 1,
	})
	server := &Conn{
		host:  dst,
		local: c.remote, remote: c.local,
		handler: serverHandler,
		state:   stateEstablished,
		id:      c.id,
		opened:  n.Clock.Now(),
		// The accepting side shares the dialer's fault schedule
		// (same coordinates, opposite direction) so both halves
		// of a connection agree on its fate.
		f:    c.f,
		fSeq: c.fSeq, fIn: true,
	}
	n.m.connsEstablished.Inc()
	c.peer = server
	server.peer = c
	c.state = stateEstablished
	c.opened = n.Clock.Now()
	server.handler.OnConnect(server)
	c.handler.OnConnect(c)
}

// Conn timer kinds, the argument of a connEvents event.
const (
	connTimeout uint64 = iota // the SYN went unanswered
	connRefused               // an RST answered the SYN
	connPeerFIN               // the peer closed cleanly
	connPeerRST               // the peer aborted, or the network forged an RST
)

// connEvents is a Conn as the clock's handler for its own timers, so
// Conn gains no exported method.
type connEvents Conn

// after schedules the conn timer kind d from now.
func (c *Conn) after(d time.Duration, kind uint64) {
	c.host.net.Clock.AfterCall(d, (*connEvents)(c), kind)
}

// Fire runs one conn timer. It fires even on a conn that has since
// closed, and then does nothing.
func (e *connEvents) Fire(kind uint64) {
	c := (*Conn)(e)
	switch kind {
	case connTimeout:
		c.fail(ErrTimeout)
	case connRefused:
		c.fail(ErrRefused)
	case connPeerFIN:
		c.peerClosed(nil)
	case connPeerRST:
		c.peerClosed(ErrReset)
	}
}

// deliver hands one data segment to c, unless c closed or its host
// went offline while the segment was in flight.
func (c *Conn) deliver(b []byte) {
	if c.state != stateEstablished || !c.host.Online {
		return
	}
	c.bytesIn += len(b)
	c.handler.OnData(c, b)
}

// peerClosed closes an established c when its peer's FIN or RST
// arrives.
func (c *Conn) peerClosed(err error) {
	if c.state != stateEstablished {
		return
	}
	c.state = stateClosed
	c.handler.OnClose(c, err)
}

// dropSegment asks the installed fault plan, if any, whether this
// side's seg-th data segment is lost in flight.
func (c *Conn) dropSegment(seg int) bool {
	p := c.host.net.faults
	if p == nil {
		return false
	}
	dir := "out"
	if c.fIn {
		dir = "in"
	}
	src, dst := c.faultCoords()
	return p.DropSegment(src, dst, c.fSeq, dir, seg)
}

// fail closes a connecting or established conn with err.
func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.handler.OnClose(c, err)
}

// Write sends payload to the peer; the peer's OnData fires after the
// one-way latency. Writing on a non-established connection returns
// ErrClosed. Under an installed fault plan a write may be silently
// lost (segment loss), delivered in chunks (slow drip), or replaced
// by a forged RST that closes both sides with ErrReset — in which
// case Write returns ErrReset, mirroring a real ECONNRESET.
func (c *Conn) Write(payload []byte) error {
	if c.state != stateEstablished {
		return ErrClosed
	}
	n := c.host.net
	faults := c.faults()
	seg := c.fSeg
	c.fSeg++
	if faults.ResetAfterSegment >= 0 && seg >= faults.ResetAfterSegment {
		n.m.resetsInjected.Inc()
		n.faultEvent("fault.reset", c.f.src, c.f.dst)
		c.injectReset()
		return ErrReset
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	c.bytesOut += len(buf)
	n.m.tcpBytes.Add(int64(len(buf)))
	rec := PacketRecord{
		Time: n.Clock.Now(), Src: c.local, Dst: c.remote, Proto: ProtoTCP,
		Flags: FlagPSH | FlagACK, Payload: buf, Size: len(buf) + tcpHeaderBytes, Count: 1,
	}
	if c.host.Egress != nil && !c.host.Egress(c.remote, ProtoTCP) {
		// Perimeter drop mid-connection: recorded, not delivered.
		c.host.tap(rec, true)
		return nil
	}
	if c.dropSegment(seg) {
		// Injected segment loss: the sender's tap sees the packet
		// leave, the peer never does.
		n.m.segmentsDropped.Inc()
		n.faultEvent("fault.segment_drop", c.f.src, c.f.dst)
		c.host.tap(rec, true)
		return nil
	}
	n.record(c.host, c.peer.host, rec)
	arrive := n.Clock.Now().Add(n.Latency(c.local.IP, c.remote.IP) + faults.ExtraLatency)
	if faults.DripChunk > 0 && len(buf) > faults.DripChunk {
		// Slow drip: the peer receives the payload in chunks spaced
		// DripDelay apart — one write, several OnData calls, message
		// boundaries gone, exactly what incremental parsers must
		// survive on real sockets.
		for i, off := 0, 0; off < len(buf); i, off = i+1, off+faults.DripChunk {
			end := off + faults.DripChunk
			if end > len(buf) {
				end = len(buf)
			}
			n.fly(arrive.Add(time.Duration(i)*faults.DripDelay), flightData,
				flight{conn: c.peer, rec: PacketRecord{Payload: buf[off:end]}})
		}
		return nil
	}
	n.fly(arrive, flightData, flight{conn: c.peer, rec: PacketRecord{Payload: buf}})
	return nil
}

// Close performs an orderly FIN close. Both sides see OnClose(nil);
// the peer's fires after the one-way latency.
func (c *Conn) Close() {
	c.shutdown(connPeerFIN, FlagFIN|FlagACK)
}

// Abort tears the connection down with RST. The peer sees
// OnClose(ErrReset).
func (c *Conn) Abort() {
	c.shutdown(connPeerRST, FlagRST|FlagACK)
}

// injectReset tears the connection down as if the network forged an
// RST mid-stream: unlike Abort (where the aborting side closes
// cleanly), BOTH sides observe ErrReset — this is a fault, not a
// decision either endpoint made.
func (c *Conn) injectReset() {
	if c.state == stateClosed {
		return
	}
	n := c.host.net
	c.state = stateClosed
	n.record(c.host, c.peer.host, PacketRecord{
		Time: n.Clock.Now(), Src: c.local, Dst: c.remote, Proto: ProtoTCP,
		Flags: FlagRST | FlagACK, Size: tcpHeaderBytes, Count: 1,
	})
	c.peer.after(n.Latency(c.local.IP, c.remote.IP), connPeerRST)
	c.handler.OnClose(c, ErrReset)
}

// shutdown closes c and, if it was established, sends flags to the
// peer, whose peerKind timer closes it a one-way latency later.
func (c *Conn) shutdown(peerKind uint64, flags TCPFlags) {
	if c.state == stateClosed {
		return
	}
	wasEstablished := c.state == stateEstablished
	c.state = stateClosed
	if wasEstablished {
		n := c.host.net
		n.record(c.host, c.peer.host, PacketRecord{
			Time: n.Clock.Now(), Src: c.local, Dst: c.remote, Proto: ProtoTCP,
			Flags: flags, Size: tcpHeaderBytes, Count: 1,
		})
		c.peer.after(n.Latency(c.local.IP, c.remote.IP), peerKind)
	}
	c.handler.OnClose(c, nil)
}
