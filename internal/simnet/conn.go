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
	net     *Network
	host    *Host
	local   Addr
	remote  Addr
	handler ConnHandler
	peer    *Conn
	state   connState
	id      uint64

	// Stats observed by this side.
	bytesIn  int
	bytesOut int
	opened   time.Time

	// Injected-fault schedule, decided once at dial time and shared
	// (by value) with the accepting side. fSrc/fDst/fSeq are the
	// dialer-relative fault-plan coordinates (fSeq stays 0, a pair's
	// first number, on a conn dialed with no plan); fDir is "out" on the
	// dialing side and "in" on the accepting side; fSeg counts data
	// segments this side has attempted to send. fSrc and fDst are
	// rendered by faultCoords on first use, so a clean network never
	// formats them.
	faults faultinject.ConnFaults
	fSrc   string
	fDst   string
	fSeq   uint64
	fDir   string
	fSeg   int
}

// faultCoords returns the dialer-relative endpoint coordinates the
// fault plan hashes: the dialing host's IP and the dialed ip:port.
// They are rendered once, on first use, from this side's own
// addresses, so both halves of a connection agree on them and a conn
// dialed before InstallFaults still draws the plan's decisions.
func (c *Conn) faultCoords() (src, dst string) {
	if c.fSrc == "" {
		dialer, dialed := c.local, c.remote
		if c.fDir == "in" {
			dialer, dialed = c.remote, c.local
		}
		c.fSrc, c.fDst = dialer.IP.String(), dialed.String()
	}
	return c.fSrc, c.fDst
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
		net: n, host: h,
		local:   Addr{IP: h.IP, Port: h.ephemeralPort()},
		remote:  to,
		handler: handler,
		state:   stateConnecting,
		id:      n.nextID,
		fDir:    "out",
	}
	// Only a fault plan reads the pair counters, so a clean network
	// keeps none.
	var fSrc, fDst string
	if n.faults != nil {
		c.fSeq = n.nextConnSeq(h.IP, to)
		fSrc, fDst = c.faultCoords()
	}
	c.faults = n.faults.ConnPlan(fSrc, fDst, c.fSeq)
	n.m.connsDialed.Inc()
	now := n.Clock.Now()
	syn := PacketRecord{
		Time: now, Src: c.local, Dst: to, Proto: ProtoTCP,
		Flags: FlagSYN, Size: tcpHeaderBytes, Count: 1,
	}
	if h.Egress != nil && !h.Egress(to, ProtoTCP) {
		// Containment drop: the SYN is recorded at the host tap
		// but never leaves, so the dialer sees a plain timeout.
		n.recordLocal(syn)
		c.after(n.cfg.SYNTimeout, connTimeout)
		return c
	}
	n.record(syn)

	dst := n.hosts[to.IP]
	if c.faults.ExtraLatency > 0 {
		n.m.latencySpikes.Inc()
		n.faultEvent("fault.latency_spike", fSrc, fDst)
	}
	if c.faults.DripChunk > 0 {
		n.m.slowDrips.Inc()
		n.faultEvent("fault.slow_drip", fSrc, fDst)
	}
	if dst == nil || !dst.Online {
		c.after(n.cfg.SYNTimeout, connTimeout)
		return c
	}
	if n.darkAt(to.IP, now) {
		// Injected blackout: the host is up but unreachable for the
		// moment — indistinguishable from offline to the dialer.
		n.m.blackouts.Inc()
		n.faultEvent("fault.blackout", fSrc, fDst)
		c.after(n.cfg.SYNTimeout, connTimeout)
		return c
	}
	if c.faults.DropSYN {
		// Injected handshake loss: the SYN left the host tap but
		// the network ate it.
		n.m.synsDropped.Inc()
		n.faultEvent("fault.syn_drop", fSrc, fDst)
		c.after(n.cfg.SYNTimeout, connTimeout)
		return c
	}
	rtt := 2 * (n.Latency(h.IP, to.IP) + c.faults.ExtraLatency)
	acceptor, listening := dst.tcpListeners[to.Port]
	if !listening {
		// RST comes back after one round trip.
		n.record(PacketRecord{
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
	n := c.net
	n.record(PacketRecord{
		Time: n.Clock.Now(), Src: c.remote, Dst: c.local, Proto: ProtoTCP,
		Flags: FlagSYN | FlagACK, Size: tcpHeaderBytes, Count: 1,
	})
	server := &Conn{
		net: n, host: dst,
		local: c.remote, remote: c.local,
		handler: serverHandler,
		state:   stateEstablished,
		id:      c.id,
		opened:  n.Clock.Now(),
		// The accepting side shares the dialer's fault schedule
		// (same coordinates, opposite direction) so both halves
		// of a connection agree on its fate.
		faults: c.faults,
		fSeq:   c.fSeq, fDir: "in",
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
	c.net.Clock.AfterCall(d, (*connEvents)(c), kind)
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
	p := c.net.faults
	if p == nil {
		return false
	}
	src, dst := c.faultCoords()
	return p.DropSegment(src, dst, c.fSeq, c.fDir, seg)
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
	seg := c.fSeg
	c.fSeg++
	if c.faults.ResetAfterSegment >= 0 && seg >= c.faults.ResetAfterSegment {
		c.net.m.resetsInjected.Inc()
		src, dst := c.faultCoords()
		c.net.faultEvent("fault.reset", src, dst)
		c.injectReset()
		return ErrReset
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	c.bytesOut += len(buf)
	c.net.m.tcpBytes.Add(int64(len(buf)))
	n := c.net
	rec := PacketRecord{
		Time: n.Clock.Now(), Src: c.local, Dst: c.remote, Proto: ProtoTCP,
		Flags: FlagPSH | FlagACK, Payload: buf, Size: len(buf) + tcpHeaderBytes, Count: 1,
	}
	if c.host.Egress != nil && !c.host.Egress(c.remote, ProtoTCP) {
		// Perimeter drop mid-connection: recorded, not delivered.
		n.recordLocal(rec)
		return nil
	}
	if c.dropSegment(seg) {
		// Injected segment loss: the sender's tap sees the packet
		// leave, the peer never does.
		n.m.segmentsDropped.Inc()
		n.faultEvent("fault.segment_drop", c.fSrc, c.fDst)
		n.recordLocal(rec)
		return nil
	}
	n.record(rec)
	arrive := n.Clock.Now().Add(n.Latency(c.local.IP, c.remote.IP) + c.faults.ExtraLatency)
	if c.faults.DripChunk > 0 && len(buf) > c.faults.DripChunk {
		// Slow drip: the peer receives the payload in chunks spaced
		// DripDelay apart — one write, several OnData calls, message
		// boundaries gone, exactly what incremental parsers must
		// survive on real sockets.
		for i, off := 0, 0; off < len(buf); i, off = i+1, off+c.faults.DripChunk {
			end := off + c.faults.DripChunk
			if end > len(buf) {
				end = len(buf)
			}
			n.fly(arrive.Add(time.Duration(i)*c.faults.DripDelay), flightData,
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
	n := c.net
	c.state = stateClosed
	n.record(PacketRecord{
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
		n := c.net
		n.record(PacketRecord{
			Time: n.Clock.Now(), Src: c.local, Dst: c.remote, Proto: ProtoTCP,
			Flags: flags, Size: tcpHeaderBytes, Count: 1,
		})
		c.peer.after(n.Latency(c.local.IP, c.remote.IP), peerKind)
	}
	c.handler.OnClose(c, nil)
}
