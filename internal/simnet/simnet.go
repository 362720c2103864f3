// Package simnet is a deterministic, event-driven virtual Internet.
//
// It stands in for the live network the MalNet paper measured: hosts
// with IPv4 addresses, TCP-like connections, UDP datagrams, ICMP, and
// per-host packet taps that feed the capture pipeline. All timing
// flows through a simclock.Clock, so a seeded run is reproducible.
//
// The TCP model is intentionally at segment granularity, not a full
// sliding-window implementation: connection setup (SYN, SYN-ACK or
// RST), ordered data delivery, FIN/RST teardown, and unreachable-host
// timeouts are modeled because the study observes them; congestion
// control is not, because no measurement in the paper depends on it.
// Each Write is delivered as one OnData call (message boundaries are
// preserved); protocol parsers elsewhere in this repository are still
// written incrementally so they also run over real net.Conn streams.
//
// Flood traffic (DDoS attacks, scanning) is represented by packet
// records carrying a Count, so a 50k pps flood costs one event per
// burst rather than one per packet while keeping packets-per-second
// arithmetic exact for the detection heuristics.
package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"time"

	"malnet/internal/checkpoint"
	"malnet/internal/detrand"
	"malnet/internal/faultinject"
	"malnet/internal/obs"
	"malnet/internal/simclock"
)

// Sentinel connection errors, mirroring the errno a real dialer would
// surface.
var (
	// ErrRefused is returned when the remote host is online but no
	// listener is bound to the destination port (TCP RST).
	ErrRefused = errors.New("simnet: connection refused")
	// ErrTimeout is returned when the remote host is offline or
	// filtered and the SYN goes unanswered.
	ErrTimeout = errors.New("simnet: connection timed out")
	// ErrReset is returned when an established connection is torn
	// down with RST.
	ErrReset = errors.New("simnet: connection reset by peer")
	// ErrClosed is returned when writing to a closed connection.
	ErrClosed = errors.New("simnet: connection closed")
)

// Protocol identifies the transport of a packet record.
type Protocol uint8

// Transport protocols used by the study's traffic.
const (
	ProtoTCP Protocol = iota
	ProtoUDP
	ProtoICMP
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	case ProtoICMP:
		return "ICMP"
	}
	return fmt.Sprintf("Protocol(%d)", uint8(p))
}

// TCPFlags is a bitmask of TCP control flags.
type TCPFlags uint8

// TCP control flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// String renders flags like "SYN|ACK".
func (f TCPFlags) String() string {
	if f == 0 {
		return "-"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagPSH, "PSH"}, {FlagFIN, "FIN"}, {FlagRST, "RST"}}
	s := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	return s
}

// Addr is an IPv4 endpoint.
type Addr struct {
	IP   netip.Addr
	Port uint16
}

// AddrFrom builds an Addr from a dotted-quad string; it panics on a
// malformed literal, so it is for constants and tests.
func AddrFrom(ip string, port uint16) Addr {
	return Addr{IP: netip.MustParseAddr(ip), Port: port}
}

// String renders ip:port, byte for byte as fmt's "%s:%d" would,
// without fmt's allocations: dial and fault paths render addresses
// per connection.
func (a Addr) String() string {
	var buf [64]byte
	b := buf[:0]
	if a.IP.IsValid() {
		b = a.IP.AppendTo(b)
	} else {
		b = append(b, "invalid IP"...) // netip.Addr{}.String()
	}
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(a.Port), 10)
	return string(b)
}

// IsValid reports whether the address has a usable IP.
func (a Addr) IsValid() bool { return a.IP.IsValid() }

// PacketRecord is one captured wire event. Count > 1 compresses a
// burst of identical packets sent back-to-back starting at Time over
// Span; per-second rates divide Count by Span.
type PacketRecord struct {
	Time    time.Time
	Span    time.Duration // duration the burst covers; 0 for single packets
	Src     Addr
	Dst     Addr
	Proto   Protocol
	Flags   TCPFlags // TCP only
	ICMPTyp uint8    // ICMP only
	ICMPCod uint8    // ICMP only
	Payload []byte   // may be nil for flood bursts
	Size    int      // on-wire bytes of one packet, headers included
	Count   int      // number of packets this record represents (>= 1)
}

// PPS returns the packet rate of the record in packets per second.
// Single packets report 0 (no rate information).
func (r PacketRecord) PPS() float64 {
	if r.Span <= 0 {
		return 0
	}
	return float64(r.Count) / r.Span.Seconds()
}

// Tap receives a copy of every packet record a host sends or
// receives. Outbound reports the direction relative to the tapped
// host.
type Tap interface {
	Packet(rec PacketRecord, outbound bool)
}

// TapFunc adapts a function to the Tap interface.
type TapFunc func(rec PacketRecord, outbound bool)

// Packet implements Tap.
func (f TapFunc) Packet(rec PacketRecord, outbound bool) { f(rec, outbound) }

// ConnHandler receives events for one TCP connection. Callbacks fire
// on the simulation event loop; they must not block.
type ConnHandler interface {
	// OnConnect fires when the connection is established: after the
	// handshake for the dialing side, on accept for the listening
	// side.
	OnConnect(c *Conn)
	// OnData fires once per peer Write, in order.
	OnData(c *Conn, b []byte)
	// OnClose fires exactly once. err is nil for a clean FIN close,
	// ErrRefused/ErrTimeout for failed dials, ErrReset for aborts.
	OnClose(c *Conn, err error)
}

// ConnFuncs adapts plain functions to ConnHandler; nil fields are
// no-ops.
type ConnFuncs struct {
	Connect func(c *Conn)
	Data    func(c *Conn, b []byte)
	Close   func(c *Conn, err error)
}

// OnConnect implements ConnHandler.
func (h ConnFuncs) OnConnect(c *Conn) {
	if h.Connect != nil {
		h.Connect(c)
	}
}

// OnData implements ConnHandler.
func (h ConnFuncs) OnData(c *Conn, b []byte) {
	if h.Data != nil {
		h.Data(c, b)
	}
}

// OnClose implements ConnHandler.
func (h ConnFuncs) OnClose(c *Conn, err error) {
	if h.Close != nil {
		h.Close(c, err)
	}
}

// TCPAcceptor decides whether to accept an inbound TCP connection.
// Returning nil refuses it (RST).
type TCPAcceptor func(local, remote Addr) ConnHandler

// UDPHandler receives inbound datagrams on a bound UDP port.
type UDPHandler func(from, to Addr, payload []byte)

// Config tunes network-wide behavior.
type Config struct {
	// SYNTimeout is how long a dialer waits for a SYN-ACK from an
	// offline host before reporting ErrTimeout.
	SYNTimeout time.Duration
	// BaseLatency and LatencyJitter bound the deterministic
	// per-host-pair one-way delay: Base + [0, Jitter).
	BaseLatency   time.Duration
	LatencyJitter time.Duration
	// Seed drives the deterministic latency assignment.
	Seed int64
	// Faults, when non-nil, is consulted for deterministic fault
	// injection: SYN loss, segment loss, mid-stream resets, latency
	// spikes, host blackouts, and slow-drip delivery. Every decision
	// is a pure function of (plan seed, address pair, connection
	// sequence), so a faulted network is exactly as reproducible as
	// a clean one. See InstallFaults for enabling after construction.
	Faults *faultinject.Plan
}

// DefaultConfig returns production-shaped defaults: 21 s SYN timeout
// (3 retries at 1+2+4+8 s, rounded to what Linux surfaces), 10–190 ms
// one-way latency.
func DefaultConfig() Config {
	return Config{
		SYNTimeout:    21 * time.Second,
		BaseLatency:   10 * time.Millisecond,
		LatencyJitter: 180 * time.Millisecond,
		Seed:          1,
	}
}

// FaultStats counts injected faults since the network was built (or
// since the last snapshot diff a consumer takes). The counters are
// deterministic for a deterministic run: they are incremented on the
// owning goroutine as faults are applied.
type FaultStats struct {
	// SYNsDropped: handshakes swallowed whole (dialer times out).
	SYNsDropped int
	// SegmentsDropped: data writes lost in flight.
	SegmentsDropped int
	// ResetsInjected: connections torn down with a forged RST.
	ResetsInjected int
	// LatencySpikes: connections dialed with extra per-packet delay.
	LatencySpikes int
	// Blackouts: dials or datagrams that found the target host dark.
	Blackouts int
	// SlowDrips: connections dialed with chunked delivery.
	SlowDrips int
}

// Total sums every counter.
func (s FaultStats) Total() int {
	return s.SYNsDropped + s.SegmentsDropped + s.ResetsInjected + s.LatencySpikes + s.Blackouts + s.SlowDrips
}

// Sub returns s minus o, for before/after snapshot diffs.
func (s FaultStats) Sub(o FaultStats) FaultStats {
	return FaultStats{
		SYNsDropped:     s.SYNsDropped - o.SYNsDropped,
		SegmentsDropped: s.SegmentsDropped - o.SegmentsDropped,
		ResetsInjected:  s.ResetsInjected - o.ResetsInjected,
		LatencySpikes:   s.LatencySpikes - o.LatencySpikes,
		Blackouts:       s.Blackouts - o.Blackouts,
		SlowDrips:       s.SlowDrips - o.SlowDrips,
	}
}

// Add returns the element-wise sum of s and o.
func (s FaultStats) Add(o FaultStats) FaultStats {
	return FaultStats{
		SYNsDropped:     s.SYNsDropped + o.SYNsDropped,
		SegmentsDropped: s.SegmentsDropped + o.SegmentsDropped,
		ResetsInjected:  s.ResetsInjected + o.ResetsInjected,
		LatencySpikes:   s.LatencySpikes + o.LatencySpikes,
		Blackouts:       s.Blackouts + o.Blackouts,
		SlowDrips:       s.SlowDrips + o.SlowDrips,
	}
}

// connSeqKey identifies a (dialing host, destination endpoint) pair
// for the per-pair connection sequence counter.
type connSeqKey struct {
	src netip.Addr
	dst Addr
}

// connSeqEntry is one pair's counter: the sequence number its next
// connection will take.
type connSeqEntry struct {
	connSeqKey
	seq uint64
}

// Network is the virtual Internet.
type Network struct {
	Clock *simclock.Clock

	cfg    Config
	hosts  map[netip.Addr]*Host
	lat    map[[2]netip.Addr]time.Duration
	nextID uint64

	faults *faultinject.Plan
	// connSeqs holds the connection counter of every pair dialed
	// under a fault plan, in first-dial order, and connSeqAt indexes
	// it by pair; a clean network keeps none. The order is what the
	// checkpoint table is written in, so it must be deterministic:
	// every dial on one Network runs on its clock's goroutine.
	connSeqs  []connSeqEntry
	connSeqAt map[connSeqKey]int32

	// flights holds every delivery waiting on the clock, and
	// freeFlights the slots it can reuse.
	flights     []flight
	freeFlights []int32

	obs *obs.Recorder
	m   netMetrics
}

// flight is one delivery waiting on the clock: rec for dst's taps, a
// data segment (rec.Payload) for conn, or conn's handshake completing
// at dst through the acceptor bound when it dialed.
type flight struct {
	dst      *Host
	conn     *Conn
	acceptor TCPAcceptor
	rec      PacketRecord
}

// Flight kinds, the low two bits of an in-flight event's argument;
// the slot is the rest.
const (
	flightTap uint64 = iota
	flightData
	flightHandshake
)

// fly parks f in the in-flight table and schedules its delivery for
// at.
func (n *Network) fly(at time.Time, kind uint64, f flight) {
	var slot int32
	if k := len(n.freeFlights); k > 0 {
		slot = n.freeFlights[k-1]
		n.freeFlights = n.freeFlights[:k-1]
	} else {
		slot = int32(len(n.flights))
		n.flights = append(n.flights, flight{})
	}
	n.flights[slot] = f
	n.Clock.ScheduleCall(at, (*netEvents)(n), uint64(slot)<<2|kind)
}

// netEvents is a Network as the clock's handler for its in-flight
// events, so Network gains no exported method.
type netEvents Network

// Fire lands one in-flight delivery. The slot is freed before the
// delivery runs, since what it calls may send again. An event fires
// even when it will do nothing (a host without taps, a closed conn):
// the sandbox counts events.
func (e *netEvents) Fire(arg uint64) {
	n := (*Network)(e)
	slot := int32(arg >> 2)
	f := n.flights[slot]
	n.flights[slot] = flight{}
	n.freeFlights = append(n.freeFlights, slot)
	switch arg & 3 {
	case flightTap:
		if f.dst.Online {
			f.dst.tap(f.rec, false)
		}
	case flightData:
		f.conn.deliver(f.rec.Payload)
	case flightHandshake:
		f.conn.handshake(f.dst, f.acceptor)
	}
}

// netMetrics caches the network's obs counters so hot paths skip the
// registry map lookup. Rebuilt whenever the recorder changes.
type netMetrics struct {
	connsDialed      *obs.Counter
	connsEstablished *obs.Counter
	tcpBytes         *obs.Counter
	udpDatagrams     *obs.Counter

	synsDropped     *obs.Counter
	segmentsDropped *obs.Counter
	resetsInjected  *obs.Counter
	latencySpikes   *obs.Counter
	blackouts       *obs.Counter
	slowDrips       *obs.Counter
}

func (n *Network) bindObs(rec *obs.Recorder) {
	n.obs = rec
	n.m = netMetrics{
		connsDialed:      rec.Counter("simnet.conns_dialed"),
		connsEstablished: rec.Counter("simnet.conns_established"),
		tcpBytes:         rec.Counter("simnet.tcp_payload_bytes"),
		udpDatagrams:     rec.Counter("simnet.udp_datagrams"),
		synsDropped:      rec.Counter("simnet.faults.syn_drop"),
		segmentsDropped:  rec.Counter("simnet.faults.segment_drop"),
		resetsInjected:   rec.Counter("simnet.faults.reset"),
		latencySpikes:    rec.Counter("simnet.faults.latency_spike"),
		blackouts:        rec.Counter("simnet.faults.blackout"),
		slowDrips:        rec.Counter("simnet.faults.slow_drip"),
	}
}

// SetObs redirects the network's metering (traffic counters, fault
// counters, fault events) to rec. The executor points each shard
// network at its sample's recorder; the shared world network keeps
// the recorder it was born with. Counters already accumulated on the
// previous recorder are not carried over.
func (n *Network) SetObs(rec *obs.Recorder) {
	if rec != nil {
		n.bindObs(rec)
	}
}

// Obs returns the recorder currently metering this network.
func (n *Network) Obs() *obs.Recorder { return n.obs }

// faultEvent records one fault injection as a virtual-time event on
// the network's recorder (retained only when a journal armed events).
func (n *Network) faultEvent(name, src, dst string) {
	if ev := n.obs.Event(name, n.Clock.Now()); ev != nil {
		ev.SetAttr("src", src)
		ev.SetAttr("dst", dst)
	}
}

// New creates an empty network driven by clock.
func New(clock *simclock.Clock, cfg Config) *Network {
	if cfg.SYNTimeout <= 0 {
		cfg.SYNTimeout = DefaultConfig().SYNTimeout
	}
	if cfg.BaseLatency <= 0 {
		cfg.BaseLatency = DefaultConfig().BaseLatency
	}
	n := &Network{
		Clock:     clock,
		cfg:       cfg,
		hosts:     make(map[netip.Addr]*Host),
		lat:       make(map[[2]netip.Addr]time.Duration),
		faults:    cfg.Faults,
		connSeqAt: make(map[connSeqKey]int32),
	}
	n.bindObs(obs.NewRecorder())
	return n
}

// InstallFaults attaches (or, with nil, removes) a fault plan on an
// already-built network. The study driver uses it to enable chaos on
// the shared world network whose construction it does not own.
// Connection counters tick only while a plan is installed, so pairs
// dialed before the install count from zero.
func (n *Network) InstallFaults(p *faultinject.Plan) { n.faults = p }

// Faults returns the installed fault plan, nil when the network is
// clean.
func (n *Network) Faults() *faultinject.Plan { return n.faults }

// FaultStats returns the injected-fault counters accumulated so far.
// Consumers wanting per-window numbers snapshot before and after and
// diff with Sub. This is a compatibility view over the obs counters,
// which are the single home of fault metering.
func (n *Network) FaultStats() FaultStats {
	return FaultStats{
		SYNsDropped:     int(n.m.synsDropped.Value()),
		SegmentsDropped: int(n.m.segmentsDropped.Value()),
		ResetsInjected:  int(n.m.resetsInjected.Value()),
		LatencySpikes:   int(n.m.latencySpikes.Value()),
		Blackouts:       int(n.m.blackouts.Value()),
		SlowDrips:       int(n.m.slowDrips.Value()),
	}
}

// nextConnSeq returns the sequence number of the next connection from
// src to dst — the "conn sequence" coordinate of the fault plan's
// purity contract. A pair's first dial appends its entry to the slab.
func (n *Network) nextConnSeq(src netip.Addr, dst Addr) uint64 {
	k := connSeqKey{src: src, dst: dst}
	i, ok := n.connSeqAt[k]
	if !ok {
		i = int32(len(n.connSeqs))
		n.connSeqAt[k] = i
		n.connSeqs = append(n.connSeqs, connSeqEntry{connSeqKey: k})
	}
	e := &n.connSeqs[i]
	seq := e.seq
	e.seq++
	return seq
}

// The connection-counter table, as AppendConnSeqs writes it: a uvarint
// entry count, then per entry in first-dial order
//
//	src   the dialing host's address, as checkpoint.AppendIP writes it
//	dst   the dialed IP, the same way
//	port  2 bytes big-endian, the dialed port
//	seq   uvarint, the pair's next connection sequence number
const minConnSeqEntry = 1 + 1 + 2 + 1

// AppendConnSeqs appends every per-pair connection counter to b as the
// binary table above. The counters are the fault plan's third purity
// coordinate; the study checkpoints them so a resumed run draws the
// same fault schedule for every post-resume dial.
func (n *Network) AppendConnSeqs(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(n.connSeqs)))
	for i := range n.connSeqs {
		e := &n.connSeqs[i]
		b = checkpoint.AppendIP(b, e.src)
		b = checkpoint.AppendIP(b, e.dst.IP)
		b = binary.BigEndian.AppendUint16(b, e.dst.Port)
		b = binary.AppendUvarint(b, e.seq)
	}
	return b
}

// RestoreConnSeqs replaces the per-pair connection counters with a
// table written by AppendConnSeqs. Pairs first dialed after the
// restore append in the order an uninterrupted run would give them.
// Malformed input — a bad address length, a truncated entry, trailing
// bytes, a duplicate pair, a non-minimal varint, or a count the bytes
// cannot hold — is refused and leaves the counters as they were.
func (n *Network) RestoreConnSeqs(b []byte) error {
	count, b, err := checkpoint.ReadUvarint(b)
	if err != nil {
		return fmt.Errorf("simnet: conn-seq table count: %w", err)
	}
	if count > uint64(len(b))/minConnSeqEntry || count > math.MaxInt32 {
		return fmt.Errorf("simnet: conn-seq table claims %d entries in %d bytes", count, len(b))
	}
	entries := make([]connSeqEntry, count)
	index := make(map[connSeqKey]int32, count)
	for i := range entries {
		e := &entries[i]
		if e.src, b, err = checkpoint.ReadIP(b); err != nil {
			return fmt.Errorf("simnet: conn-seq entry %d src: %w", i, err)
		}
		if e.dst.IP, b, err = checkpoint.ReadIP(b); err != nil {
			return fmt.Errorf("simnet: conn-seq entry %d dst: %w", i, err)
		}
		if len(b) < 2 {
			return fmt.Errorf("simnet: conn-seq entry %d port: %w", i, checkpoint.ErrTruncated)
		}
		e.dst.Port, b = binary.BigEndian.Uint16(b), b[2:]
		if e.seq, b, err = checkpoint.ReadUvarint(b); err != nil {
			return fmt.Errorf("simnet: conn-seq entry %d seq: %w", i, err)
		}
		if _, dup := index[e.connSeqKey]; dup {
			return fmt.Errorf("simnet: conn-seq entry %d repeats pair %s -> %s", i, e.src, e.dst)
		}
		index[e.connSeqKey] = int32(i)
	}
	if len(b) != 0 {
		return fmt.Errorf("simnet: conn-seq table has %d trailing bytes", len(b))
	}
	n.connSeqs, n.connSeqAt = entries, index
	return nil
}

// darkAt reports whether ip is inside an injected blackout at t. A
// clean network answers without rendering the address.
func (n *Network) darkAt(ip netip.Addr, t time.Time) bool {
	if n.faults == nil {
		return false
	}
	return n.faults.Blackout(ip.String(), t)
}

// AddHost registers a host at ip. Adding an existing address returns
// the existing host so world generation can be idempotent.
func (n *Network) AddHost(ip netip.Addr) *Host {
	if h, ok := n.hosts[ip]; ok {
		return h
	}
	h := &Host{
		net:          n,
		IP:           ip,
		Online:       true,
		tcpListeners: make(map[uint16]TCPAcceptor),
		udpListeners: make(map[uint16]UDPHandler),
		nextEphem:    49152,
	}
	n.hosts[ip] = h
	return h
}

// Host returns the host at ip, or nil.
func (n *Network) Host(ip netip.Addr) *Host { return n.hosts[ip] }

// NumHosts returns the number of registered hosts.
func (n *Network) NumHosts() int { return len(n.hosts) }

// Latency returns the deterministic one-way delay between two
// addresses. The pair is symmetric, and the delay is a pure function
// of (network seed, address pair): two networks built from the same
// seed agree on every pair's latency regardless of traffic order.
// That pair-local determinism is what lets the study executor give
// each sandbox shard its own Network and still merge byte-identical
// results.
func (n *Network) Latency(a, b netip.Addr) time.Duration {
	key := [2]netip.Addr{a, b}
	if b.Less(a) {
		key = [2]netip.Addr{b, a}
	}
	if d, ok := n.lat[key]; ok {
		return d
	}
	d := n.cfg.BaseLatency
	if n.cfg.LatencyJitter > 0 {
		jitter := detrand.Hash64(n.cfg.Seed, "latency", key[0].String(), key[1].String())
		d += time.Duration(jitter % uint64(n.cfg.LatencyJitter))
	}
	n.lat[key] = d
	return d
}

// Host is one addressable machine.
type Host struct {
	net *Network
	IP  netip.Addr
	// Online gates reachability: an offline host answers nothing,
	// so dials to it time out. C2 duty-cycle models flip this.
	Online bool

	tcpListeners map[uint16]TCPAcceptor
	udpListeners map[uint16]UDPHandler
	taps         []*tapEntry
	nextEphem    uint16
	// Egress, when set, is consulted for every outbound packet;
	// returning false drops it at the network perimeter, SNORT
	// style: the host's own tap still records the attempt (the
	// sandbox's DDoS heuristic depends on seeing contained
	// floods), but nothing reaches the destination. Contained TCP
	// dials surface as ErrTimeout after the SYN timeout.
	Egress func(dst Addr, proto Protocol) bool
}

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// tapEntry wraps a Tap so registrations are identity-comparable
// even for func-typed taps.
type tapEntry struct{ t Tap }

// AttachTap registers a packet tap on the host and returns a
// function that detaches it.
func (h *Host) AttachTap(t Tap) (detach func()) {
	e := &tapEntry{t: t}
	h.taps = append(h.taps, e)
	return func() {
		for i, have := range h.taps {
			if have == e {
				h.taps = append(h.taps[:i], h.taps[i+1:]...)
				return
			}
		}
	}
}

// ListenTCP binds acceptor to a TCP port. It replaces any previous
// listener on the port.
func (h *Host) ListenTCP(port uint16, acceptor TCPAcceptor) {
	h.tcpListeners[port] = acceptor
}

// CloseTCP removes the TCP listener on port.
func (h *Host) CloseTCP(port uint16) { delete(h.tcpListeners, port) }

// TCPListening reports whether a TCP listener is bound to port.
func (h *Host) TCPListening(port uint16) bool {
	_, ok := h.tcpListeners[port]
	return ok
}

// ListenUDP binds handler to a UDP port.
func (h *Host) ListenUDP(port uint16, handler UDPHandler) {
	h.udpListeners[port] = handler
}

// CloseUDP removes the UDP listener on port.
func (h *Host) CloseUDP(port uint16) { delete(h.udpListeners, port) }

func (h *Host) ephemeralPort() uint16 {
	p := h.nextEphem
	h.nextEphem++
	if h.nextEphem == 0 {
		h.nextEphem = 49152
	}
	return p
}

func (h *Host) tap(rec PacketRecord, outbound bool) {
	for _, e := range h.taps {
		e.t.Packet(rec, outbound)
	}
}

// record taps a record at its sender, src, and, if the destination
// host dst (nil when none is registered at rec.Dst) is online, at the
// receiver after latency. Egress-contained traffic, which never leaves
// the perimeter, is tapped at the sender alone with src.tap.
func (n *Network) record(src, dst *Host, rec PacketRecord) {
	src.tap(rec, true)
	if dst == nil || !dst.Online {
		return
	}
	rec.Time = rec.Time.Add(n.Latency(rec.Src.IP, rec.Dst.IP))
	if n.darkAt(rec.Dst.IP, rec.Time) {
		// Injected blackout: the packet leaves the sender but the
		// dark host never taps it.
		return
	}
	n.fly(rec.Time, flightTap, flight{dst: dst, rec: rec})
}

const (
	tcpHeaderBytes  = 40 // IPv4 + TCP, no options
	udpHeaderBytes  = 28 // IPv4 + UDP
	icmpHeaderBytes = 28 // IPv4 + ICMP
)

// SendUDP emits a single UDP datagram. The datagram is tapped at both
// ends and delivered to a bound UDP handler on the destination.
func (h *Host) SendUDP(srcPort uint16, to Addr, payload []byte) {
	h.sendUDPBurst(srcPort, to, payload, 1, 0)
}

// SendUDPBurst emits count identical datagrams spread over span —
// the flood primitive. Only the first datagram is delivered to the
// destination handler (a flood victim's application behavior is not
// modeled), but taps see the full count for rate measurement.
func (h *Host) SendUDPBurst(srcPort uint16, to Addr, payload []byte, count int, span time.Duration) {
	h.sendUDPBurst(srcPort, to, payload, count, span)
}

func (h *Host) sendUDPBurst(srcPort uint16, to Addr, payload []byte, count int, span time.Duration) {
	if count < 1 {
		return
	}
	h.net.m.udpDatagrams.Add(int64(count))
	src := Addr{IP: h.IP, Port: srcPort}
	rec := PacketRecord{
		Time: h.net.Clock.Now(), Span: span,
		Src: src, Dst: to, Proto: ProtoUDP,
		Payload: payload, Size: len(payload) + udpHeaderBytes, Count: count,
	}
	if h.Egress != nil && !h.Egress(to, ProtoUDP) {
		h.tap(rec, true)
		return
	}
	dst := h.net.hosts[to.IP]
	h.net.record(h, dst, rec)
	if dst == nil || !dst.Online {
		return
	}
	if handler, ok := dst.udpListeners[to.Port]; ok {
		lat := h.net.Latency(h.IP, to.IP)
		if h.net.darkAt(to.IP, h.net.Clock.Now().Add(lat)) {
			h.net.m.blackouts.Inc()
			h.net.faultEvent("fault.blackout", h.IP.String(), to.String())
			return
		}
		h.net.Clock.After(lat, func() {
			if dst.Online {
				handler(src, to, payload)
			}
		})
	}
}

// SendTCPRaw emits stateless TCP segments (SYN floods, STOMP junk)
// without establishing a connection.
func (h *Host) SendTCPRaw(srcPort uint16, to Addr, flags TCPFlags, payloadLen, count int, span time.Duration) {
	if count < 1 {
		return
	}
	rec := PacketRecord{
		Time: h.net.Clock.Now(), Span: span,
		Src: Addr{IP: h.IP, Port: srcPort}, Dst: to, Proto: ProtoTCP,
		Flags: flags, Size: payloadLen + tcpHeaderBytes, Count: count,
	}
	if h.Egress != nil && !h.Egress(to, ProtoTCP) {
		h.tap(rec, true)
		return
	}
	h.net.record(h, h.net.hosts[to.IP], rec)
}

// SendICMP emits ICMP packets of the given type/code (BLACKNURSE is
// type 3 code 3 floods).
func (h *Host) SendICMP(to netip.Addr, typ, code uint8, count int, span time.Duration) {
	if count < 1 {
		return
	}
	rec := PacketRecord{
		Time: h.net.Clock.Now(), Span: span,
		Src: Addr{IP: h.IP}, Dst: Addr{IP: to}, Proto: ProtoICMP,
		ICMPTyp: typ, ICMPCod: code, Size: icmpHeaderBytes + 28, Count: count,
	}
	if h.Egress != nil && !h.Egress(Addr{IP: to}, ProtoICMP) {
		h.tap(rec, true)
		return
	}
	h.net.record(h, h.net.hosts[to], rec)
}
