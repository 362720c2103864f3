package simnet

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"time"

	"malnet/internal/faultinject"
	"malnet/internal/simclock"
)

// faultNet builds a network with a single-fault plan: only the given
// rate is non-zero, at probability 1, so the fault fires on every
// connection.
func faultNet(cfg faultinject.Config) *Network {
	netCfg := DefaultConfig()
	netCfg.Faults = faultinject.New(cfg)
	return New(simclock.New(start), netCfg)
}

func twoHosts(n *Network) (srv, cli *Host) {
	srv = n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli = n.AddHost(netip.MustParseAddr("10.0.0.2"))
	srv.ListenTCP(23, echoAcceptor)
	return srv, cli
}

// TestInjectedSYNLossTimesOut: a swallowed handshake surfaces as a
// plain ErrTimeout even though the listener is alive.
func TestInjectedSYNLossTimesOut(t *testing.T) {
	n := faultNet(faultinject.Config{Seed: 1, SYNLossRate: 1})
	srv, cli := twoHosts(n)
	_ = srv

	var gotErr error
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Close: func(c *Conn, err error) { gotErr = err },
	})
	n.Clock.RunFor(30 * time.Second)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout from injected SYN loss", gotErr)
	}
	if n.FaultStats().SYNsDropped != 1 {
		t.Fatalf("SYNsDropped = %d, want 1", n.FaultStats().SYNsDropped)
	}
}

// TestInjectedResetClosesBothSides: a forged RST mid-stream delivers
// ErrReset to both endpoints and to the writer's return value.
func TestInjectedResetClosesBothSides(t *testing.T) {
	n := faultNet(faultinject.Config{Seed: 1, ResetRate: 1, ResetMaxSegment: 1})
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var srvErr error
	srv.ListenTCP(23, func(local, remote Addr) ConnHandler {
		return ConnFuncs{Close: func(c *Conn, err error) { srvErr = err }}
	})

	var cliErr, writeErr error
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Connect: func(c *Conn) {
			// ResetMaxSegment=1 means the RST lands on segment 0 or
			// 1; two writes guarantee it fires.
			if err := c.Write([]byte("a")); err != nil {
				writeErr = err
				return
			}
			writeErr = c.Write([]byte("b"))
		},
		Close: func(c *Conn, err error) { cliErr = err },
	})
	n.Clock.RunFor(30 * time.Second)
	if !errors.Is(writeErr, ErrReset) {
		t.Fatalf("Write returned %v, want ErrReset", writeErr)
	}
	if !errors.Is(cliErr, ErrReset) {
		t.Fatalf("client OnClose err = %v, want ErrReset", cliErr)
	}
	if !errors.Is(srvErr, ErrReset) {
		t.Fatalf("server OnClose err = %v, want ErrReset", srvErr)
	}
	if n.FaultStats().ResetsInjected != 1 {
		t.Fatalf("ResetsInjected = %d, want 1", n.FaultStats().ResetsInjected)
	}
}

// TestInjectedSegmentLossNotDelivered: a dropped segment is tapped at
// the sender but the peer's OnData never fires for it.
func TestInjectedSegmentLossNotDelivered(t *testing.T) {
	n := faultNet(faultinject.Config{Seed: 1, SegmentLossRate: 1})
	srv, cli := twoHosts(n)

	var sent int
	cli.AttachTap(TapFunc(func(rec PacketRecord, outbound bool) {
		if outbound && len(rec.Payload) > 0 {
			sent++
		}
	}))
	var echoed []byte
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Connect: func(c *Conn) { c.Write([]byte("hello")) },
		Data:    func(c *Conn, b []byte) { echoed = append(echoed, b...) },
	})
	n.Clock.RunFor(30 * time.Second)
	if sent != 1 {
		t.Fatalf("sender tap saw %d payload packets, want 1 (the lost segment still leaves the host)", sent)
	}
	if len(echoed) != 0 {
		t.Fatalf("peer echoed %q despite 100%% segment loss", echoed)
	}
	if n.FaultStats().SegmentsDropped == 0 {
		t.Fatal("SegmentsDropped not counted")
	}
	_ = srv
}

// TestSlowDripChunksDelivery: one Write arrives as several OnData
// calls whose concatenation is the original payload.
func TestSlowDripChunksDelivery(t *testing.T) {
	n := faultNet(faultinject.Config{Seed: 1, DripRate: 1, DripChunk: 3, DripDelay: 100 * time.Millisecond})
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var got [][]byte
	srv.ListenTCP(23, func(local, remote Addr) ConnHandler {
		return ConnFuncs{Data: func(c *Conn, b []byte) { got = append(got, b) }}
	})

	payload := []byte("0123456789")
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Connect: func(c *Conn) { c.Write(payload) },
	})
	n.Clock.RunFor(30 * time.Second)
	if len(got) < 2 {
		t.Fatalf("slow drip delivered %d chunks, want >= 2", len(got))
	}
	if !bytes.Equal(bytes.Join(got, nil), payload) {
		t.Fatalf("reassembled %q, want %q", bytes.Join(got, nil), payload)
	}
	if n.FaultStats().SlowDrips != 1 {
		t.Fatalf("SlowDrips = %d, want 1", n.FaultStats().SlowDrips)
	}
}

// TestBlackoutDialTimesOut: a host inside an injected blackout is
// unreachable, and reachable again once the blackout lifts.
func TestBlackoutDialTimesOut(t *testing.T) {
	n := faultNet(faultinject.Config{
		Seed: 1, BlackoutRate: 1,
		BlackoutWindow: time.Hour, BlackoutDuration: 10 * time.Minute,
	})
	srv, cli := twoHosts(n)

	var gotErr error
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Close: func(c *Conn, err error) { gotErr = err },
	})
	n.Clock.RunFor(30 * time.Second)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout while blacked out", gotErr)
	}
	if n.FaultStats().Blackouts == 0 {
		t.Fatal("Blackouts not counted")
	}

	// Advance past the blackout span inside the hour window; rate=1
	// means every window is affected, but only its first 10 minutes.
	n.Clock.RunUntil(start.Add(30 * time.Minute))
	var connected bool
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Connect: func(c *Conn) { connected = true },
	})
	n.Clock.RunFor(30 * time.Second)
	if !connected {
		t.Fatal("dial still failing after the blackout lifted")
	}
}

// TestLatencySpikeSlowsHandshake: a spiked connection completes its
// handshake later than a clean one between the same pair.
func TestLatencySpikeSlowsHandshake(t *testing.T) {
	connectAt := func(n *Network) time.Duration {
		srv, cli := twoHosts(n)
		_ = srv
		var at time.Time
		cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
			Connect: func(c *Conn) { at = n.Clock.Now() },
		})
		n.Clock.RunFor(time.Minute)
		if at.IsZero() {
			t.Fatal("handshake never completed")
		}
		return at.Sub(start)
	}
	clean := connectAt(newNet())
	spiked := connectAt(faultNet(faultinject.Config{Seed: 1, SpikeRate: 1, SpikeMax: 2 * time.Second}))
	if spiked <= clean {
		t.Fatalf("spiked handshake (%v) not slower than clean (%v)", spiked, clean)
	}
}

// TestFaultedNetworkDeterminism: two identically-seeded faulted
// networks produce identical event traces — the property the chaos
// equivalence suite scales up to whole studies.
func TestFaultedNetworkDeterminism(t *testing.T) {
	trace := func() []string {
		n := faultNet(faultinject.DefaultConfig(77))
		srv, cli := twoHosts(n)
		_ = srv
		var events []string
		for i := 0; i < 40; i++ {
			cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
				Connect: func(c *Conn) { c.Write([]byte("ping-a-long-payload")) },
				Data: func(c *Conn, b []byte) {
					events = append(events, n.Clock.Now().String()+" data "+string(b))
				},
				Close: func(c *Conn, err error) {
					events = append(events, n.Clock.Now().String()+" close "+errString(err))
				},
			})
			n.Clock.RunFor(45 * time.Second)
		}
		return events
	}
	a, b := trace(), trace()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestConnDialedBeforeInstallFaultsKeepsSegmentLoss: a plan installed
// after the handshake still decides each segment's fate from the
// connection's real coordinates, in both directions. A conn that took
// its coordinates only when a plan was present at dial time would
// hash empty strings here and drop different segments.
func TestConnDialedBeforeInstallFaultsKeepsSegmentLoss(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	const segments = 32
	var toSrv, toCli []byte
	var srvConn *Conn
	srv.ListenTCP(23, func(local, remote Addr) ConnHandler {
		return ConnFuncs{
			Connect: func(c *Conn) { srvConn = c },
			Data:    func(c *Conn, b []byte) { toSrv = append(toSrv, b...) },
		}
	})
	dialed := Addr{IP: srv.IP, Port: 23}
	cliConn := cli.DialTCP(dialed, ConnFuncs{
		Data: func(c *Conn, b []byte) { toCli = append(toCli, b...) },
	})
	n.Clock.RunFor(time.Second)
	if !cliConn.Established() || srvConn == nil {
		t.Fatal("handshake did not complete")
	}

	plan := faultinject.New(faultinject.Config{Seed: 7, SegmentLossRate: 0.5})
	n.InstallFaults(plan)
	for seg := 0; seg < segments; seg++ {
		cliConn.Write([]byte{byte(seg)})
		srvConn.Write([]byte{byte(seg)})
	}
	n.Clock.RunFor(time.Second)

	// Expected survivors, from the plan queried with the connection's
	// coordinates: the dialing host's IP, the dialed endpoint, the
	// first connection between them.
	survivors := func(src, dst, dir string) []byte {
		var out []byte
		for seg := 0; seg < segments; seg++ {
			if !plan.DropSegment(src, dst, 0, dir, seg) {
				out = append(out, byte(seg))
			}
		}
		return out
	}
	wantSrv := survivors(cli.IP.String(), dialed.String(), "out")
	wantCli := survivors(cli.IP.String(), dialed.String(), "in")
	if bytes.Equal(wantSrv, survivors("", "", "out")) && bytes.Equal(wantCli, survivors("", "", "in")) {
		t.Fatal("test seed cannot tell real coordinates from empty ones; pick another")
	}
	if !bytes.Equal(toSrv, wantSrv) {
		t.Fatalf("server received segments %v, want %v", toSrv, wantSrv)
	}
	if !bytes.Equal(toCli, wantCli) {
		t.Fatalf("client received segments %v, want %v", toCli, wantCli)
	}
}
