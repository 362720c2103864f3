package simnet

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"malnet/internal/simclock"
)

var start = time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

func newNet() *Network {
	return New(simclock.New(start), DefaultConfig())
}

func echoAcceptor(local, remote Addr) ConnHandler {
	return ConnFuncs{
		Data: func(c *Conn, b []byte) { c.Write(b) },
	}
}

func TestDialConnectsToListener(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	srv.ListenTCP(23, echoAcceptor)

	var connected bool
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Connect: func(c *Conn) { connected = true },
	})
	n.Clock.RunFor(5 * time.Second)
	if !connected {
		t.Fatal("dial to live listener did not connect")
	}
}

func TestDialRefusedWhenNoListener(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	_ = srv

	var gotErr error
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Close: func(c *Conn, err error) { gotErr = err },
	})
	n.Clock.RunFor(5 * time.Second)
	if !errors.Is(gotErr, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", gotErr)
	}
}

func TestDialTimesOutWhenHostOffline(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	srv.ListenTCP(23, echoAcceptor)
	srv.Online = false
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))

	var gotErr error
	var closedAt time.Time
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Close: func(c *Conn, err error) { gotErr, closedAt = err, n.Clock.Now() },
	})
	n.Clock.RunFor(time.Minute)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if elapsed := closedAt.Sub(start); elapsed != DefaultConfig().SYNTimeout {
		t.Fatalf("timed out after %v, want %v", elapsed, DefaultConfig().SYNTimeout)
	}
}

func TestDialTimesOutToUnknownIP(t *testing.T) {
	n := newNet()
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var gotErr error
	cli.DialTCP(AddrFrom("203.0.113.9", 80), ConnFuncs{
		Close: func(c *Conn, err error) { gotErr = err },
	})
	n.Clock.RunFor(time.Minute)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
}

func TestAcceptorRefusalResets(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	srv.ListenTCP(23, func(local, remote Addr) ConnHandler { return nil })

	var gotErr error
	cli.DialTCP(Addr{IP: srv.IP, Port: 23}, ConnFuncs{
		Close: func(c *Conn, err error) { gotErr = err },
	})
	n.Clock.RunFor(5 * time.Second)
	if !errors.Is(gotErr, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", gotErr)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	srv.ListenTCP(7, echoAcceptor)

	var got []byte
	cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
		Connect: func(c *Conn) { c.Write([]byte("hello")) },
		Data:    func(c *Conn, b []byte) { got = append(got, b...) },
	})
	n.Clock.RunFor(5 * time.Second)
	if string(got) != "hello" {
		t.Fatalf("echo = %q, want %q", got, "hello")
	}
}

func TestWritePreservesMessageBoundariesAndOrder(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var msgs []string
	srv.ListenTCP(7, func(local, remote Addr) ConnHandler {
		return ConnFuncs{Data: func(c *Conn, b []byte) { msgs = append(msgs, string(b)) }}
	})
	cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
		Connect: func(c *Conn) {
			c.Write([]byte("one"))
			c.Write([]byte("two"))
			c.Write([]byte("three"))
		},
	})
	n.Clock.RunFor(5 * time.Second)
	if len(msgs) != 3 || msgs[0] != "one" || msgs[1] != "two" || msgs[2] != "three" {
		t.Fatalf("msgs = %v", msgs)
	}
}

func TestCloseDeliversCleanCloseToPeer(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var srvClosed, cliClosed bool
	var srvErr error
	srv.ListenTCP(7, func(local, remote Addr) ConnHandler {
		return ConnFuncs{Close: func(c *Conn, err error) { srvClosed, srvErr = true, err }}
	})
	cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
		Connect: func(c *Conn) { c.Close() },
		Close:   func(c *Conn, err error) { cliClosed = true },
	})
	n.Clock.RunFor(5 * time.Second)
	if !srvClosed || !cliClosed {
		t.Fatalf("closed: srv=%v cli=%v", srvClosed, cliClosed)
	}
	if srvErr != nil {
		t.Fatalf("server close err = %v, want nil", srvErr)
	}
}

func TestAbortDeliversResetToPeer(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var srvErr error
	srv.ListenTCP(7, func(local, remote Addr) ConnHandler {
		return ConnFuncs{Close: func(c *Conn, err error) { srvErr = err }}
	})
	cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
		Connect: func(c *Conn) { c.Abort() },
	})
	n.Clock.RunFor(5 * time.Second)
	if !errors.Is(srvErr, ErrReset) {
		t.Fatalf("server close err = %v, want ErrReset", srvErr)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	srv.ListenTCP(7, echoAcceptor)
	var writeErr error
	cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
		Connect: func(c *Conn) {
			c.Close()
			writeErr = c.Write([]byte("late"))
		},
	})
	n.Clock.RunFor(5 * time.Second)
	if !errors.Is(writeErr, ErrClosed) {
		t.Fatalf("write after close = %v, want ErrClosed", writeErr)
	}
}

func TestEgressPolicyContainsDialButTapsIt(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	srv.ListenTCP(7, echoAcceptor)
	cli.Egress = func(dst Addr, proto Protocol) bool { return false }

	var tappedSYN bool
	cli.AttachTap(TapFunc(func(rec PacketRecord, outbound bool) {
		if outbound && rec.Flags == FlagSYN {
			tappedSYN = true
		}
	}))
	var gotErr error
	var accepted int
	srv.AttachTap(TapFunc(func(rec PacketRecord, outbound bool) { accepted++ }))
	cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
		Close: func(c *Conn, err error) { gotErr = err },
	})
	n.Clock.RunFor(time.Minute)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout (contained SYN)", gotErr)
	}
	if !tappedSYN {
		t.Fatal("contained SYN invisible to the host tap")
	}
	if accepted != 0 {
		t.Fatal("contained traffic reached the destination")
	}
}

func TestEgressPolicyContainsFloodButTapsIt(t *testing.T) {
	n := newNet()
	victim := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	bot := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	bot.Egress = func(dst Addr, proto Protocol) bool { return dst.Port == 23 } // only C2 allowed
	var delivered int
	victim.ListenUDP(80, func(src, dst Addr, payload []byte) { delivered++ })
	var tapped int
	bot.AttachTap(TapFunc(func(rec PacketRecord, outbound bool) {
		if outbound {
			tapped += rec.Count
		}
	}))
	bot.SendUDPBurst(4444, Addr{IP: victim.IP, Port: 80}, []byte{0}, 5000, time.Second)
	n.Clock.RunFor(2 * time.Second)
	if delivered != 0 {
		t.Fatal("contained flood delivered")
	}
	if tapped != 5000 {
		t.Fatalf("tap saw %d packets, want 5000", tapped)
	}
}

func TestTapSeesBothDirections(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	srv.ListenTCP(7, echoAcceptor)

	var out, in int
	cli.AttachTap(TapFunc(func(rec PacketRecord, outbound bool) {
		if outbound {
			out++
		} else {
			in++
		}
	}))
	cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
		Connect: func(c *Conn) { c.Write([]byte("x")) },
	})
	n.Clock.RunFor(5 * time.Second)
	// Outbound: SYN + data. Inbound: SYN-ACK + echo.
	if out < 2 || in < 2 {
		t.Fatalf("tap saw out=%d in=%d, want >=2 each", out, in)
	}
}

func TestUDPDelivery(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var got string
	var from Addr
	srv.ListenUDP(53, func(src, dst Addr, payload []byte) { got, from = string(payload), src })
	cli.SendUDP(5353, Addr{IP: srv.IP, Port: 53}, []byte("query"))
	n.Clock.RunFor(time.Second)
	if got != "query" {
		t.Fatalf("udp payload = %q", got)
	}
	if from.IP != cli.IP || from.Port != 5353 {
		t.Fatalf("udp src = %v", from)
	}
}

func TestUDPBurstCountVisibleToTap(t *testing.T) {
	n := newNet()
	victim := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	bot := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	_ = victim
	var recs []PacketRecord
	bot.AttachTap(TapFunc(func(rec PacketRecord, outbound bool) {
		if outbound {
			recs = append(recs, rec)
		}
	}))
	bot.SendUDPBurst(4444, Addr{IP: victim.IP, Port: 80}, []byte{0}, 50000, time.Second)
	n.Clock.RunFor(2 * time.Second)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].Count != 50000 {
		t.Fatalf("Count = %d, want 50000", recs[0].Count)
	}
	if pps := recs[0].PPS(); pps != 50000 {
		t.Fatalf("PPS = %v, want 50000", pps)
	}
}

func TestICMPRecorded(t *testing.T) {
	n := newNet()
	victim := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	bot := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var rec PacketRecord
	bot.AttachTap(TapFunc(func(r PacketRecord, outbound bool) {
		if outbound {
			rec = r
		}
	}))
	bot.SendICMP(victim.IP, 3, 3, 1000, time.Second)
	n.Clock.RunFor(2 * time.Second)
	if rec.Proto != ProtoICMP || rec.ICMPTyp != 3 || rec.ICMPCod != 3 {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestLatencyDeterministicAndSymmetric(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	b := netip.MustParseAddr("10.0.0.2")
	n1 := newNet()
	n2 := newNet()
	if n1.Latency(a, b) != n2.Latency(a, b) {
		t.Fatal("latency differs across identically seeded networks")
	}
	if n1.Latency(a, b) != n1.Latency(b, a) {
		t.Fatal("latency not symmetric")
	}
}

func TestOfflineHostDropsDataSilently(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	var got int
	srv.ListenTCP(7, func(local, remote Addr) ConnHandler {
		return ConnFuncs{Data: func(c *Conn, b []byte) { got += len(b) }}
	})
	var conn *Conn
	cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
		Connect: func(c *Conn) { conn = c },
	})
	n.Clock.RunFor(5 * time.Second)
	srv.Online = false
	conn.Write([]byte("into the void"))
	n.Clock.RunFor(5 * time.Second)
	if got != 0 {
		t.Fatalf("offline host received %d bytes", got)
	}
}

func TestSubnetHosts24(t *testing.T) {
	s := SubnetFrom("192.0.2.0/24")
	hosts := s.Hosts()
	if len(hosts) != 254 {
		t.Fatalf("len = %d, want 254", len(hosts))
	}
	if hosts[0] != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("first = %v", hosts[0])
	}
	if hosts[253] != netip.MustParseAddr("192.0.2.254") {
		t.Fatalf("last = %v", hosts[253])
	}
}

func TestServeBannerGreetsAndCloses(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	srv.ServeBanner(80, "HTTP/1.1 200 OK\r\nServer: nginx\r\n\r\n")
	var banner string
	var closed bool
	cli.DialTCP(Addr{IP: srv.IP, Port: 80}, ConnFuncs{
		Data:  func(c *Conn, b []byte) { banner = string(b) },
		Close: func(c *Conn, err error) { closed = true },
	})
	n.Clock.RunFor(5 * time.Second)
	if banner == "" || !closed {
		t.Fatalf("banner=%q closed=%v", banner, closed)
	}
}

func TestAddHostIdempotent(t *testing.T) {
	n := newNet()
	a := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	b := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	if a != b {
		t.Fatal("AddHost created a duplicate host")
	}
	if n.NumHosts() != 1 {
		t.Fatalf("NumHosts = %d", n.NumHosts())
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SYN|ACK" {
		t.Fatalf("flags = %q", s)
	}
	if s := TCPFlags(0).String(); s != "-" {
		t.Fatalf("zero flags = %q", s)
	}
}

func TestQuickTapConservation(t *testing.T) {
	// Property: every datagram sent between online hosts is seen
	// once by the sender's tap (outbound) and once by the
	// receiver's tap (inbound), with identical payload.
	f := func(payloads [][]byte) bool {
		n := newNet()
		a := n.AddHost(netip.MustParseAddr("10.0.0.1"))
		b := n.AddHost(netip.MustParseAddr("10.0.0.2"))
		b.ListenUDP(9, func(src, dst Addr, p []byte) {})
		var out, in [][]byte
		a.AttachTap(TapFunc(func(rec PacketRecord, outbound bool) {
			if outbound && rec.Proto == ProtoUDP {
				out = append(out, rec.Payload)
			}
		}))
		b.AttachTap(TapFunc(func(rec PacketRecord, outbound bool) {
			if !outbound && rec.Proto == ProtoUDP {
				in = append(in, rec.Payload)
			}
		}))
		for _, p := range payloads {
			a.SendUDP(1000, Addr{IP: b.IP, Port: 9}, p)
		}
		n.Clock.RunFor(time.Minute)
		if len(out) != len(payloads) || len(in) != len(payloads) {
			return false
		}
		for i := range payloads {
			if string(out[i]) != string(payloads[i]) || string(in[i]) != string(payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConnDataOrderPreserved(t *testing.T) {
	// Property: TCP writes arrive in order regardless of count.
	f := func(count uint8) bool {
		n := newNet()
		srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
		cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
		var got []byte
		srv.ListenTCP(7, func(local, remote Addr) ConnHandler {
			return ConnFuncs{Data: func(c *Conn, b []byte) { got = append(got, b...) }}
		})
		want := make([]byte, 0, int(count))
		cli.DialTCP(Addr{IP: srv.IP, Port: 7}, ConnFuncs{
			Connect: func(c *Conn) {
				for i := 0; i < int(count); i++ {
					c.Write([]byte{byte(i)})
				}
			},
		})
		for i := 0; i < int(count); i++ {
			want = append(want, byte(i))
		}
		n.Clock.RunFor(time.Minute)
		return string(got) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAddrStringMatchesFmt: the allocation-lean renderer is byte for
// byte the historical fmt "%s:%d", whose output feeds fault-plan
// hashes, trace attributes and dataset keys.
func TestAddrStringMatchesFmt(t *testing.T) {
	for _, a := range []Addr{
		{},
		{Port: 80},
		AddrFrom("10.0.0.1", 0),
		AddrFrom("255.255.255.255", 65535),
		AddrFrom("1.2.3.4", 23),
		AddrFrom("2001:db8::1", 443),
		AddrFrom("::ffff:192.0.2.1", 8080),
		AddrFrom("fe80::1%eth0", 65535),
	} {
		if got, want := a.String(), fmt.Sprintf("%s:%d", a.IP, a.Port); got != want {
			t.Errorf("Addr%+v.String() = %q, want %q", a, got, want)
		}
	}
}
