package simnet

import (
	"net/netip"
	"testing"
	"time"
)

// nopHandler is a ConnHandler that allocates nothing and counts what
// reaches it.
type nopHandler struct{ connects, data, closes int }

func (h *nopHandler) OnConnect(*Conn)                { h.connects++ }
func (h *nopHandler) OnData(*Conn, []byte)           { h.data++ }
func (h *nopHandler) OnClose(*Conn, error)           { h.closes++ }
func (h *nopHandler) acceptor(_, _ Addr) ConnHandler { return h }

// TestDialAbsentHostAllocatesOnlyConn: on a warm network, a dial to
// an absent host, through its SYN timeout, allocates the Conn and
// nothing else.
func TestDialAbsentHostAllocatesOnlyConn(t *testing.T) {
	n := newNet()
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	h := &nopHandler{}
	to := Addr{IP: netip.MustParseAddr("192.0.2.77"), Port: 23}
	dial := func() {
		cli.DialTCP(to, h)
		n.Clock.RunFor(DefaultConfig().SYNTimeout)
	}
	for i := 0; i < 8; i++ {
		dial()
	}
	if allocs := testing.AllocsPerRun(100, dial); allocs != 1 {
		t.Fatalf("dial to an absent host allocated %.1f times, want 1 (the Conn)", allocs)
	}
	if h.closes != 8+101 {
		t.Fatalf("%d closes, want %d, one per dial", h.closes, 8+101)
	}
}

// TestWriteAllocatesOnlyPayloadCopy: on a warm network, a Write on an
// established conn, through its delivery, allocates the payload copy
// and nothing else.
func TestWriteAllocatesOnlyPayloadCopy(t *testing.T) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	server := &nopHandler{}
	srv.ListenTCP(23, server.acceptor)
	conn := cli.DialTCP(Addr{IP: srv.IP, Port: 23}, &nopHandler{})
	n.Clock.RunFor(time.Second)
	if !conn.Established() {
		t.Fatal("dial did not connect")
	}
	payload := []byte("ping")
	write := func() {
		if err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		n.Clock.RunFor(time.Second)
	}
	for i := 0; i < 8; i++ {
		write()
	}
	if allocs := testing.AllocsPerRun(100, write); allocs != 1 {
		t.Fatalf("Write allocated %.1f times, want 1 (the payload copy)", allocs)
	}
	if server.data != 8+101 {
		t.Fatalf("server saw %d segments, want %d", server.data, 8+101)
	}
}

// BenchmarkDialAbsentHost measures one dial to an absent host through
// its SYN timeout.
func BenchmarkDialAbsentHost(b *testing.B) {
	n := newNet()
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	h := &nopHandler{}
	to := Addr{IP: netip.MustParseAddr("192.0.2.77"), Port: 23}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cli.DialTCP(to, h)
		n.Clock.RunFor(DefaultConfig().SYNTimeout)
	}
}

// exchangeClient writes on connect and closes on the reply.
type exchangeClient struct {
	msg     []byte
	replies int
}

func (h *exchangeClient) OnConnect(c *Conn) { c.Write(h.msg) }
func (h *exchangeClient) OnData(c *Conn, _ []byte) {
	h.replies++
	c.Close()
}
func (h *exchangeClient) OnClose(*Conn, error) {}

// exchangeServer answers every segment with its reply.
type exchangeServer struct{ reply []byte }

func (h *exchangeServer) OnConnect(*Conn)          {}
func (h *exchangeServer) OnData(c *Conn, _ []byte) { c.Write(h.reply) }
func (h *exchangeServer) OnClose(*Conn, error)     {}

// BenchmarkConnExchange measures one connection's life: dial,
// handshake, one write each way, close.
func BenchmarkConnExchange(b *testing.B) {
	n := newNet()
	srv := n.AddHost(netip.MustParseAddr("10.0.0.1"))
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	server := &exchangeServer{reply: []byte("pong")}
	srv.ListenTCP(23, func(_, _ Addr) ConnHandler { return server })
	client := &exchangeClient{msg: []byte("ping")}
	to := Addr{IP: srv.IP, Port: 23}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cli.DialTCP(to, client)
		n.Clock.RunFor(2 * time.Second)
	}
	if client.replies != b.N {
		b.Fatalf("%d replies in %d exchanges", client.replies, b.N)
	}
}
