package simnet

import (
	"bytes"
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"malnet/internal/faultinject"
)

// connSeqTable encodes a counter table holding exactly entries, in
// order, the way a network that dialed them in that order would.
func connSeqTable(entries ...connSeqEntry) []byte {
	n := newNet()
	for i, e := range entries {
		n.connSeqs = append(n.connSeqs, e)
		n.connSeqAt[e.connSeqKey] = int32(i)
	}
	return n.AppendConnSeqs(nil)
}

func seqEntry(src string, dst Addr, seq uint64) connSeqEntry {
	var ip netip.Addr
	if src != "" {
		ip = netip.MustParseAddr(src)
	}
	return connSeqEntry{connSeqKey{src: ip, dst: dst}, seq}
}

// connSeqSeeds are the valid tables the table test and the fuzz
// target start from: empty, every address length, the port and seq
// extremes.
func connSeqSeeds() [][]byte {
	return [][]byte{
		connSeqTable(),
		connSeqTable(seqEntry("10.98.0.2", AddrFrom("10.0.0.1", 23), 12)),
		connSeqTable(
			seqEntry("2001:db8::2", AddrFrom("2001:db8::1", 65535), math.MaxUint64),
			seqEntry("::ffff:10.99.0.2", AddrFrom("::ffff:10.0.0.1", 0), 0),
			seqEntry("10.99.0.2", AddrFrom("::ffff:10.0.0.1", 0), 1),
			seqEntry("", Addr{}, 7),
			seqEntry("10.99.0.2", Addr{Port: 80}, 1<<7),
		),
	}
}

// TestConnSeqTableLayout pins the wire layout on one IPv4 pair: count,
// src, dst, port, seq.
func TestConnSeqTableLayout(t *testing.T) {
	got := connSeqTable(seqEntry("10.98.0.2", AddrFrom("10.0.0.1", 23), 300))
	// count 1; src 4 10.98.0.2; dst 4 10.0.0.1; port 23; seq 300
	want := []byte{1, 4, 10, 98, 0, 2, 4, 10, 0, 0, 1, 0, 23, 0xac, 0x02}
	if !bytes.Equal(got, want) {
		t.Fatalf("table = % x, want % x", got, want)
	}
}

// TestConnSeqRestoreRoundTrip: every seed table restores and
// re-encodes to the same bytes, keeping each pair's address family
// (4in6 stays 4in6), port and counter.
func TestConnSeqRestoreRoundTrip(t *testing.T) {
	for i, b := range connSeqSeeds() {
		n := newNet()
		if err := n.RestoreConnSeqs(b); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if got := n.AppendConnSeqs(nil); !bytes.Equal(got, b) {
			t.Fatalf("seed %d re-encodes to % x, want % x", i, got, b)
		}
	}
	n := newNet()
	if err := n.RestoreConnSeqs(connSeqSeeds()[2]); err != nil {
		t.Fatal(err)
	}
	mapped := connSeqKey{src: netip.MustParseAddr("::ffff:10.99.0.2"), dst: AddrFrom("::ffff:10.0.0.1", 0)}
	if i, ok := n.connSeqAt[mapped]; !ok || n.connSeqs[i].src.Is4() {
		t.Fatalf("4in6 pair lost its family: %+v", n.connSeqs)
	}
	if n.connSeqs[0].seq != math.MaxUint64 || n.connSeqs[0].dst.Port != 65535 {
		t.Fatalf("extremes not kept: %+v", n.connSeqs[0])
	}
}

// TestConnSeqRestoreRefusesMalformed: every way a table can be wrong
// is refused, and a refused restore leaves the counters untouched.
func TestConnSeqRestoreRefusesMalformed(t *testing.T) {
	valid := connSeqTable(
		seqEntry("10.98.0.2", AddrFrom("10.0.0.1", 23), 12),
		seqEntry("2001:db8::2", AddrFrom("2001:db8::1", 65535), math.MaxUint64),
	)
	dup := seqEntry("10.98.0.2", AddrFrom("10.0.0.1", 23), 1)
	cases := map[string][]byte{
		"empty input":       {},
		"trailing byte":     append(append([]byte(nil), valid...), 0),
		"bad length byte":   {1, 5, 1, 2, 3, 4, 5, 0, 0, 0, 0},
		"duplicate pair":    connSeqTable(dup, dup),
		"count beyond data": {200, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"huge count":        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"varint overflow":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"non-minimal count": {0x80, 0x00},
		"non-minimal seq":   {1, 0, 0, 0, 0, 0x81, 0x00},
	}
	for cut := 0; cut < len(valid); cut++ {
		cases[fmt.Sprintf("truncated to %d bytes", cut)] = valid[:cut]
	}
	for name, b := range cases {
		n := newNet()
		before := connSeqTable(seqEntry("10.0.0.9", AddrFrom("10.0.0.8", 1), 4))
		if err := n.RestoreConnSeqs(before); err != nil {
			t.Fatal(err)
		}
		if err := n.RestoreConnSeqs(b); err == nil {
			t.Errorf("%s: % x accepted", name, b)
			continue
		}
		if got := n.AppendConnSeqs(nil); !bytes.Equal(got, before) {
			t.Errorf("%s: refused restore changed the counters to % x", name, got)
		}
	}
}

// TestConnSeqDialOrderSurvivesRestore: the table lists pairs in
// first-dial order, and a network restored from it appends new pairs
// and continues old counters exactly as the uninterrupted one does.
// The counters feed only a fault plan, so the networks arm one that
// injects nothing.
func TestConnSeqDialOrderSurvivesRestore(t *testing.T) {
	dialAll := func(n *Network, targets []Addr) {
		cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
		for _, to := range targets {
			cli.DialTCP(to, ConnFuncs{})
		}
		n.Clock.RunFor(time.Minute)
	}
	armed := func() *Network {
		n := newNet()
		n.InstallFaults(faultinject.New(faultinject.Config{Seed: 1}))
		return n
	}
	first := []Addr{AddrFrom("10.0.0.9", 23), AddrFrom("10.0.0.3", 80), AddrFrom("10.0.0.9", 23)}
	later := []Addr{AddrFrom("10.0.0.1", 22), AddrFrom("10.0.0.3", 80)}

	straight := armed()
	dialAll(straight, first)
	table := straight.AppendConnSeqs(nil)
	if want := connSeqTable(
		seqEntry("10.0.0.2", first[0], 2),
		seqEntry("10.0.0.2", first[1], 1),
	); !bytes.Equal(table, want) {
		t.Fatalf("table % x, want first-dial order % x", table, want)
	}
	dialAll(straight, later)

	resumed := armed()
	dialAll(resumed, later) // traffic the restore must overwrite
	if err := resumed.RestoreConnSeqs(table); err != nil {
		t.Fatal(err)
	}
	dialAll(resumed, later)
	if got, want := resumed.AppendConnSeqs(nil), straight.AppendConnSeqs(nil); !bytes.Equal(got, want) {
		t.Fatalf("resumed table % x, uninterrupted % x", got, want)
	}
}

// TestCleanNetworkKeepsNoConnSeqs: with no fault plan nothing reads
// the counters, so dialing keeps none and the table stays empty.
func TestCleanNetworkKeepsNoConnSeqs(t *testing.T) {
	n := newNet()
	cli := n.AddHost(netip.MustParseAddr("10.0.0.2"))
	for _, to := range []Addr{AddrFrom("10.0.0.9", 23), AddrFrom("10.0.0.9", 23), AddrFrom("10.0.0.3", 80)} {
		cli.DialTCP(to, ConnFuncs{})
	}
	n.Clock.RunFor(time.Minute)
	if got, want := n.AppendConnSeqs(nil), connSeqTable(); !bytes.Equal(got, want) {
		t.Fatalf("clean network's table % x, want empty % x", got, want)
	}
}

// FuzzConnSeqRestore: the decoder never panics, and whatever it
// accepts holds no duplicate pair and re-encodes to the input bytes.
func FuzzConnSeqRestore(f *testing.F) {
	for _, b := range connSeqSeeds() {
		f.Add(b)
		f.Add(append(append([]byte(nil), b...), 0))
		if len(b) > 1 {
			f.Add(b[:len(b)-1])
			f.Add(b[:len(b)/2])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n := newNet()
		if err := n.RestoreConnSeqs(b); err != nil {
			if len(n.connSeqs) != 0 || len(n.connSeqAt) != 0 {
				t.Fatalf("refused input left %d entries", len(n.connSeqs))
			}
			return
		}
		if len(n.connSeqAt) != len(n.connSeqs) {
			t.Fatalf("%d entries but %d distinct pairs", len(n.connSeqs), len(n.connSeqAt))
		}
		for i, e := range n.connSeqs {
			if n.connSeqAt[e.connSeqKey] != int32(i) {
				t.Fatalf("entry %d indexed at %d", i, n.connSeqAt[e.connSeqKey])
			}
		}
		if got := n.AppendConnSeqs(nil); !bytes.Equal(got, b) {
			t.Fatalf("accepted % x re-encodes to % x", b, got)
		}
	})
}
