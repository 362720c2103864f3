package packet

import (
	"net/netip"
	"testing"
)

// addWithPrefixes seeds f with each message and two truncations of
// it: one byte short, and cut in half.
func addWithPrefixes(f *testing.F, msgs ...[]byte) {
	for _, m := range msgs {
		f.Add(m)
		f.Add(m[:len(m)-1])
		f.Add(m[:len(m)/2])
	}
}

func FuzzDecodeDNS(f *testing.F) {
	q := NewDNSQuery(0x1234, "cnc.example.com")
	var msgs [][]byte
	for _, m := range []*DNSMessage{q, q.Answer(netip.MustParseAddr("203.0.113.77"), 300), q.Answer(netip.Addr{}, 0)} {
		wire, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		msgs = append(msgs, wire)
	}
	addWithPrefixes(f, append(msgs, chainedNameBomb())...)
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := DecodeDNS(in)
		if err != nil {
			return
		}
		for _, q := range m.Questions {
			if len(q.Name) > maxNameLen {
				t.Fatalf("question name of %d bytes", len(q.Name))
			}
		}
		for _, a := range m.Answers {
			if len(a.Name) > maxNameLen {
				t.Fatalf("answer name of %d bytes", len(a.Name))
			}
		}
	})
}

func FuzzDecode(f *testing.F) {
	ip := func(proto uint8) *IPv4 {
		return &IPv4{ID: 7, Protocol: proto, SrcIP: srcIP, DstIP: dstIP}
	}
	payload := Raw("login")
	for _, layers := range [][]Layer{
		{ip(IPProtoTCP), &TCP{SrcPort: 48000, DstPort: 23, PSH: true, ACK: true}, payload},
		{ip(IPProtoUDP), &UDP{SrcPort: 5353, DstPort: 53}, payload},
		{ip(IPProtoICMP), &ICMPv4{Type: 8, ID: 1, Seq: 2}, payload},
	} {
		wire, err := Serialize(layers...)
		if err != nil {
			f.Fatal(err)
		}
		addWithPrefixes(f, wire)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := Decode(in)
		if err != nil {
			return
		}
		if len(p.Payload) > len(in) {
			t.Fatalf("payload of %d bytes from a %d-byte input", len(p.Payload), len(in))
		}
		if int(p.IP.Length) > len(in) {
			t.Fatalf("IP length %d from a %d-byte input", p.IP.Length, len(in))
		}
	})
}
