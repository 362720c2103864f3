package packet

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestDNSQueryRoundTrip(t *testing.T) {
	q := NewDNSQuery(0x1234, "cnc.example.com")
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDNS(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 || got.Response {
		t.Fatalf("decoded %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "cnc.example.com" {
		t.Fatalf("questions = %+v", got.Questions)
	}
	if got.Questions[0].Type != DNSTypeA || got.Questions[0].Class != DNSClassIN {
		t.Fatalf("question = %+v", got.Questions[0])
	}
}

func TestDNSAnswerRoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("203.0.113.77")
	q := NewDNSQuery(9, "bot.mal.net")
	resp := q.Answer(addr, 300)
	wire, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDNS(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Response || got.RCode != 0 {
		t.Fatalf("decoded %+v", got)
	}
	if len(got.Answers) != 1 || got.Answers[0].Addr != addr || got.Answers[0].TTL != 300 {
		t.Fatalf("answers = %+v", got.Answers)
	}
	if got.Answers[0].Name != "bot.mal.net" {
		t.Fatalf("answer name = %q", got.Answers[0].Name)
	}
}

func TestDNSNXDomain(t *testing.T) {
	q := NewDNSQuery(9, "gone.example.com")
	resp := q.Answer(netip.Addr{}, 0)
	wire, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDNS(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.RCode != 3 || len(got.Answers) != 0 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestDNSCompressionPointerDecodes(t *testing.T) {
	// Hand-built response with a compression pointer in the answer
	// name (0xc00c -> offset 12, the question name).
	q := NewDNSQuery(7, "a.bc")
	wire, _ := q.Encode()
	wire[7] = 1 // ANCOUNT = 1
	addr := []byte{0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1}
	wire = append(wire, addr...)
	got, err := DecodeDNS(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 1 || got.Answers[0].Name != "a.bc" {
		t.Fatalf("answers = %+v", got.Answers)
	}
	if got.Answers[0].Addr != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("addr = %v", got.Answers[0].Addr)
	}
}

func TestDNSPointerLoopRejected(t *testing.T) {
	// A name that points at itself must not hang the decoder.
	msg := make([]byte, 12)
	msg[5] = 1 // QDCOUNT = 1
	msg = append(msg, 0xc0, 12, 0, 1, 0, 1)
	if _, err := DecodeDNS(msg); err == nil {
		t.Fatal("self-referential pointer decoded without error")
	}
}

// chainedNameBomb is a 16,169-byte message of 2,000 six-byte
// questions, each pointing at the tail of a chain of 63 labels of 63
// bytes that links every label to the one before it: without a limit
// on the name's length each question decodes to a 4,031-byte name.
func chainedNameBomb() []byte {
	const questions = 2000
	msg := make([]byte, 12+6*questions, 16169)
	binary.BigEndian.PutUint16(msg[4:], questions)
	tail := 0
	for i := 0; i < 63; i++ {
		at := len(msg)
		msg = append(msg, 63)
		msg = append(msg, strings.Repeat("x", 63)...)
		if i == 0 {
			msg = append(msg, 0)
		} else {
			msg = append(msg, 0xc0|byte(tail>>8), byte(tail))
		}
		tail = at
	}
	for q := 12; q < 12+6*questions; q += 6 {
		copy(msg[q:], []byte{0xc0 | byte(tail>>8), byte(tail), 0, 1, 0, 1})
	}
	return msg
}

func TestDNSNameOverWireLimitRejected(t *testing.T) {
	if _, err := DecodeDNS(chainedNameBomb()); !errors.Is(err, ErrDNSBadName) {
		t.Fatalf("pointer-chained 4,031-byte names: err = %v, want ErrDNSBadName", err)
	}
	// RFC 1035 counts a name's label octets, their length octets and
	// the terminating zero: 255 decodes and encodes, 256 does neither.
	// The wire is built by hand, since Encode refuses the long name.
	long := strings.Repeat(strings.Repeat("x", 63)+".", 3)
	for _, tc := range []struct {
		name string
		err  error
	}{
		{long + strings.Repeat("x", 61), nil},
		{long + strings.Repeat("x", 62), ErrDNSBadName},
	} {
		wire := queryWire(strings.Split(tc.name, ".")...)
		if _, err := DecodeDNS(wire); !errors.Is(err, tc.err) {
			t.Fatalf("%d-byte name: decode err = %v, want %v", len(tc.name), err, tc.err)
		}
		encoded, err := NewDNSQuery(1, tc.name).Encode()
		if !errors.Is(err, tc.err) {
			t.Fatalf("%d-byte name: encode err = %v, want %v", len(tc.name), err, tc.err)
		}
		if err == nil && string(encoded) != string(wire) {
			t.Fatalf("%d-byte name: Encode wrote %x, want %x", len(tc.name), encoded, wire)
		}
	}
}

// queryWire builds, without Encode, the query Encode writes for ID 1
// and one A/IN question with the given labels, each written with its
// length octet as is.
func queryWire(labels ...string) []byte {
	msg := []byte{0, 1, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, l := range labels {
		msg = append(msg, byte(len(l)))
		msg = append(msg, l...)
	}
	return append(msg, 0, 0, 1, 0, 1)
}

// TestDNSReservedLabelTypeRejected: a length octet of 0x40–0xBF is one
// of RFC 1035's two reserved label types, not a label of that many
// bytes; Encode never writes a label over 63.
func TestDNSReservedLabelTypeRejected(t *testing.T) {
	for _, n := range []int{0x40, 100, 0xbf} {
		if m, err := DecodeDNS(queryWire(strings.Repeat("x", n))); !errors.Is(err, ErrDNSBadName) {
			t.Fatalf("%d-byte label: decoded %+v, err %v; want ErrDNSBadName", n, m, err)
		}
	}
}

func TestDNSBadLabelRejected(t *testing.T) {
	m := NewDNSQuery(1, strings.Repeat("x", 64)+".com")
	if _, err := m.Encode(); err == nil {
		t.Fatal("64-byte label encoded without error")
	}
}

func TestDNSTruncatedRejected(t *testing.T) {
	if _, err := DecodeDNS([]byte{1, 2, 3}); err != ErrDNSTruncated {
		t.Fatalf("err = %v, want ErrDNSTruncated", err)
	}
}

func TestQuickDNSNameRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		// Build a plausible hostname from the fuzz input.
		var labels []string
		for _, b := range raw {
			l := int(b%20) + 1
			labels = append(labels, strings.Repeat("a", l))
			if len(labels) == 4 {
				break
			}
		}
		if len(labels) == 0 {
			labels = []string{"x"}
		}
		name := strings.Join(labels, ".")
		q := NewDNSQuery(1, name)
		wire, err := q.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeDNS(wire)
		if err != nil {
			return false
		}
		return got.Questions[0].Name == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
