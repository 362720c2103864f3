package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"malnet/internal/packet"
	"malnet/internal/simnet"
)

var ts = time.Date(2021, 6, 1, 12, 0, 0, 123456000, time.UTC)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frames := [][]byte{[]byte("frame-one"), []byte("frame-two-longer")}
	for i, f := range frames {
		err := w.WriteRecord(Record{Time: ts.Add(time.Duration(i) * time.Second), Data: f, OrigLen: len(f)})
		if err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Link != LinkTypeRaw {
		t.Fatalf("link type = %d", r.Link)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d", len(got))
	}
	for i := range frames {
		if !bytes.Equal(got[i].Data, frames[i]) {
			t.Fatalf("record %d data = %q", i, got[i].Data)
		}
	}
	if !got[0].Time.Equal(ts) {
		t.Fatalf("time = %v, want %v", got[0].Time, ts)
	}
}

func TestEmptyCaptureHasValidHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty capture = %v, want EOF", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	data := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(data)); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestTruncatedRecordRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteRecord(Record{Time: ts, Data: []byte("abcdef")})
	raw := buf.Bytes()
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// oversizedRecordCapture is 40 bytes: a file header with snaplen
// 0x7fff0000, then one record header whose incl_len claims as much,
// and no record data.
func oversizedRecordCapture() []byte {
	b := make([]byte, fileHeaderLen+recordHeaderLen)
	binary.LittleEndian.PutUint32(b[0:], MagicMicros)
	binary.LittleEndian.PutUint32(b[16:], 0x7fff0000)
	binary.LittleEndian.PutUint32(b[fileHeaderLen+8:], 0x7fff0000)
	return b
}

// TestOversizedRecordLengthTruncated: the reader must notice the
// missing bytes without first allocating what incl_len claims.
func TestOversizedRecordLengthTruncated(t *testing.T) {
	r, err := NewReader(bytes.NewReader(oversizedRecordCapture()))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("Next = %v, want ErrTruncated", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Next allocated %d bytes for a 40-byte capture", alloc)
	}
}

// capture writes n small records with the Writer.
func capture(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < n; i++ {
		if err := w.WriteRecord(Record{Time: ts.Add(time.Duration(i) * time.Second), Data: []byte("frame")}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPcapReader feeds arbitrary bytes to the reader that
// cmd/pcapdump and cmd/rulecheck run on capture files named on their
// command lines: it must never panic, and the records it returns
// never hold more bytes than the input.
func FuzzPcapReader(f *testing.F) {
	f.Add([]byte{})
	// Zero records is the file header alone.
	for n := 0; n <= 2; n++ {
		f.Add(capture(f, n))
	}
	one := capture(f, 1)
	f.Add(one[:len(one)-3])
	f.Add(oversizedRecordCapture())
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := NewReader(bytes.NewReader(in))
		if err != nil {
			return
		}
		recs, _ := r.ReadAll()
		total := 0
		for _, rec := range recs {
			total += len(rec.Data)
		}
		if total > len(in) {
			t.Fatalf("records hold %d bytes from a %d-byte input", total, len(in))
		}
	})
}

func TestFrameFromRecordTCPDecodes(t *testing.T) {
	rec := simnet.PacketRecord{
		Src: simnet.AddrFrom("10.0.0.1", 48000), Dst: simnet.AddrFrom("10.0.0.2", 23),
		Proto: simnet.ProtoTCP, Flags: simnet.FlagPSH | simnet.FlagACK,
		Payload: []byte("login"), Size: 45, Count: 1,
	}
	frame, err := FrameFromRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.TCP == nil || p.TCP.SrcPort != 48000 || p.TCP.DstPort != 23 || !p.TCP.PSH {
		t.Fatalf("tcp = %+v", p.TCP)
	}
	if string(p.Payload) != "login" {
		t.Fatalf("payload = %q", p.Payload)
	}
	if p.IP.SrcIP != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("src = %v", p.IP.SrcIP)
	}
}

func TestFrameFromRecordICMP(t *testing.T) {
	rec := simnet.PacketRecord{
		Src: simnet.AddrFrom("10.0.0.1", 0), Dst: simnet.AddrFrom("10.0.0.2", 0),
		Proto: simnet.ProtoICMP, ICMPTyp: 3, ICMPCod: 3, Size: 56, Count: 1,
	}
	frame, err := FrameFromRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.ICMP == nil || p.ICMP.Type != 3 || p.ICMP.Code != 3 {
		t.Fatalf("icmp = %+v", p.ICMP)
	}
}

func TestWriteRecordsExpandsBurstsUpToCap(t *testing.T) {
	recs := []simnet.PacketRecord{{
		Time: ts, Span: time.Second,
		Src: simnet.AddrFrom("10.0.0.1", 4444), Dst: simnet.AddrFrom("10.0.0.2", 80),
		Proto: simnet.ProtoUDP, Payload: []byte{0}, Size: 29, Count: 100000,
	}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecords(recs, 8); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("frames = %d, want 8", len(got))
	}
	if !got[7].Time.After(got[0].Time) {
		t.Fatal("burst timestamps not spread")
	}
}

func TestFramesCarryValidChecksums(t *testing.T) {
	recs := []simnet.PacketRecord{
		{Src: simnet.AddrFrom("10.0.0.1", 4000), Dst: simnet.AddrFrom("10.0.0.2", 80),
			Proto: simnet.ProtoTCP, Flags: simnet.FlagPSH | simnet.FlagACK,
			Payload: []byte("GET / HTTP/1.0\r\n\r\n"), Size: 58, Count: 1},
		{Src: simnet.AddrFrom("10.0.0.1", 5353), Dst: simnet.AddrFrom("10.0.0.2", 53),
			Proto: simnet.ProtoUDP, Payload: []byte("query"), Size: 33, Count: 1},
	}
	for _, rec := range recs {
		frame, err := FrameFromRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := packet.ValidTransportChecksum(frame)
		if !ok {
			t.Fatalf("%v frame checksum invalid: %v", rec.Proto, err)
		}
	}
}
