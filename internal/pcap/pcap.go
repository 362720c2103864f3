// Package pcap reads and writes libpcap capture files and converts
// simnet packet records into raw-IPv4 capture frames. The sandbox
// uses it to persist the traffic of an analyzed sample, matching the
// paper's "the traffic generated by the malware can be captured in a
// pcap format".
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// File format constants.
const (
	// MagicMicros is the little-endian microsecond-resolution magic.
	MagicMicros = 0xa1b2c3d4
	// LinkTypeRaw is LINKTYPE_RAW: packets begin with the IPv4
	// header (no link-layer framing), which is how the virtual
	// network records traffic.
	LinkTypeRaw = 101
	// DefaultSnapLen mirrors tcpdump's modern default.
	DefaultSnapLen = 262144

	fileHeaderLen   = 24
	recordHeaderLen = 16
)

// Format errors.
var (
	ErrBadMagic  = errors.New("pcap: bad magic number")
	ErrTruncated = errors.New("pcap: truncated file")
)

// Record is one captured frame.
type Record struct {
	Time time.Time
	// Data is the captured bytes (possibly snapped).
	Data []byte
	// OrigLen is the original on-wire length.
	OrigLen int
}

// Writer emits a pcap stream.
type Writer struct {
	w       io.Writer
	snapLen int
	started bool
}

// NewWriter creates a Writer with the default snap length. The file
// header is written lazily on the first record (or on Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, snapLen: DefaultSnapLen}
}

func (pw *Writer) writeHeader() error {
	if pw.started {
		return nil
	}
	pw.started = true
	hdr := make([]byte, fileHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], MagicMicros)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	binary.LittleEndian.PutUint32(hdr[16:], uint32(pw.snapLen))
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRaw)
	_, err := pw.w.Write(hdr)
	return err
}

// WriteRecord appends one frame.
func (pw *Writer) WriteRecord(rec Record) error {
	if err := pw.writeHeader(); err != nil {
		return err
	}
	data := rec.Data
	if len(data) > pw.snapLen {
		data = data[:pw.snapLen]
	}
	orig := rec.OrigLen
	if orig < len(data) {
		orig = len(data)
	}
	hdr := make([]byte, recordHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(rec.Time.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(rec.Time.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(orig))
	if _, err := pw.w.Write(hdr); err != nil {
		return err
	}
	_, err := pw.w.Write(data)
	return err
}

// Flush ensures the file header exists even for empty captures.
func (pw *Writer) Flush() error { return pw.writeHeader() }

// Reader parses a pcap stream.
type Reader struct {
	r       io.Reader
	SnapLen int
	Link    uint32
}

// NewReader validates the file header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	hdr := make([]byte, fileHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != MagicMicros {
		return nil, ErrBadMagic
	}
	return &Reader{
		r:       r,
		SnapLen: int(binary.LittleEndian.Uint32(hdr[16:])),
		Link:    binary.LittleEndian.Uint32(hdr[20:]),
	}, nil
}

// Next returns the next record, or io.EOF at end of stream.
func (pr *Reader) Next() (Record, error) {
	hdr := make([]byte, recordHeaderLen)
	if _, err := io.ReadFull(pr.r, hdr); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	sec := binary.LittleEndian.Uint32(hdr[0:])
	usec := binary.LittleEndian.Uint32(hdr[4:])
	incl := binary.LittleEndian.Uint32(hdr[8:])
	orig := binary.LittleEndian.Uint32(hdr[12:])
	if incl > uint32(pr.SnapLen)+65536 {
		return Record{}, fmt.Errorf("pcap: implausible record length %d", incl)
	}
	// Grow the buffer as bytes arrive rather than trusting incl_len:
	// a corrupt header must not cost gigabytes before the short read
	// shows. Compare in uint32, since int(incl) is negative at or
	// above 2^31 where int is 32 bits wide.
	data, err := io.ReadAll(io.LimitReader(pr.r, int64(incl)))
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if uint32(len(data)) < incl {
		return Record{}, fmt.Errorf("%w: record holds %d of %d bytes", ErrTruncated, len(data), incl)
	}
	return Record{
		Time:    time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data:    data,
		OrigLen: int(orig),
	}, nil
}

// ReadAll drains the stream.
func (pr *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
