package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// DNS record types and classes used by the C2 resolution path.
const (
	DNSTypeA   uint16 = 1
	DNSClassIN uint16 = 1
)

// DNS decoding errors.
var (
	ErrDNSTruncated = errors.New("packet: truncated DNS message")
	ErrDNSBadName   = errors.New("packet: malformed DNS name")
)

// DNSQuestion is one query entry.
type DNSQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSAnswer is one answer resource record. Only A records carry an
// address.
type DNSAnswer struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Addr  netip.Addr // for A records
}

// DNSMessage is a DNS query or response.
type DNSMessage struct {
	ID        uint16
	Response  bool
	RCode     uint8
	Questions []DNSQuestion
	Answers   []DNSAnswer
}

// NewDNSQuery builds an A query for name.
func NewDNSQuery(id uint16, name string) *DNSMessage {
	return &DNSMessage{
		ID:        id,
		Questions: []DNSQuestion{{Name: name, Type: DNSTypeA, Class: DNSClassIN}},
	}
}

// Answer builds a response to q resolving its first question to addr.
// A zero addr produces an NXDOMAIN response.
func (q *DNSMessage) Answer(addr netip.Addr, ttl uint32) *DNSMessage {
	resp := &DNSMessage{ID: q.ID, Response: true, Questions: q.Questions}
	if !addr.IsValid() {
		resp.RCode = 3 // NXDOMAIN
		return resp
	}
	if len(q.Questions) > 0 {
		resp.Answers = []DNSAnswer{{
			Name: q.Questions[0].Name, Type: DNSTypeA, Class: DNSClassIN,
			TTL: ttl, Addr: addr,
		}}
	}
	return resp
}

// encodeName appends name in wire form. It refuses what decodeName
// would: an empty label, a label over 63 octets, or a name over
// maxNameLen wire octets.
func encodeName(buf []byte, name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return append(buf, 0), nil
	}
	wire := 1 // the terminating zero
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 || len(label) > 63 {
			return nil, fmt.Errorf("%w: label %q", ErrDNSBadName, label)
		}
		if wire += 1 + len(label); wire > maxNameLen {
			return nil, fmt.Errorf("%w: name over %d wire octets", ErrDNSBadName, maxNameLen)
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// maxNameLen is RFC 1035's limit on a name's wire length: its label
// octets, their length octets and the terminating zero.
const maxNameLen = 255

func decodeName(data []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumped := false
	guard := 0
	wire := 1 // the terminating zero
	pos := off
	end := off
	for {
		if guard++; guard > 128 {
			return "", 0, ErrDNSBadName
		}
		if pos >= len(data) {
			return "", 0, ErrDNSTruncated
		}
		l := int(data[pos])
		switch {
		case l == 0:
			if !jumped {
				end = pos + 1
			}
			return sb.String(), end, nil
		case l&0xc0 == 0xc0:
			if pos+1 >= len(data) {
				return "", 0, ErrDNSTruncated
			}
			ptr := int(binary.BigEndian.Uint16(data[pos:]) & 0x3fff)
			if !jumped {
				end = pos + 2
			}
			jumped = true
			pos = ptr
		case l&0xc0 != 0:
			// 0x40–0xBF: the two label types RFC 1035 §4.1.4
			// reserves. A plain label is at most 63 octets.
			return "", 0, ErrDNSBadName
		default:
			if pos+1+l > len(data) {
				return "", 0, ErrDNSTruncated
			}
			if wire += 1 + l; wire > maxNameLen {
				return "", 0, ErrDNSBadName
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(data[pos+1 : pos+1+l])
			pos += 1 + l
		}
	}
}

// Encode serializes the message to wire format.
func (m *DNSMessage) Encode() ([]byte, error) {
	buf := make([]byte, 12, 64)
	binary.BigEndian.PutUint16(buf[0:], m.ID)
	var flags uint16
	if m.Response {
		flags |= 0x8000 | 0x0400 // QR, AA
	} else {
		flags |= 0x0100 // RD
	}
	flags |= uint16(m.RCode) & 0x000f
	binary.BigEndian.PutUint16(buf[2:], flags)
	binary.BigEndian.PutUint16(buf[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[6:], uint16(len(m.Answers)))
	var err error
	for _, q := range m.Questions {
		if buf, err = encodeName(buf, q.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, a := range m.Answers {
		if buf, err = encodeName(buf, a.Name); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, a.Type)
		buf = binary.BigEndian.AppendUint16(buf, a.Class)
		buf = binary.BigEndian.AppendUint32(buf, a.TTL)
		if a.Type == DNSTypeA && a.Addr.Is4() {
			ip := a.Addr.As4()
			buf = binary.BigEndian.AppendUint16(buf, 4)
			buf = append(buf, ip[:]...)
		} else {
			buf = binary.BigEndian.AppendUint16(buf, 0)
		}
	}
	return buf, nil
}

// DecodeDNS parses a DNS wire message.
func DecodeDNS(data []byte) (*DNSMessage, error) {
	if len(data) < 12 {
		return nil, ErrDNSTruncated
	}
	flags := binary.BigEndian.Uint16(data[2:])
	m := &DNSMessage{
		ID:       binary.BigEndian.Uint16(data[0:]),
		Response: flags&0x8000 != 0,
		RCode:    uint8(flags & 0x000f),
	}
	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	off := 12
	for i := 0; i < qd; i++ {
		name, next, err := decodeName(data, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(data) {
			return nil, ErrDNSTruncated
		}
		m.Questions = append(m.Questions, DNSQuestion{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[next:]),
			Class: binary.BigEndian.Uint16(data[next+2:]),
		})
		off = next + 4
	}
	for i := 0; i < an; i++ {
		name, next, err := decodeName(data, off)
		if err != nil {
			return nil, err
		}
		if next+10 > len(data) {
			return nil, ErrDNSTruncated
		}
		a := DNSAnswer{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[next:]),
			Class: binary.BigEndian.Uint16(data[next+2:]),
			TTL:   binary.BigEndian.Uint32(data[next+4:]),
		}
		rdlen := int(binary.BigEndian.Uint16(data[next+8:]))
		if next+10+rdlen > len(data) {
			return nil, ErrDNSTruncated
		}
		if a.Type == DNSTypeA && rdlen == 4 {
			a.Addr = netip.AddrFrom4([4]byte(data[next+10 : next+14]))
		}
		m.Answers = append(m.Answers, a)
		off = next + 10 + rdlen
	}
	return m, nil
}
