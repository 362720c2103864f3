package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// The primitives the study's binary sections share (simnet's
// conn-seq.bin and core's datasets.bin). Each Read function takes the
// bytes left to decode and returns the rest, and refuses what its
// Append counterpart would not have written, so an accepted section
// re-encodes to the same bytes.

// ErrTruncated reports a field that runs past the end of its section.
var ErrTruncated = errors.New("truncated")

// AppendIP appends ip as 1 length byte (0 for the zero Addr, 4 or 16)
// and then the address. IPv6 zones are not carried; no simnet host
// has one.
func AppendIP(b []byte, ip netip.Addr) []byte {
	switch {
	case ip.Is4():
		a := ip.As4()
		return append(append(b, 4), a[:]...)
	case ip.Is6():
		a := ip.As16()
		return append(append(b, 16), a[:]...)
	}
	return append(b, 0)
}

// ReadIP reads an address written by AppendIP.
func ReadIP(b []byte) (netip.Addr, []byte, error) {
	if len(b) == 0 {
		return netip.Addr{}, b, ErrTruncated
	}
	l, b := int(b[0]), b[1:]
	if l != 0 && l != 4 && l != 16 {
		return netip.Addr{}, b, fmt.Errorf("address length %d, want 0, 4 or 16", l)
	}
	if len(b) < l {
		return netip.Addr{}, b, ErrTruncated
	}
	switch l {
	case 4:
		return netip.AddrFrom4([4]byte(b[:4])), b[4:], nil
	case 16:
		return netip.AddrFrom16([16]byte(b[:16])), b[16:], nil
	}
	return netip.Addr{}, b, nil
}

// ReadUvarint reads a minimally encoded uvarint, as
// binary.AppendUvarint writes it.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(b)
	switch {
	case k == 0:
		return 0, b, ErrTruncated
	case k < 0:
		return 0, b, errors.New("varint overflows uint64")
	case k > 1 && b[k-1] == 0:
		return 0, b, errors.New("non-minimal varint")
	}
	return v, b[k:], nil
}
