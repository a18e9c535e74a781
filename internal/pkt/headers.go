package pkt

import (
	"encoding/binary"
	"fmt"
)

// Header sizes and offsets in bytes for the frame formats the NFs
// manipulate. All multi-byte fields are big-endian on the wire.
const (
	// EthLen is the Ethernet II header length.
	EthLen = 14
	// IPv4Len is the fixed IPv4 header length (no options).
	IPv4Len = 20
	// UDPLen is the UDP header length.
	UDPLen = 8
	// TCPLen is the fixed TCP header length (no options).
	TCPLen = 20
	// GTPULen is the fixed GTP-U header length used by the UPF
	// encapsulator (no extension headers).
	GTPULen = 8

	// EtherTypeIPv4 is the Ethernet type for IPv4.
	EtherTypeIPv4 = 0x0800
	// ProtoTCP and ProtoUDP are the IP protocol numbers.
	ProtoTCP = 6
	ProtoUDP = 17
	// GTPUPort is the UDP port GTP-U tunnels use.
	GTPUPort = 2152
)

// EncodeEthernet writes an Ethernet II header at b[0:14].
func EncodeEthernet(b []byte, dst, src [6]byte, etherType uint16) error {
	if len(b) < EthLen {
		return fmt.Errorf("pkt: ethernet needs %d bytes, have %d", EthLen, len(b))
	}
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	binary.BigEndian.PutUint16(b[12:14], etherType)
	return nil
}

// IPv4Header is the decoded form of the fields the NFs use.
type IPv4Header struct {
	// TotalLen is the IP datagram length including the header.
	TotalLen uint16
	// TTL is the remaining hop count.
	TTL uint8
	// Proto is the payload protocol number.
	Proto uint8
	// Src and Dst are addresses in host byte order.
	Src, Dst uint32
}

// EncodeIPv4 writes a 20-byte IPv4 header (version 4, IHL 5) at b[0:20]
// with a correct header checksum.
func EncodeIPv4(b []byte, h IPv4Header) error {
	if len(b) < IPv4Len {
		return fmt.Errorf("pkt: ipv4 needs %d bytes, have %d", IPv4Len, len(b))
	}
	b[0] = 0x45
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], 0) // identification
	binary.BigEndian.PutUint16(b[6:8], 0x4000)
	b[8] = h.TTL
	b[9] = h.Proto
	binary.BigEndian.PutUint16(b[10:12], 0)
	binary.BigEndian.PutUint32(b[12:16], h.Src)
	binary.BigEndian.PutUint32(b[16:20], h.Dst)
	binary.BigEndian.PutUint16(b[10:12], ipv4Checksum(b[:IPv4Len]))
	return nil
}

// DecodeIPv4 reads the fields of a 20-byte IPv4 header. Headers with
// options (IHL other than 5) are rejected: every offset the NFs and the
// simulated header model use assumes the fixed 20 bytes.
func DecodeIPv4(b []byte) (IPv4Header, error) {
	if len(b) < IPv4Len {
		return IPv4Header{}, fmt.Errorf("pkt: ipv4 needs %d bytes, have %d", IPv4Len, len(b))
	}
	if b[0]>>4 != 4 {
		return IPv4Header{}, fmt.Errorf("pkt: not an IPv4 header (version %d)", b[0]>>4)
	}
	if ihl := b[0] & 0x0f; ihl != IPv4Len/4 {
		return IPv4Header{}, fmt.Errorf("pkt: unsupported IPv4 header length %d bytes (IHL %d)", 4*int(ihl), ihl)
	}
	return IPv4Header{
		TotalLen: binary.BigEndian.Uint16(b[2:4]),
		TTL:      b[8],
		Proto:    b[9],
		Src:      binary.BigEndian.Uint32(b[12:16]),
		Dst:      binary.BigEndian.Uint32(b[16:20]),
	}, nil
}

// ipv4Checksum computes the standard ones-complement header checksum
// over hdr with the checksum field already zeroed or included.
func ipv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ipv4Incremental folds a header edit into a stored checksum (RFC 1624
// method): delta is the sum of the ones-complements of the replaced
// 16-bit words plus the sum of their replacements. The result is
// byte-identical to a full ipv4Checksum recompute: both reduce the
// header sum modulo 0xffff, and since a real header's sum is never zero
// (the version/IHL word alone is 0x45xx), the full recompute always
// picks the 0xffff representative of residue zero — the guard below
// makes the incremental path pick the same one.
func ipv4Incremental(stored uint16, delta uint32) uint16 {
	sum := uint32(^stored) + delta
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if sum == 0 {
		sum = 0xffff
	}
	return ^uint16(sum)
}

// EncodeUDP writes an 8-byte UDP header (checksum left zero, as
// permitted for IPv4 and typical for GTP-U fast paths).
func EncodeUDP(b []byte, src, dst uint16, length uint16) error {
	if len(b) < UDPLen {
		return fmt.Errorf("pkt: udp needs %d bytes, have %d", UDPLen, len(b))
	}
	binary.BigEndian.PutUint16(b[0:2], src)
	binary.BigEndian.PutUint16(b[2:4], dst)
	binary.BigEndian.PutUint16(b[4:6], length)
	binary.BigEndian.PutUint16(b[6:8], 0)
	return nil
}

// GTPUHeader is the fixed part of a GTP-U header.
type GTPUHeader struct {
	// MsgType is 0xFF (G-PDU) for user traffic.
	MsgType uint8
	// Length is the payload length following the 8-byte header.
	Length uint16
	// TEID is the tunnel endpoint id.
	TEID uint32
}

// EncodeGTPU writes an 8-byte GTP-U header at b[0:8].
func EncodeGTPU(b []byte, h GTPUHeader) error {
	if len(b) < GTPULen {
		return fmt.Errorf("pkt: gtpu needs %d bytes, have %d", GTPULen, len(b))
	}
	b[0] = 0x30 // version 1, PT=1
	b[1] = h.MsgType
	binary.BigEndian.PutUint16(b[2:4], h.Length)
	binary.BigEndian.PutUint32(b[4:8], h.TEID)
	return nil
}

// DecodeGTPU reads an 8-byte GTP-U header.
func DecodeGTPU(b []byte) (GTPUHeader, error) {
	if len(b) < GTPULen {
		return GTPUHeader{}, fmt.Errorf("pkt: gtpu needs %d bytes, have %d", GTPULen, len(b))
	}
	if b[0]>>5 != 1 {
		return GTPUHeader{}, fmt.Errorf("pkt: not GTPv1 (version %d)", b[0]>>5)
	}
	return GTPUHeader{
		MsgType: b[1],
		Length:  binary.BigEndian.Uint16(b[2:4]),
		TEID:    binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// Parse decodes the Ethernet/IPv4/transport chain of p.Data into
// p.Tuple. It tolerates truncated payloads but requires full headers.
func (p *Packet) Parse() error {
	b := p.Data
	if len(b) < EthLen+IPv4Len {
		return fmt.Errorf("pkt: frame too short to parse: %d bytes", len(b))
	}
	if et := binary.BigEndian.Uint16(b[12:14]); et != EtherTypeIPv4 {
		return fmt.Errorf("pkt: unsupported ethertype %#x", et)
	}
	ip, err := DecodeIPv4(b[EthLen:])
	if err != nil {
		return fmt.Errorf("pkt: parse: %w", err)
	}
	p.Tuple = FiveTuple{SrcIP: ip.Src, DstIP: ip.Dst, Proto: ip.Proto}
	l4 := b[EthLen+IPv4Len:]
	switch ip.Proto {
	case ProtoTCP, ProtoUDP:
		if len(l4) < 4 {
			return fmt.Errorf("pkt: transport header truncated")
		}
		p.Tuple.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.Tuple.DstPort = binary.BigEndian.Uint16(l4[2:4])
	default:
		// Other protocols carry no ports; the tuple still identifies
		// the flow by addresses and protocol.
	}
	return nil
}

// RewriteNAT rewrites the source address and port in place (SNAT) and
// refreshes the IPv4 checksum. The frame must be Ethernet + an
// option-free IPv4 header + TCP or UDP, the shape Parse accepts with
// ports; anything else is an error and the frame is left untouched.
func (p *Packet) RewriteNAT(newIP uint32, newPort uint16) error {
	b := p.Data
	if len(b) < EthLen+IPv4Len+4 {
		return fmt.Errorf("pkt: frame too short for NAT rewrite")
	}
	if b[EthLen] != 0x45 {
		return fmt.Errorf("pkt: NAT rewrite needs an option-free IPv4 header (version/IHL byte %#x)", b[EthLen])
	}
	if proto := b[EthLen+9]; proto != ProtoTCP && proto != ProtoUDP {
		return fmt.Errorf("pkt: NAT rewrite of protocol %d: only TCP and UDP carry a source port", proto)
	}
	delta := uint32(^binary.BigEndian.Uint16(b[EthLen+12:EthLen+14])) +
		uint32(^binary.BigEndian.Uint16(b[EthLen+14:EthLen+16])) +
		(newIP >> 16) + (newIP & 0xffff)
	stored := binary.BigEndian.Uint16(b[EthLen+10 : EthLen+12])
	binary.BigEndian.PutUint32(b[EthLen+12:EthLen+16], newIP)
	binary.BigEndian.PutUint16(b[EthLen+10:EthLen+12], ipv4Incremental(stored, delta))
	binary.BigEndian.PutUint16(b[EthLen+IPv4Len:EthLen+IPv4Len+2], newPort)
	p.Tuple.SrcIP = newIP
	p.Tuple.SrcPort = newPort
	return nil
}

// DecTTL decrements the IPv4 TTL in place, refreshing the checksum, and
// reports whether the packet is still forwardable.
func (p *Packet) DecTTL() (bool, error) {
	b := p.Data
	if len(b) < EthLen+IPv4Len {
		return false, fmt.Errorf("pkt: frame too short for TTL update")
	}
	ttl := b[EthLen+8]
	if ttl <= 1 {
		return false, nil
	}
	old := uint16(ttl)<<8 | uint16(b[EthLen+9])
	b[EthLen+8] = ttl - 1
	delta := uint32(^old) + uint32(uint16(ttl-1)<<8|uint16(b[EthLen+9]))
	stored := binary.BigEndian.Uint16(b[EthLen+10 : EthLen+12])
	binary.BigEndian.PutUint16(b[EthLen+10:EthLen+12], ipv4Incremental(stored, delta))
	return true, nil
}
