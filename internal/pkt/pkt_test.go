package pkt

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func buildUDPFrame(t testing.TB, tuple FiveTuple, payload int) []byte {
	t.Helper()
	total := EthLen + IPv4Len + UDPLen + payload
	b := make([]byte, total)
	if err := EncodeEthernet(b, [6]byte{1, 2, 3, 4, 5, 6}, [6]byte{7, 8, 9, 10, 11, 12}, EtherTypeIPv4); err != nil {
		t.Fatal(err)
	}
	if err := EncodeIPv4(b[EthLen:], IPv4Header{
		TotalLen: uint16(IPv4Len + UDPLen + payload),
		TTL:      64,
		Proto:    ProtoUDP,
		Src:      tuple.SrcIP,
		Dst:      tuple.DstIP,
	}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeUDP(b[EthLen+IPv4Len:], tuple.SrcPort, tuple.DstPort, uint16(UDPLen+payload)); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseRoundTrip(t *testing.T) {
	tuple := FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1234, DstPort: 80, Proto: ProtoUDP}
	p := &Packet{Data: buildUDPFrame(t, tuple, 10), WireLen: 64}
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	if p.Tuple != tuple {
		t.Fatalf("parsed tuple %+v, want %+v", p.Tuple, tuple)
	}
}

func TestParseErrors(t *testing.T) {
	p := &Packet{Data: make([]byte, 10)}
	if err := p.Parse(); err == nil {
		t.Fatal("short frame parsed")
	}
	b := buildUDPFrame(t, FiveTuple{Proto: ProtoUDP}, 0)
	binary.BigEndian.PutUint16(b[12:14], 0x86dd) // IPv6 ethertype
	p = &Packet{Data: b}
	if err := p.Parse(); err == nil {
		t.Fatal("non-IPv4 frame parsed")
	}
}

// ihl6UDPFrame is a UDP frame 10.0.0.1:1234 -> 192.168.1.1:80 whose
// IPv4 header carries one option word of four NOPs (IHL 6), so the UDP
// ports sit 24 bytes into the header, not 20.
func ihl6UDPFrame(t testing.TB) []byte {
	t.Helper()
	tuple := FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1234, DstPort: 80, Proto: ProtoUDP}
	b := buildUDPFrame(t, tuple, 0)
	ip := EthLen + IPv4Len
	out := append(append(b[:ip:ip], 1, 1, 1, 1), b[ip:]...)
	hdr := out[EthLen : ip+4]
	hdr[0] = 0x46
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(out)-EthLen))
	binary.BigEndian.PutUint16(hdr[10:12], ipv4Checksum(hdr))
	return out
}

// protoICMP is the IP protocol number of ICMP.
const protoICMP = 1

// icmpEchoFrame is an ICMP echo request (type 8, code 0, id 7, seq 1)
// from 10.0.0.1 to 192.168.1.1: a protocol with no ports.
func icmpEchoFrame(t testing.TB) []byte {
	t.Helper()
	b := make([]byte, EthLen+IPv4Len+8)
	if err := EncodeEthernet(b, [6]byte{1, 2, 3, 4, 5, 6}, [6]byte{7, 8, 9, 10, 11, 12}, EtherTypeIPv4); err != nil {
		t.Fatal(err)
	}
	if err := EncodeIPv4(b[EthLen:], IPv4Header{TotalLen: IPv4Len + 8, TTL: 64, Proto: protoICMP, Src: 0x0a000001, Dst: 0xc0a80101}); err != nil {
		t.Fatal(err)
	}
	icmp := b[EthLen+IPv4Len:]
	icmp[0] = 8
	binary.BigEndian.PutUint16(icmp[4:6], 7)
	binary.BigEndian.PutUint16(icmp[6:8], 1)
	binary.BigEndian.PutUint16(icmp[2:4], ^uint16(8<<8+7+1))
	return b
}

// TestParseRejectsIPv4Options: a header with options is refused rather
// than parsed as if it were 20 bytes, which read the UDP "ports" out of
// the option word (257/257 for four NOPs).
func TestParseRejectsIPv4Options(t *testing.T) {
	p := &Packet{Data: ihl6UDPFrame(t)}
	if err := p.Parse(); err == nil {
		t.Fatalf("IHL-6 frame parsed, tuple %v", p.Tuple)
	}
	if _, err := DecodeIPv4(p.Data[EthLen:]); err == nil {
		t.Fatal("IHL-6 header decoded")
	}
}

// TestRewriteNATRejectsPortlessProtocols: rewriting an ICMP echo request
// is an error and leaves every byte alone, where the rewrite used to
// write the new "port" over the ICMP type and code.
func TestRewriteNATRejectsPortlessProtocols(t *testing.T) {
	b := icmpEchoFrame(t)
	orig := append([]byte(nil), b...)
	p := &Packet{Data: b}
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	if err := p.RewriteNAT(0x05050505, 4000); err == nil {
		t.Fatal("ICMP frame NAT-rewritten")
	}
	if !bytes.Equal(b, orig) {
		t.Fatalf("rejected rewrite changed the frame:\n got %x\nwant %x", b, orig)
	}
}

// FuzzPacketRewrite holds the NAT rewrite to its contract on any frame
// Parse accepts, with the frame's header checksum made valid first. For
// TCP and UDP the rewrite succeeds, re-parsing yields the tuple with the
// new source address and port, a full checksum recompute matches the
// stored one, and no byte outside the source address, source port and
// checksum changes. For any other protocol it fails and changes nothing.
func FuzzPacketRewrite(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte, newIP uint32, newPort uint16) {
		frame := append([]byte(nil), input...) // the engine's input is read-only
		p := &Packet{Data: frame}
		if p.Parse() != nil {
			return
		}
		hdr := frame[EthLen : EthLen+IPv4Len]
		binary.BigEndian.PutUint16(hdr[10:12], ipv4Checksum(hdr))
		orig := append([]byte(nil), frame...)
		before := p.Tuple
		err := p.RewriteNAT(newIP, newPort)
		if before.Proto != ProtoTCP && before.Proto != ProtoUDP {
			if err == nil {
				t.Fatalf("protocol %d rewritten", before.Proto)
			}
			if !bytes.Equal(frame, orig) {
				t.Fatalf("rejected rewrite changed the frame:\n got %x\nwant %x", frame, orig)
			}
			return
		}
		if err != nil {
			t.Fatalf("rewrite of a parsed %d frame: %v", before.Proto, err)
		}
		q := &Packet{Data: frame}
		if err := q.Parse(); err != nil {
			t.Fatalf("rewritten frame no longer parses: %v", err)
		}
		want := before
		want.SrcIP, want.SrcPort = newIP, newPort
		if q.Tuple != want || p.Tuple != want {
			t.Fatalf("rewritten tuple %v (packet %v), want %v", q.Tuple, p.Tuple, want)
		}
		if got, stored := ipv4Checksum(hdr), binary.BigEndian.Uint16(hdr[10:12]); got != stored {
			t.Fatalf("checksum %#04x stored, %#04x recomputed", stored, got)
		}
		for i := range frame {
			rewritten := i >= EthLen+10 && i < EthLen+16 || i >= EthLen+IPv4Len && i < EthLen+IPv4Len+2
			if !rewritten && frame[i] != orig[i] {
				t.Fatalf("byte %d changed: %#02x -> %#02x", i, orig[i], frame[i])
			}
		}
	})
}

func TestIPv4ChecksumValid(t *testing.T) {
	b := make([]byte, IPv4Len)
	h := IPv4Header{TotalLen: 100, TTL: 64, Proto: ProtoTCP, Src: 0x01020304, Dst: 0x05060708}
	if err := EncodeIPv4(b, h); err != nil {
		t.Fatal(err)
	}
	// Recomputing over the header with its checksum zeroed must
	// reproduce the stored value.
	stored := binary.BigEndian.Uint16(b[10:12])
	if got := ipv4Checksum(b); got != stored {
		t.Fatalf("checksum mismatch: stored %#x computed %#x", stored, got)
	}
	got, err := DecodeIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("decode = %+v, want %+v", got, h)
	}
}

func TestDecodeIPv4Errors(t *testing.T) {
	if _, err := DecodeIPv4(make([]byte, 5)); err == nil {
		t.Fatal("short header decoded")
	}
	b := make([]byte, IPv4Len)
	b[0] = 0x65 // version 6
	if _, err := DecodeIPv4(b); err == nil {
		t.Fatal("wrong version decoded")
	}
}

func TestGTPURoundTrip(t *testing.T) {
	b := make([]byte, GTPULen)
	h := GTPUHeader{MsgType: 0xFF, Length: 1400, TEID: 0xdeadbeef}
	if err := EncodeGTPU(b, h); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGTPU(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("gtpu round trip = %+v, want %+v", got, h)
	}
	if _, err := DecodeGTPU(b[:4]); err == nil {
		t.Fatal("short gtpu decoded")
	}
	b[0] = 0
	if _, err := DecodeGTPU(b); err == nil {
		t.Fatal("wrong gtp version decoded")
	}
}

func TestEncodeShortBuffers(t *testing.T) {
	short := make([]byte, 2)
	if err := EncodeEthernet(short, [6]byte{}, [6]byte{}, 0); err == nil {
		t.Fatal("short ethernet encode succeeded")
	}
	if err := EncodeIPv4(short, IPv4Header{}); err == nil {
		t.Fatal("short ipv4 encode succeeded")
	}
	if err := EncodeUDP(short, 0, 0, 0); err == nil {
		t.Fatal("short udp encode succeeded")
	}
	if err := EncodeGTPU(short, GTPUHeader{}); err == nil {
		t.Fatal("short gtpu encode succeeded")
	}
}

func TestRewriteNAT(t *testing.T) {
	tuple := FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1234, DstPort: 80, Proto: ProtoUDP}
	p := &Packet{Data: buildUDPFrame(t, tuple, 0)}
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	if err := p.RewriteNAT(0x05050505, 40000); err != nil {
		t.Fatal(err)
	}
	// Re-parse from the wire and confirm the rewrite landed.
	q := &Packet{Data: p.Data}
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.Tuple.SrcIP != 0x05050505 || q.Tuple.SrcPort != 40000 {
		t.Fatalf("rewritten tuple = %+v", q.Tuple)
	}
	// Checksum must still verify.
	hdr := p.Data[EthLen : EthLen+IPv4Len]
	if got := ipv4Checksum(hdr); got != binary.BigEndian.Uint16(hdr[10:12]) {
		t.Fatal("checksum stale after NAT rewrite")
	}
	bad := &Packet{Data: make([]byte, 8)}
	if err := bad.RewriteNAT(1, 1); err == nil {
		t.Fatal("short frame rewrite succeeded")
	}
}

func TestDecTTL(t *testing.T) {
	p := &Packet{Data: buildUDPFrame(t, FiveTuple{Proto: ProtoUDP}, 0)}
	ok, err := p.DecTTL()
	if err != nil || !ok {
		t.Fatalf("DecTTL = %v, %v", ok, err)
	}
	if p.Data[EthLen+8] != 63 {
		t.Fatalf("TTL = %d, want 63", p.Data[EthLen+8])
	}
	p.Data[EthLen+8] = 1
	ok, err = p.DecTTL()
	if err != nil || ok {
		t.Fatalf("expired TTL: DecTTL = %v, %v", ok, err)
	}
	bad := &Packet{Data: make([]byte, 4)}
	if _, err := bad.DecTTL(); err == nil {
		t.Fatal("short frame TTL update succeeded")
	}
}

func TestPacketResetAndBits(t *testing.T) {
	p := &Packet{WireLen: 64, TEID: 7, UE: 9, MsgType: 3, Tuple: FiveTuple{SrcPort: 1}}
	if p.Bits() != 512 {
		t.Fatalf("Bits = %v", p.Bits())
	}
	p.Reset()
	if p.TEID != 0 || p.UE != 0 || p.MsgType != 0 || p.Tuple != (FiveTuple{}) {
		t.Fatalf("Reset left state: %+v", p)
	}
}

func TestRing(t *testing.T) {
	r, err := NewRing(0x10000, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.slotLen != 128 {
		t.Fatalf("slot len %d, want 100 rounded up to a line", r.slotLen)
	}
	if r.Slot(0) != 0x10000 {
		t.Fatalf("Slot(0) = %#x", r.Slot(0))
	}
	if r.Slot(4) != r.Slot(0) || r.Slot(5) != r.Slot(1) {
		t.Fatal("ring does not wrap")
	}
	if r.Slot(3)-r.Slot(0) != 3*r.slotLen {
		t.Fatalf("Slot(3) = %#x, want 3 padded slots past Slot(0)", r.Slot(3))
	}
	if _, err := NewRing(0, 0, 4); err == nil {
		t.Fatal("zero slot length accepted")
	}
	if _, err := NewRing(0, 64, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestFiveTupleString(t *testing.T) {
	tt := FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1, DstPort: 2, Proto: 17}
	if got, want := tt.String(), "10.0.0.1:1->10.0.0.2:2/17"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// Property: Hash is deterministic and spreads distinct tuples.
func TestFiveTupleHashProperty(t *testing.T) {
	prop := func(a, b FiveTuple) bool {
		if a.Hash() != a.Hash() {
			return false
		}
		if a == b {
			return a.Hash() == b.Hash()
		}
		// Not a strict requirement (collisions exist) but with random
		// 13-byte tuples a collision in 64 bits is vanishingly unlikely;
		// treat one as failure so regressions in mixing are caught.
		return a.Hash() != b.Hash()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode→parse recovers arbitrary five-tuples.
func TestParseProperty(t *testing.T) {
	prop := func(src, dst uint32, sp, dp uint16, tcp bool) bool {
		tuple := FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: ProtoUDP}
		if tcp {
			tuple.Proto = ProtoTCP
		}
		total := EthLen + IPv4Len + UDPLen
		b := make([]byte, total)
		if err := EncodeEthernet(b, [6]byte{}, [6]byte{}, EtherTypeIPv4); err != nil {
			return false
		}
		if err := EncodeIPv4(b[EthLen:], IPv4Header{TotalLen: uint16(total - EthLen), TTL: 64, Proto: tuple.Proto, Src: src, Dst: dst}); err != nil {
			return false
		}
		if err := EncodeUDP(b[EthLen+IPv4Len:], sp, dp, UDPLen); err != nil {
			return false
		}
		p := &Packet{Data: b}
		if err := p.Parse(); err != nil {
			return false
		}
		return p.Tuple == tuple
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalChecksumMatchesRecompute drives randomized NAT and TTL
// rewrites and asserts the incrementally-updated checksum is
// byte-identical to a full recompute of the edited header.
func TestIncrementalChecksumMatchesRecompute(t *testing.T) {
	prop := func(srcIP, dstIP, newIP uint32, srcPort, dstPort, newPort uint16, ttl uint8) bool {
		tuple := FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: srcPort, DstPort: dstPort, Proto: ProtoUDP}
		p := &Packet{Data: buildUDPFrame(t, tuple, 16)}
		if ttl != 0 {
			// Vary the TTL so the DecTTL word differs across cases.
			p.Data[EthLen+8] = ttl
			binary.BigEndian.PutUint16(p.Data[EthLen+10:EthLen+12], 0)
			binary.BigEndian.PutUint16(p.Data[EthLen+10:EthLen+12],
				ipv4Checksum(p.Data[EthLen:EthLen+IPv4Len]))
		}
		if err := p.RewriteNAT(newIP, newPort); err != nil {
			return false
		}
		hdr := p.Data[EthLen : EthLen+IPv4Len]
		if binary.BigEndian.Uint16(hdr[10:12]) != ipv4Checksum(hdr) {
			return false
		}
		if ok, err := p.DecTTL(); err != nil {
			return false
		} else if ok && binary.BigEndian.Uint16(hdr[10:12]) != ipv4Checksum(hdr) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
