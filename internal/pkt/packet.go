// Package pkt defines the packet representation shared by the traffic
// generators, the NF model, and the runtimes, together with wire-format
// codecs for the headers the reproduced network functions manipulate
// (Ethernet, IPv4, UDP, TCP, GTP-U).
//
// A Packet couples real header bytes (so NF actions parse and rewrite
// genuine wire formats) with a simulated buffer address (so every header
// access is charged to the cache hierarchy). Packet buffers are recycled
// through a ring of fixed mbuf-style slots per core, mirroring a DPDK
// rx ring, which is what gives packet state its realistic cache
// behaviour: a slot's lines are warm immediately after receive and decay
// as the ring wraps.
package pkt

import "fmt"

// FiveTuple is the classic flow key.
type FiveTuple struct {
	// SrcIP and DstIP are IPv4 addresses in host byte order.
	SrcIP, DstIP uint32
	// SrcPort and DstPort are transport ports.
	SrcPort, DstPort uint16
	// Proto is the IP protocol number (6 TCP, 17 UDP).
	Proto uint8
}

// Hash returns a 64-bit mix of the tuple suitable for flow tables and
// RSS-style core steering. It is a Fibonacci-style multiplicative hash
// over the packed tuple; deterministic across runs.
func (t FiveTuple) Hash() uint64 {
	h := uint64(t.SrcIP)<<32 | uint64(t.DstIP)
	h ^= uint64(t.SrcPort)<<48 | uint64(t.DstPort)<<32 | uint64(t.Proto)
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 32
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h
}

// String renders the tuple for logs.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%d",
		ipString(t.SrcIP), t.SrcPort, ipString(t.DstIP), t.DstPort, t.Proto)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Packet is one frame in flight through an NF program.
type Packet struct {
	// Addr is the simulated address of the packet buffer (mbuf slot);
	// header accesses are charged against it.
	Addr uint64
	// Data holds the frame bytes starting at the Ethernet header.
	Data []byte
	// WireLen is the on-the-wire length in bytes used for throughput
	// accounting; it may exceed len(Data) when payload bytes are elided.
	WireLen int
	// Tuple is the parsed five-tuple (valid after Parse).
	Tuple FiveTuple
	// TEID is the GTP-U tunnel id the UPF's downlink encap writes into
	// the outer header (there is no uplink to read one).
	TEID uint32
	// UE identifies the subscriber for control-plane (AMF) messages.
	UE uint32
	// MsgType distinguishes control-plane message kinds (NAS procedures).
	MsgType uint8
	// RxCycle is the core cycle the packet was received at, like a DPDK
	// mbuf's rx timestamp; a traced worker stamps it, and its stream-done
	// event reports the rx→done span from it.
	RxCycle uint64
}

// Bits returns the wire length in bits, for Gbps computations.
func (p *Packet) Bits() float64 { return float64(p.WireLen) * 8 }

// Reset clears per-trip parse results while keeping the buffer.
func (p *Packet) Reset() {
	p.Tuple = FiveTuple{}
	p.TEID = 0
	p.UE = 0
	p.MsgType = 0
}

// Ring is a fixed set of recycled packet buffer slots standing in for a
// NIC rx descriptor ring. Slot returns the simulated address for the
// i-th received packet; consecutive packets use consecutive slots and
// the ring wraps, so buffer lines are reused on the ring period exactly
// as a poll-mode driver would.
type Ring struct {
	base    uint64
	slotLen uint64
	slots   uint64
}

// NewRing builds a ring of n slots of slotLen bytes starting at base.
// slotLen is rounded up to a cache line.
func NewRing(base uint64, slotLen uint64, n int) (*Ring, error) {
	if n <= 0 || slotLen == 0 {
		return nil, fmt.Errorf("pkt: ring needs positive slots and slot length")
	}
	const line = 64
	return &Ring{
		base:    base,
		slotLen: (slotLen + line - 1) &^ (line - 1),
		slots:   uint64(n),
	}, nil
}

// Slot returns the address of the buffer used by the seq-th packet.
func (r *Ring) Slot(seq uint64) uint64 {
	return r.base + (seq%r.slots)*r.slotLen
}
