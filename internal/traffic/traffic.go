// Package traffic generates the workloads of the paper's evaluation:
// uniform flow mixes for NAT/LB/FW/NM and the SFC experiments, the
// Telco-benchmark MGW use case (N PFCP sessions × M PDRs of downlink
// traffic) for the UPF, UE initial-registration call flows for the
// AMF, and a CAIDA-like heavy-tailed trace with an IMIX size mix.
// FlowGen also has a round-robin order, a fixed visit order the tests
// rely on.
//
// All generators are deterministic for a given seed and build real
// frame bytes (Ethernet/IPv4/UDP) that the NFs parse and rewrite. Each
// takes its packets from its own pool and is an rt.Recycler: a worker
// hands every packet back when its stream ends, so a generator holds
// only the packets in flight and steady-state generation allocates
// nothing while the simulator measures the data plane.
package traffic

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// bufBytes is the per-packet byte buffer: headers only, since payload
// content is never inspected. WireLen carries the true packet size.
const bufBytes = 128

// poolSize is the most packets a pool makes. A worker that hands its
// packets back holds at most Tasks+Batch of them, so a pool it drains
// stays that small; poolSize is what a consumer that hands nothing
// back may still read: every packet stays intact for the next
// poolSize-1 takes (the benchmark's output check reads 4096 frames
// after its run).
const poolSize = 4096

// chunkSize is how many packets a pool makes first; after that each
// chunk doubles the pool.
const chunkSize = 64

// pool is the packet store every generator keeps, a per-generator
// mempool. take hands out the packet most recently handed back; else a
// new one, while fewer than poolSize exist; else the next in making
// order that was last handed out poolSize or more takes ago. So a
// packet nobody hands back stays intact for the next poolSize-1 takes,
// and with no hand-backs the pool cycles exactly in making order.
// Packets are made a chunk at a time, chunkSize first and then as many
// as the pool holds, so a pool holds what its consumer keeps in flight
// rounded up to chunkSize times a power of two, and filling it to
// poolSize takes seven chunks.
type pool struct {
	slots []slot        // every packet made, in making order; index = PoolIndex
	chunk []pkt.Packet  // the chunk new packets come from
	free  []*pkt.Packet // handed back and not yet taken again
	takes uint64        // packets handed out so far
	next  int           // where the reuse scan resumes, once all are made
}

// slot is one made packet and the take count it was last handed out at.
type slot struct {
	pkt   *pkt.Packet
	taken uint64
}

func newPool() *pool { return &pool{} }

// take returns a packet no consumer may still read, with a clean parse
// state.
func (p *pool) take() *pkt.Packet {
	var q *pkt.Packet
	if n := len(p.free); n > 0 {
		q = p.free[n-1]
		p.free = p.free[:n-1]
		p.slots[q.PoolIndex].taken = p.takes
	} else if len(p.slots) < poolSize {
		q = p.grow()
	} else {
		// The scan ends within one lap: the last poolSize-1 takes handed
		// out at most poolSize-1 packets.
		for p.takes-p.slots[p.next].taken < poolSize {
			p.next = (p.next + 1) % poolSize
		}
		s := &p.slots[p.next]
		q, s.taken = s.pkt, p.takes
		p.next = (p.next + 1) % poolSize
	}
	p.takes++
	q.Reset()
	return q
}

// grow makes the pool's next packet, allocating a chunk when the last
// is used up. slots and free get their room with the chunk, so neither
// take nor Recycle allocates.
func (p *pool) grow() *pkt.Packet {
	n := len(p.slots)
	if n == cap(p.slots) {
		size := max(chunkSize, n)
		p.chunk = make([]pkt.Packet, size)
		bufs := make([]byte, size*bufBytes)
		for i := range p.chunk {
			p.chunk[i].Data = bufs[i*bufBytes : (i+1)*bufBytes]
		}
		p.slots = append(make([]slot, 0, n+size), p.slots...)
		p.free = append(make([]*pkt.Packet, 0, n+size), p.free...)
	}
	q := &p.chunk[len(p.chunk)-cap(p.slots)+n]
	q.PoolIndex = int32(n)
	p.slots = append(p.slots, slot{pkt: q, taken: p.takes})
	return q
}

// Recycle takes back q, a packet this generator handed out, which the
// next Next may hand out again: the rt.Recycler contract. A caller
// hands each packet back at most once per take, and reads it no more.
func (p *pool) Recycle(q *pkt.Packet) { p.free = append(p.free, q) }

// FlowOrder selects how a generator walks its flow population.
type FlowOrder int

// The flow orders.
const (
	// OrderUniform draws flows uniformly at random. The zero Order
	// means the same.
	OrderUniform FlowOrder = iota + 1
	// OrderRoundRobin cycles the flows in order (worst case for
	// caching: maximal reuse distance).
	OrderRoundRobin
)

// shard applies the generators' one shard rule to a population of n:
// a zero count selects the whole population, and a shard must lie
// inside it. The error starts with prefix and counts the population in
// units of noun.
func shard(base, count *int, n int, prefix, noun string) error {
	if *count == 0 {
		*base, *count = 0, n
	}
	if *base < 0 || *base+*count > n {
		return fmt.Errorf("%s: shard [%d,%d) outside %d %s", prefix, *base, *base+*count, n, noun)
	}
	return nil
}

// FlowGenConfig parametrizes a synthetic flow workload.
type FlowGenConfig struct {
	// Flows is the concurrent flow population.
	Flows int
	// PacketBytes is the wire size of every packet.
	PacketBytes int
	// Order is the flow selection discipline: 0, OrderUniform or
	// OrderRoundRobin. CaidaGen supplies heavy-tailed popularity.
	Order FlowOrder
	// Seed makes the generator deterministic.
	Seed int64
	// Proto selects TCP or UDP frames (default UDP).
	Proto uint8
	// ShardBase/ShardCount restrict emission to the flow index range
	// [ShardBase, ShardBase+ShardCount) — RSS steering: the table holds
	// all Flows, but this core only receives its shard. ShardCount = 0
	// means the whole population.
	ShardBase, ShardCount int
}

// FlowGen emits packets over a synthetic flow population. It implements
// the runtimes' Source interface. It keeps no per-flow bytes: a flow's
// tuple is arithmetic on its index, and every packet's header is
// written afresh.
type FlowGen struct {
	cfg FlowGenConfig
	rng *rand.Rand
	*pool
	rr int
}

// NewFlowGen builds a generator over cfg.Flows distinct five-tuples.
func NewFlowGen(cfg FlowGenConfig) (*FlowGen, error) {
	if cfg.Flows <= 0 {
		return nil, fmt.Errorf("traffic: Flows must be positive, got %d", cfg.Flows)
	}
	if cfg.PacketBytes < 64 {
		return nil, fmt.Errorf("traffic: PacketBytes must be >= 64, got %d", cfg.PacketBytes)
	}
	if cfg.Order != 0 && cfg.Order != OrderUniform && cfg.Order != OrderRoundRobin {
		return nil, fmt.Errorf("traffic: unknown Order %d", cfg.Order)
	}
	if cfg.Proto == 0 {
		cfg.Proto = pkt.ProtoUDP
	}
	if err := shard(&cfg.ShardBase, &cfg.ShardCount, cfg.Flows, "traffic", "flows"); err != nil {
		return nil, err
	}
	return &FlowGen{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		pool: newPool(),
	}, nil
}

// FlowTuple returns flow i's five-tuple, for table pre-population. The
// source address spreads i over bits 8–23 so tuples stay distinct even
// when the source port cycles.
func (g *FlowGen) FlowTuple(i int) pkt.FiveTuple {
	return pkt.FiveTuple{
		SrcIP:   0x0a000000 + uint32(i/65000) + uint32(i%65000)<<8&0x00ffff00,
		DstIP:   0xc0a80000 + uint32(i%4096),
		SrcPort: uint16(1024 + i%64000),
		DstPort: 443,
		Proto:   g.cfg.Proto,
	}
}

// pick selects the next flow index per the configured order, within
// the generator's shard.
func (g *FlowGen) pick() int {
	if g.cfg.Order == OrderRoundRobin {
		i := g.rr
		g.rr = (g.rr + 1) % g.cfg.ShardCount
		return g.cfg.ShardBase + i
	}
	return g.cfg.ShardBase + g.rng.Intn(g.cfg.ShardCount)
}

// Next emits the next packet. FlowGen is an infinite source; callers
// bound runs by packet count.
func (g *FlowGen) Next() *pkt.Packet {
	tuple := g.FlowTuple(g.pick())
	p := g.pool.take()
	buildUDPish(p, tuple, g.cfg.PacketBytes)
	return p
}

// hdrBytes is the encoded Ethernet/IPv4/L4 header length — the bytes
// buildUDPish writes.
const hdrBytes = pkt.EthLen + pkt.IPv4Len + pkt.UDPLen

// hdrTemplate is the part of every generated header that no packet
// changes: destination and source MAC, EtherType IPv4, version/IHL 4/5,
// don't-fragment, TTL 64. buildUDPish patches the rest.
var hdrTemplate = [hdrBytes]byte{
	2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2, 0x08, 0x00, // Ethernet
	0x45, 0, 0, 0, 0, 0, 0x40, 0, 64, // IPv4 up to Proto
}

// hdrSum is the sum of the template's fixed IPv4 words: version/IHL/TOS,
// flags/fragment and the TTL half of TTL/Proto (identification is zero).
const hdrSum = 0x4500 + 0x4000 + 64<<8

// buildUDPish writes an Ethernet/IPv4/L4 header for tuple into p and
// sets the parsed fields directly (the generator knows them; NFs that
// re-parse get identical results). The bytes are those of
// pkt.EncodeEthernet, EncodeIPv4 and EncodeUDP, which the tests hold
// it to; the checksum is the template's constant sum plus the patched
// words, folded twice (the sum stays below 2^20, so two folds leave no
// carry).
func buildUDPish(p *pkt.Packet, tuple pkt.FiveTuple, wire int) {
	b := (*[hdrBytes]byte)(p.Data)
	*b = hdrTemplate
	ip, l4 := b[pkt.EthLen:], b[pkt.EthLen+pkt.IPv4Len:]
	total := uint16(wire - pkt.EthLen)
	binary.BigEndian.PutUint16(ip[2:4], total)
	ip[9] = tuple.Proto
	binary.BigEndian.PutUint32(ip[12:16], tuple.SrcIP)
	binary.BigEndian.PutUint32(ip[16:20], tuple.DstIP)
	sum := hdrSum + uint32(total) + uint32(tuple.Proto) +
		tuple.SrcIP>>16 + tuple.SrcIP&0xffff + tuple.DstIP>>16 + tuple.DstIP&0xffff
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	binary.BigEndian.PutUint16(ip[10:12], ^uint16(sum))
	binary.BigEndian.PutUint16(l4[0:2], tuple.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], tuple.DstPort)
	binary.BigEndian.PutUint16(l4[4:6], total-pkt.IPv4Len)
	p.WireLen = wire
	// Field by field: tuple arrives as field-sized stores, and a
	// whole-struct copy reloads it with one 16-byte load that store
	// forwarding cannot serve (a sixth of FlowGen.Next's profile).
	t := &p.Tuple
	t.SrcIP, t.DstIP, t.SrcPort, t.DstPort, t.Proto = tuple.SrcIP, tuple.DstIP, tuple.SrcPort, tuple.DstPort, tuple.Proto
}
