package traffic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

func TestFlowGenValidation(t *testing.T) {
	if _, err := NewFlowGen(FlowGenConfig{Flows: 0, PacketBytes: 64}); err == nil {
		t.Fatal("zero flows accepted")
	}
	if _, err := NewFlowGen(FlowGenConfig{Flows: 10, PacketBytes: 32}); err == nil {
		t.Fatal("tiny packets accepted")
	}
	_, err := NewFlowGen(FlowGenConfig{Flows: 8, PacketBytes: 64, ShardBase: 4, ShardCount: 5})
	requireShardErr(t, err, "traffic: shard")
	// An order pick does not know is refused by value, not drawn as
	// uniform.
	if _, err := NewFlowGen(FlowGenConfig{Flows: 8, PacketBytes: 64, Order: 99}); err == nil || !strings.Contains(err.Error(), "99") {
		t.Fatalf("Order 99: error %v, want one naming the value", err)
	}
}

// requireShardErr checks that a generator refused a shard outside its
// population with its own error prefix.
func requireShardErr(t *testing.T, err error, prefix string) {
	t.Helper()
	if err == nil || !strings.HasPrefix(err.Error(), prefix) {
		t.Fatalf("out-of-range shard: error %v, want prefix %q", err, prefix)
	}
}

func TestFlowGenDistinctTuples(t *testing.T) {
	g, err := NewFlowGen(FlowGenConfig{Flows: 5000, PacketBytes: 64, Order: OrderUniform})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[pkt.FiveTuple]int, 5000)
	for i := 0; i < g.cfg.Flows; i++ {
		tu := g.FlowTuple(i)
		if prev, dup := seen[tu]; dup {
			t.Fatalf("flows %d and %d share tuple %v", prev, i, tu)
		}
		seen[tu] = i
	}
}

func TestFlowGenPacketsParse(t *testing.T) {
	g, err := NewFlowGen(FlowGenConfig{Flows: 100, PacketBytes: 512, Order: OrderUniform, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := g.Next()
		if p.WireLen != 512 {
			t.Fatalf("WireLen = %d", p.WireLen)
		}
		want := p.Tuple
		p.Tuple = pkt.FiveTuple{}
		if err := p.Parse(); err != nil {
			t.Fatalf("packet %d does not parse: %v", i, err)
		}
		if p.Tuple != want {
			t.Fatalf("packet %d: parsed %v, generator said %v", i, p.Tuple, want)
		}
	}
}

func TestFlowGenDeterministic(t *testing.T) {
	mk := func() []pkt.FiveTuple {
		g, err := NewFlowGen(FlowGenConfig{Flows: 50, PacketBytes: 64, Order: OrderUniform, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]pkt.FiveTuple, 100)
		for i := range out {
			out[i] = g.Next().Tuple
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d differs between identical seeds", i)
		}
	}
}

// TestFlowGenSequence pins the emitted sequence to one pick per
// packet: an independent replay drawing each pick at emission time
// from a fresh rng with the generator's seed emits the same flows.
func TestFlowGenSequence(t *testing.T) {
	const flows, seed, packets = 1000, 42, 5000
	orders := []struct {
		name  string
		order FlowOrder
	}{{"uniform", OrderUniform}, {"roundrobin", OrderRoundRobin}}
	shards := []struct {
		name        string
		base, count int
	}{{"whole", 0, 0}, {"shard", 250, 300}}
	for _, o := range orders {
		for _, sh := range shards {
			t.Run(o.name+"/"+sh.name, func(t *testing.T) {
				g, err := NewFlowGen(FlowGenConfig{
					Flows: flows, PacketBytes: 64, Order: o.order, Seed: seed,
					ShardBase: sh.base, ShardCount: sh.count,
				})
				if err != nil {
					t.Fatal(err)
				}
				base, count := sh.base, sh.count
				if count == 0 {
					count = flows
				}
				rng := rand.New(rand.NewSource(seed))
				rr := 0
				for i := 0; i < packets; i++ {
					var pick int
					if o.order == OrderRoundRobin {
						pick = base + rr
						rr = (rr + 1) % count
					} else {
						pick = base + rng.Intn(count)
					}
					if got, want := g.Next().Tuple, g.FlowTuple(pick); got != want {
						t.Fatalf("packet %d: emitted %v, replay picked flow %d = %v", i, got, pick, want)
					}
				}
			})
		}
	}
}

func TestFlowGenRoundRobin(t *testing.T) {
	g, err := NewFlowGen(FlowGenConfig{Flows: 4, PacketBytes: 64, Order: OrderRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if got := g.Next().Tuple; got != g.FlowTuple(i) {
				t.Fatalf("round %d pos %d: got %v, want flow %d", round, i, got, i)
			}
		}
	}
}

func TestMGWGenValidation(t *testing.T) {
	if _, err := NewMGWGen(MGWConfig{Sessions: 0, PDRs: 4, PacketBytes: 64}); err == nil {
		t.Fatal("zero sessions accepted")
	}
	if _, err := NewMGWGen(MGWConfig{Sessions: 4, PDRs: 0, PacketBytes: 64}); err == nil {
		t.Fatal("zero PDRs accepted")
	}
	if _, err := NewMGWGen(MGWConfig{Sessions: 4, PDRs: 4, PacketBytes: 10}); err == nil {
		t.Fatal("tiny packets accepted")
	}
	_, err := NewMGWGen(MGWConfig{Sessions: 8, PDRs: 2, PacketBytes: 64, ShardBase: -1, ShardCount: 2})
	requireShardErr(t, err, "traffic: mgw: shard")
}

func TestMGWGenTargetsSessions(t *testing.T) {
	cfg := MGWConfig{Sessions: 64, PDRs: 4, PacketBytes: 128, Seed: 5}
	g, err := NewMGWGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit := make(map[uint32]bool)
	for i := 0; i < 2000; i++ {
		p := g.Next()
		ue := p.Tuple.DstIP
		if ue < cfg.UEIP(0) || ue > cfg.UEIP(cfg.Sessions-1) {
			t.Fatalf("packet %d targets non-UE address %#x", i, ue)
		}
		hit[ue] = true
		want := p.Tuple
		p.Tuple = pkt.FiveTuple{}
		if err := p.Parse(); err != nil {
			t.Fatal(err)
		}
		if p.Tuple != want {
			t.Fatalf("reparse mismatch: %v vs %v", p.Tuple, want)
		}
	}
	if len(hit) < 50 {
		t.Fatalf("only %d of 64 sessions hit in 2000 packets", len(hit))
	}
}

// TestMGWGenOrders: the MGW generator has one order, uniform over its
// shard: a sharded generator targets only the shard's sessions, and
// every one of them.
func TestMGWGenOrders(t *testing.T) {
	cfg := MGWConfig{Sessions: 16, PDRs: 2, PacketBytes: 64, Seed: 1, ShardBase: 4, ShardCount: 8}
	g, err := NewMGWGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hit := make(map[uint32]bool)
	for i := 0; i < 400; i++ {
		ue := g.Next().Tuple.DstIP
		if ue < cfg.UEIP(4) || ue >= cfg.UEIP(12) {
			t.Fatalf("packet %d targets %#x, outside the shard's UEs", i, ue)
		}
		hit[ue] = true
	}
	if len(hit) != 8 {
		t.Fatalf("%d of the shard's 8 sessions hit in 400 packets", len(hit))
	}
}

func TestMGWPDRSpan(t *testing.T) {
	cfg := MGWConfig{Sessions: 1, PDRs: 16, PacketBytes: 64}
	if got := cfg.PDRRangeSpan(); got != 4096 {
		t.Fatalf("PDRRangeSpan = %d, want 4096", got)
	}
}

func TestAMFGenValidation(t *testing.T) {
	if _, err := NewAMFGen(AMFConfig{UEs: 0}); err == nil {
		t.Fatal("zero UEs accepted")
	}
	if _, err := NewAMFGen(AMFConfig{UEs: 10, MsgType: 99}); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

func TestAMFGenSingleMessageMode(t *testing.T) {
	g, err := NewAMFGen(AMFConfig{UEs: 100, MsgType: MsgAuthResponse, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := g.Next()
		if p.MsgType != MsgAuthResponse {
			t.Fatalf("packet %d: msg %d", i, p.MsgType)
		}
		if p.UE >= 100 {
			t.Fatalf("packet %d: UE %d out of range", i, p.UE)
		}
	}
}

func TestAMFGenCallFlowProgresses(t *testing.T) {
	g, err := NewAMFGen(AMFConfig{UEs: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Track each UE's message sequence; it must cycle 1..5 in order.
	last := make(map[uint32]uint8)
	for i := 0; i < 300; i++ {
		p := g.Next()
		if p.MsgType < 1 || int(p.MsgType) > NumAMFMessages {
			t.Fatalf("bad message type %d", p.MsgType)
		}
		if prev, ok := last[p.UE]; ok {
			want := prev%uint8(NumAMFMessages) + 1
			if p.MsgType != want {
				t.Fatalf("UE %d jumped from msg %d to %d", p.UE, prev, p.MsgType)
			}
		}
		last[p.UE] = p.MsgType
	}
}

func TestAMFMessageNames(t *testing.T) {
	seen := make(map[string]bool)
	for m := uint8(1); int(m) <= NumAMFMessages; m++ {
		name := AMFMessageName(m)
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate name %q for msg %d", name, m)
		}
		seen[name] = true
	}
	if AMFMessageName(200) == "" {
		t.Fatal("unknown message must still name itself")
	}
}

func TestCaidaGen(t *testing.T) {
	if _, err := NewCaidaGen(CaidaConfig{Flows: 1}); err == nil {
		t.Fatal("single flow accepted")
	}
	_, err := NewCaidaGen(CaidaConfig{Flows: 8, ShardBase: 8, ShardCount: 1})
	requireShardErr(t, err, "traffic: caida: shard")
	g, err := NewCaidaGen(CaidaConfig{Flows: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int]int)
	for i := 0; i < 5000; i++ {
		p := g.Next()
		sizes[p.WireLen]++
		want := p.Tuple
		p.Tuple = pkt.FiveTuple{}
		if err := p.Parse(); err != nil {
			t.Fatal(err)
		}
		if p.Tuple != want {
			t.Fatal("reparse mismatch")
		}
	}
	for _, s := range imixSizes {
		if sizes[s] == 0 {
			t.Fatalf("IMIX size %d never emitted; histogram %v", s, sizes)
		}
	}
	if sizes[64] < sizes[1518] {
		t.Fatalf("IMIX mix inverted: %v", sizes)
	}
}

func TestPoolRecycles(t *testing.T) {
	p := newPool()
	first := p.take()
	for i := 0; i < poolSize-1; i++ {
		p.take()
	}
	if p.take() != first {
		t.Fatal("pool did not wrap to the first packet")
	}
}

// BenchmarkFlowGenNext prices one generated packet over the nat_hit
// and nat_miss populations of the repo's benchmark (256 and 131072
// flows). The generator keeps no per-flow bytes, so the two differ
// only in the picks.
func BenchmarkFlowGenNext(b *testing.B) {
	for _, flows := range []int{256, 131072} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			g, err := NewFlowGen(FlowGenConfig{Flows: flows, PacketBytes: 64, Order: OrderUniform, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkPkt = g.Next()
			}
		})
	}
}

var sinkPkt *pkt.Packet

// source is what every generator is to a worker.
type source interface{ Next() *pkt.Packet }

// streamHash folds the first 2^17 packets of src into an FNV-64a hash:
// each packet's 42 header bytes, its tuple and its wire size.
func streamHash(src source) uint64 {
	h := fnv.New64a()
	var b []byte
	for range 1 << 17 {
		p := src.Next()
		b = append(b[:0], p.Data[:hdrBytes]...)
		b = appendTuple(b, p.Tuple)
		b = binary.BigEndian.AppendUint64(b, uint64(p.WireLen))
		h.Write(b)
	}
	return h.Sum64()
}

func appendTuple(b []byte, t pkt.FiveTuple) []byte {
	b = binary.BigEndian.AppendUint32(b, t.SrcIP)
	b = binary.BigEndian.AppendUint32(b, t.DstIP)
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	return append(b, t.Proto)
}

// TestGeneratorStreamsPinned pins every generator's emitted packets,
// and FlowGen's population, to hashes taken before FlowGen dropped its
// per-flow records and the generators shared one header writer: how a
// frame is built may change, what is built may not. The uniform-tcp
// row, which keeps TCP frames pinned, was taken when FlowGen's Zipf
// order was deleted, at the commit before.
func TestGeneratorStreamsPinned(t *testing.T) {
	flowGen := func(cfg FlowGenConfig) func() (source, error) {
		return func() (source, error) { return NewFlowGen(cfg) }
	}
	cases := []struct {
		name string
		mk   func() (source, error)
		want uint64
	}{
		{"flowgen/uniform", flowGen(FlowGenConfig{Flows: 131072, PacketBytes: 64, Order: OrderUniform, Seed: 1}),
			0xbf1465ec3a9c3d07},
		{"flowgen/uniform-tcp", flowGen(FlowGenConfig{Flows: 16384, PacketBytes: 512, Order: OrderUniform, Seed: 2, Proto: pkt.ProtoTCP}),
			0x12e4729b22974027},
		{"flowgen/roundrobin-shard", flowGen(FlowGenConfig{Flows: 4096, PacketBytes: 1500, Order: OrderRoundRobin, Seed: 3, ShardBase: 1000, ShardCount: 1500}),
			0xdf6bebbbf800119d},
		{"mgw", func() (source, error) {
			return NewMGWGen(MGWConfig{Sessions: 32768, PDRs: 16, PacketBytes: 64, Seed: 4})
		},
			0x5d4d8f3fa82c811b},
		{"caida", func() (source, error) { return NewCaidaGen(CaidaConfig{Flows: 131072, Seed: 5}) },
			0x256dfaecd2dfe4aa},
		{"amf", func() (source, error) { return NewAMFGen(AMFConfig{UEs: 1 << 17, Seed: 6}) },
			0x3d0fabc0e4d82325},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			got := streamHash(src)
			if g, ok := src.(*FlowGen); ok {
				h := fnv.New64a()
				b := binary.BigEndian.AppendUint64(nil, got)
				for i := range g.cfg.Flows {
					b = appendTuple(b, g.FlowTuple(i))
				}
				h.Write(b)
				got = h.Sum64()
			}
			if got != c.want {
				t.Errorf("stream hash %#016x, want %#016x", got, c.want)
			}
		})
	}
}

// TestFlowGenHostBytes holds FlowGen to no per-flow bytes: a
// generator over 2^20 flows retains at most 4 KiB of Go heap more than
// one over a single flow. A 64-byte record per flow would be 64 MiB.
func TestFlowGenHostBytes(t *testing.T) {
	retained := func(flows int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g, err := NewFlowGen(FlowGenConfig{Flows: flows, PacketBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(g)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	retained(1) // the first generator also pays the runtime's one-time costs
	one, many := retained(1), retained(1<<20)
	t.Logf("1 flow retains %d B, 2^20 flows %d B", one, many)
	if d := many - one; d > 4<<10 {
		t.Fatalf("2^20 flows retain %d B more than 1 flow, want <= 4096", d)
	}
}

// encodeHeader is the reference frame header for tuple at wire bytes:
// the pkt encoders, field by field.
func encodeHeader(t testing.TB, tuple pkt.FiveTuple, wire int) []byte {
	b := make([]byte, hdrBytes)
	err := errors.Join(
		pkt.EncodeEthernet(b, [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2}, pkt.EtherTypeIPv4),
		pkt.EncodeIPv4(b[pkt.EthLen:], pkt.IPv4Header{
			TotalLen: uint16(wire - pkt.EthLen), TTL: 64, Proto: tuple.Proto, Src: tuple.SrcIP, Dst: tuple.DstIP,
		}),
		pkt.EncodeUDP(b[pkt.EthLen+pkt.IPv4Len:], tuple.SrcPort, tuple.DstPort, uint16(wire-pkt.EthLen-pkt.IPv4Len)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkHeaderWriter writes tuple's header over a buffer of stale bytes
// and requires the encoders' bytes, the generator's parsed fields, and
// a re-parse that reads the tuple back.
func checkHeaderWriter(t testing.TB, tuple pkt.FiveTuple, wire int) {
	p := &pkt.Packet{Data: bytes.Repeat([]byte{0xa5}, bufBytes)}
	buildUDPish(p, tuple, wire)
	if want := encodeHeader(t, tuple, wire); !bytes.Equal(p.Data[:hdrBytes], want) {
		t.Fatalf("%v at %d B:\n got %x\nwant %x", tuple, wire, p.Data[:hdrBytes], want)
	}
	if p.Tuple != tuple || p.WireLen != wire {
		t.Fatalf("writer set %v, %d B; want %v, %d B", p.Tuple, p.WireLen, tuple, wire)
	}
	q := &pkt.Packet{Data: p.Data}
	if err := q.Parse(); err != nil {
		t.Fatalf("%v at %d B does not parse: %v", tuple, wire, err)
	}
	if q.Tuple != tuple {
		t.Fatalf("parsed %v, wrote %v", q.Tuple, tuple)
	}
}

func TestHeaderWriterMatchesEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for wire := 64; wire <= 1518; wire++ {
		for _, proto := range []uint8{pkt.ProtoTCP, pkt.ProtoUDP} {
			checkHeaderWriter(t, pkt.FiveTuple{
				SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: proto,
			}, wire)
		}
	}
}
