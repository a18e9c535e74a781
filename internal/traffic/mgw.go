package traffic

import (
	"fmt"
	"math/rand"

	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// MGWConfig parametrizes the Telco-benchmark Mobile GateWay use case
// the paper drives its UPF experiments with: N PFCP sessions, each with
// M packet detection rules, receiving downlink traffic.
type MGWConfig struct {
	// Sessions is the PFCP session count (one UE each).
	Sessions int
	// PDRs is the number of packet detection rules per session; the
	// generator spreads each session's traffic across all of them by
	// cycling source ports through the PDR port ranges.
	PDRs int
	// PacketBytes is the downlink packet wire size.
	PacketBytes int
	// Seed makes the workload deterministic.
	Seed int64
	// ShardBase/ShardCount restrict emission to a session index range
	// (RSS steering); ShardCount = 0 means all sessions.
	ShardBase, ShardCount int
}

// UEIP returns the UE address of session i (level-1 match key).
func (c MGWConfig) UEIP(i int) uint32 { return 0x0a000000 + uint32(i) }

// PDRRangeSpan returns the source-port span of one PDR's SDF filter
// when the port space is partitioned evenly across the session's PDRs.
func (c MGWConfig) PDRRangeSpan() int { return 65536 / c.PDRs }

// MGWGen emits downlink packets toward the UE population, drawing
// sessions uniformly.
type MGWGen struct {
	cfg MGWConfig
	rng *rand.Rand
	*pool
}

// NewMGWGen validates cfg and builds the generator.
func NewMGWGen(cfg MGWConfig) (*MGWGen, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("traffic: mgw: Sessions must be positive, got %d", cfg.Sessions)
	}
	if cfg.PDRs <= 0 || cfg.PDRs > 65536 {
		return nil, fmt.Errorf("traffic: mgw: PDRs must be in [1,65536], got %d", cfg.PDRs)
	}
	if cfg.PacketBytes < 64 {
		return nil, fmt.Errorf("traffic: mgw: PacketBytes must be >= 64, got %d", cfg.PacketBytes)
	}
	if err := shard(&cfg.ShardBase, &cfg.ShardCount, cfg.Sessions, "traffic: mgw", "sessions"); err != nil {
		return nil, err
	}
	return &MGWGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), pool: newPool()}, nil
}

// Next emits a downlink packet: server → a uniformly drawn UE IP of the
// shard, with a source port drawn uniformly so it lands in a uniformly
// random PDR's range.
func (g *MGWGen) Next() *pkt.Packet {
	sess := g.cfg.ShardBase + g.rng.Intn(g.cfg.ShardCount)
	tuple := pkt.FiveTuple{
		SrcIP:   0x08080800 + uint32(g.rng.Intn(256)), // internet servers
		DstIP:   g.cfg.UEIP(sess),
		SrcPort: uint16(g.rng.Intn(65536)),
		DstPort: uint16(10000 + g.rng.Intn(1000)),
		Proto:   pkt.ProtoUDP,
	}
	p := g.pool.take()
	buildUDPish(p, tuple, g.cfg.PacketBytes)
	return p
}
