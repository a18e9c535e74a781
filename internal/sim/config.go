// Package sim implements a deterministic simulated CPU core with a
// set-associative L1/L2/LLC cache hierarchy, an asynchronous software
// prefetcher with a bounded number of MSHRs (miss-status holding
// registers), and a PMU-style counter block.
//
// The simulator is the hardware substitute this reproduction uses in place
// of the paper's Xeon 8168 testbed (see DESIGN.md): every NFState access
// performed by an NFAction or a match structure is charged cycles against
// this hierarchy, so the cost of a given access schedule — and therefore
// the benefit of the interleaved function-stream execution model — is
// measured rather than assumed.
//
// All state is confined to a single goroutine's Core; cores share nothing,
// mirroring the paper's per-core runtime design.
package sim

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size in bytes. The whole hierarchy uses
// 64-byte lines, matching the x86 machines the paper evaluates on.
const LineBytes = 64

// lineShift is log2(LineBytes), used to convert addresses to line numbers.
const lineShift = 6

// CacheConfig describes one level of the cache hierarchy.
type CacheConfig struct {
	// Name identifies the level in error messages and PMU dumps.
	Name string
	// SizeBytes is the total capacity. Must be a multiple of
	// Ways*LineBytes and yield a power-of-two set count.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the cycles charged when an access hits this level.
	HitLatency uint64
}

// Sets returns the number of sets implied by the size and associativity.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.Ways * LineBytes)
}

func (c CacheConfig) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("sim: cache %s: size and ways must be positive", c.Name)
	}
	if c.SizeBytes%(c.Ways*LineBytes) != 0 {
		return fmt.Errorf("sim: cache %s: size %d not a multiple of ways*line", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("sim: cache %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// Config describes a simulated core: its cache hierarchy, DRAM latency,
// prefetcher limits, and the costs of the runtime's own mechanics.
//
// Address bound: cache tags are compact (31 bits above the set index),
// so every simulated address must lie below 2^37 × the smallest level's
// set count bytes (8 TiB for the default 64-set L1); an access beyond
// that panics rather than aliasing.
type Config struct {
	// L1, L2 and LLC describe the three cache levels, innermost first.
	L1, L2, LLC CacheConfig
	// DRAMLatency is the cycles charged when an access misses every level.
	DRAMLatency uint64
	// MSHRs bounds the number of outstanding prefetch fills. Prefetches
	// issued while all MSHRs are busy are dropped (and counted), which is
	// how real cores behave and is one of the mechanisms that caps how
	// many interleaved streams are profitable.
	MSHRs int
	// PrefetchIssueCost is the cycles charged per prefetch instruction.
	PrefetchIssueCost uint64
	// SwitchCost is the cycles charged per NFTask switch (pointer swap,
	// dispatch through the action table). The paper measures NFTask
	// switching at tens of millions per second per core, i.e. a few tens
	// of cycles.
	SwitchCost uint64
	// IssueWidth is the superscalar width used to convert instruction
	// counts to busy cycles: cycles = ceil(instructions / IssueWidth).
	IssueWidth uint64
	// BurstGap is the incremental cycles charged for the second and
	// subsequent missing lines within a single multi-line demand access.
	// It models the memory-level parallelism a core extracts from one
	// sequential burst (bandwidth-bound rather than latency-bound).
	BurstGap uint64
	// FreqHz is the simulated core clock, used to convert cycles to
	// seconds when reporting throughput.
	FreqHz float64
}

// DefaultConfig returns a configuration modelled on the paper's testbed
// CPU (Intel Xeon Platinum 8168 @ 2.7 GHz): 32 KiB 8-way L1d, 1 MiB
// 16-way private L2, and the latency figures quoted in the paper's
// §II-A converted to cycles. The LLC is sized as the core's share of
// the chip's non-inclusive 33 MiB cache (1.375 MiB/core slice plus some
// spill headroom) — on a loaded 24-core NFV box a single NF instance
// does not get the whole LLC.
func DefaultConfig() Config {
	return Config{
		L1:                CacheConfig{Name: "L1d", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4},
		L2:                CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, HitLatency: 14},
		LLC:               CacheConfig{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, HitLatency: 50},
		DRAMLatency:       200,
		MSHRs:             12,
		PrefetchIssueCost: 2,
		SwitchCost:        12,
		IssueWidth:        2,
		BurstGap:          30,
		FreqHz:            2.7e9,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	for _, lvl := range []CacheConfig{c.L1, c.L2, c.LLC} {
		if err := lvl.validate(); err != nil {
			return err
		}
	}
	if c.DRAMLatency == 0 {
		return fmt.Errorf("sim: DRAM latency must be positive")
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("sim: MSHR count must be positive")
	}
	if c.IssueWidth == 0 {
		return fmt.Errorf("sim: issue width must be positive")
	}
	if c.FreqHz <= 0 {
		return fmt.Errorf("sim: frequency must be positive")
	}
	return nil
}
