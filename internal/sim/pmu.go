package sim

import "fmt"

// Counters is a PMU-style counter block. It substitutes for the `perf`
// measurements the paper collects (L1/L2/LLC misses per packet, IPC,
// state-access cycles). All fields are monotonically increasing; use Sub
// to window a measurement.
type Counters struct {
	// Cycles is the core clock at sampling time.
	Cycles uint64
	// Instructions counts retired (simulated) instructions.
	Instructions uint64
	// Reads and Writes count demand accesses (per line touched).
	Reads, Writes uint64
	// L1Hits..LLCMisses count where each demand line access was served.
	// An LLCMiss is a DRAM access.
	L1Hits, L1Misses   uint64
	L2Hits, L2Misses   uint64
	LLCHits, LLCMisses uint64
	// PrefetchIssued counts accepted prefetch line fills.
	PrefetchIssued uint64
	// PrefetchDropped counts prefetches rejected because all MSHRs were
	// busy.
	PrefetchDropped uint64
	// PrefetchRedundant counts prefetches for lines already in L1.
	PrefetchRedundant uint64
	// PrefetchUseful counts demand accesses served by a completed
	// prefetch; PrefetchLate counts demand accesses that had to stall for
	// an in-flight prefetch to complete.
	PrefetchUseful, PrefetchLate uint64
	// StallCycles is the portion of Cycles spent waiting on memory.
	StallCycles uint64
	// TaskSwitches counts scheduler switches between NFTasks.
	TaskSwitches uint64
}

// Sub returns the counter deltas c - o, for windowed measurements.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Cycles:            c.Cycles - o.Cycles,
		Instructions:      c.Instructions - o.Instructions,
		Reads:             c.Reads - o.Reads,
		Writes:            c.Writes - o.Writes,
		L1Hits:            c.L1Hits - o.L1Hits,
		L1Misses:          c.L1Misses - o.L1Misses,
		L2Hits:            c.L2Hits - o.L2Hits,
		L2Misses:          c.L2Misses - o.L2Misses,
		LLCHits:           c.LLCHits - o.LLCHits,
		LLCMisses:         c.LLCMisses - o.LLCMisses,
		PrefetchIssued:    c.PrefetchIssued - o.PrefetchIssued,
		PrefetchDropped:   c.PrefetchDropped - o.PrefetchDropped,
		PrefetchRedundant: c.PrefetchRedundant - o.PrefetchRedundant,
		PrefetchUseful:    c.PrefetchUseful - o.PrefetchUseful,
		PrefetchLate:      c.PrefetchLate - o.PrefetchLate,
		StallCycles:       c.StallCycles - o.StallCycles,
		TaskSwitches:      c.TaskSwitches - o.TaskSwitches,
	}
}

// Add returns the element-wise sum c + o, for aggregating counter
// blocks across cores or runs.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Cycles:            c.Cycles + o.Cycles,
		Instructions:      c.Instructions + o.Instructions,
		Reads:             c.Reads + o.Reads,
		Writes:            c.Writes + o.Writes,
		L1Hits:            c.L1Hits + o.L1Hits,
		L1Misses:          c.L1Misses + o.L1Misses,
		L2Hits:            c.L2Hits + o.L2Hits,
		L2Misses:          c.L2Misses + o.L2Misses,
		LLCHits:           c.LLCHits + o.LLCHits,
		LLCMisses:         c.LLCMisses + o.LLCMisses,
		PrefetchIssued:    c.PrefetchIssued + o.PrefetchIssued,
		PrefetchDropped:   c.PrefetchDropped + o.PrefetchDropped,
		PrefetchRedundant: c.PrefetchRedundant + o.PrefetchRedundant,
		PrefetchUseful:    c.PrefetchUseful + o.PrefetchUseful,
		PrefetchLate:      c.PrefetchLate + o.PrefetchLate,
		StallCycles:       c.StallCycles + o.StallCycles,
		TaskSwitches:      c.TaskSwitches + o.TaskSwitches,
	}
}

// IPC returns instructions per cycle, the efficiency metric of the
// paper's Figures 10(d) and 13(c).
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// L1HitRate returns the fraction of demand accesses served by L1, the
// paper's "L1-C utilization" metric (Figure 10(b)).
func (c Counters) L1HitRate() float64 {
	total := c.L1Hits + c.L1Misses
	if total == 0 {
		return 0
	}
	return float64(c.L1Hits) / float64(total)
}

// L2HitRate returns the fraction of L1 misses served by L2 (Figure 10(c)).
func (c Counters) L2HitRate() float64 {
	total := c.L2Hits + c.L2Misses
	if total == 0 {
		return 0
	}
	return float64(c.L2Hits) / float64(total)
}

// Accesses returns total demand line accesses.
func (c Counters) Accesses() uint64 { return c.Reads + c.Writes }

// MPKI returns L1 demand misses per thousand instructions, the
// cache-pressure metric perf reports as l1d-misses/instructions.
func (c Counters) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return 1000 * float64(c.L1Misses) / float64(c.Instructions)
}

// StallFraction returns the share of cycles spent waiting on memory —
// the quantity interleaving exists to shrink.
func (c Counters) StallFraction() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.StallCycles) / float64(c.Cycles)
}

// PrefetchAccuracy returns the fraction of issued prefetches that a
// demand access later consumed (useful / issued). Low accuracy means
// the prefetcher is filling lines nobody reads.
func (c Counters) PrefetchAccuracy() float64 {
	if c.PrefetchIssued == 0 {
		return 0
	}
	return float64(c.PrefetchUseful) / float64(c.PrefetchIssued)
}

// String renders a compact one-line summary for logs and dumps,
// including the derived metrics that make a single line readable:
// MPKI, the stall share of total cycles, and prefetch accuracy.
func (c Counters) String() string {
	return fmt.Sprintf(
		"cycles=%d insts=%d ipc=%.2f l1=%.1f%% l2=%.1f%% mpki=%.2f llcMiss=%d pf={iss=%d use=%d late=%d drop=%d acc=%.0f%%} stall=%d (%.0f%%) switches=%d",
		c.Cycles, c.Instructions, c.IPC(), 100*c.L1HitRate(), 100*c.L2HitRate(),
		c.MPKI(), c.LLCMisses, c.PrefetchIssued, c.PrefetchUseful, c.PrefetchLate,
		c.PrefetchDropped, 100*c.PrefetchAccuracy(), c.StallCycles,
		100*c.StallFraction(), c.TaskSwitches)
}
