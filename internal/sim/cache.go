package sim

import "math/bits"

// cache is one set-associative level with LRU replacement. Asynchronously
// prefetched lines are installed immediately (creating realistic
// occupancy pressure) while still stalling accesses that arrive before
// the fill completes: an L1 slot carries the cycle its fill completes,
// and an outer slot carries only a flag, because the one fill that
// reaches L2 or the LLC still in flight is a DRAM prefetch, which
// completes DRAMLatency after the stamp it writes.
//
// The dense tag array is the only record of what is resident: every
// lookup is a scan of the line's set. Tags are compact uint32s (only the
// line bits above the set index — the rest is implied by the set), so a
// full 16-way set's tags fit in one host cache line. The per-way LRU
// stamp and fill bookkeeping live in parallel arrays (the L1's ready
// cycles dense in one uint64 array, its prefetched flags and the outer
// levels' in-flight flags in byte arrays) touched only on hits, installs
// and the full-set LRU pass.
//
// On an AVX2 host a level whose Ways is a multiple of 8 up to 64 scans
// with one vector kernel per set (scanSetAVX2) instead of the per-way
// loops; the answers are the loops' exactly (see vectorScan).
//
// Invariants:
//
//   - Valid prefix. Valid ways form a prefix of every set: installs fill
//     the lowest-index invalid way and lines are never invalidated
//     individually (only reset), so an invalid tag ends a scan early and
//     "set full" is one load of the highest way's tag.
//   - One way per line. A level is installed into only on a miss at that
//     level, so a line occupies at most one way of its set and a scan's
//     first match is the only match.
//   - Hints are verified. hint[fib(line)] names the way a line was last
//     seen in; it is believed only when that way's tag equals the line's
//     tag, and the way is indexed from the line's own set, so a stale or
//     colliding hint can only cost the scan it failed to save. That is
//     why nothing maintains hints on eviction or reset: an evicted
//     line's hint fails verification against the new tag, and a zeroed
//     tag never equals a valid one (bit 0).
type cache struct {
	ways    int
	setMask uint64
	// setShift is log2(sets): how far to shift a line to get its tag.
	setShift uint
	// tags[set*ways+way] holds tag<<1|1 (bit 0 = valid); 0 means invalid.
	tags []uint32
	// stamps[set*ways+way] is the slot's last-use clock, kept dense so
	// the full-set LRU pass walks one or two host cache lines.
	stamps []uint64
	// ready[set*ways+way] is the cycle at which the slot's fill
	// completes; accesses earlier than this stall for the remainder.
	// Only the L1 keeps it (installL1 writes it); outer levels leave it
	// nil.
	ready []uint64
	// pref[set*ways+way] marks lines installed by a prefetch that have
	// not yet served a demand access, for PMU efficacy accounting. Only
	// the L1 ever sets it, so outer levels leave it nil.
	pref []bool
	// pending[set*ways+way] marks an outer-level slot filled by a DRAM
	// prefetch and not hit since: its fill completes at
	// stamps[slot]+DRAMLatency, and a demand hit before then stalls for
	// the remainder. Every outer fill site writes it; the L1 leaves it
	// nil.
	pending []bool
	// hint[(line*fibMul)>>hintShift] is the way hint (see the invariant
	// above). Written on scan hits at every level and on L1 installs.
	hint      []uint8
	hintShift uint
	// vec routes the set scans after a hint miss through scanSetAVX2
	// instead of the loops below; newCache decides it (vectorScan).
	vec bool
}

// fibMul is the 64-bit Fibonacci hashing multiplier that spreads line
// numbers over the way-hint tables.
const fibMul = 0x9e3779b97f4a7c15

// newCache builds one level with a 2^hintBits-entry way-hint table
// (hintBits 0 is the degenerate one-entry table: a shift by 64 is 0).
func newCache(cfg CacheConfig, hintBits uint) *cache {
	sets := cfg.Sets()
	n := sets * cfg.Ways
	shift := uint(0)
	for 1<<shift < sets {
		shift++
	}
	return &cache{
		ways:      cfg.Ways,
		setMask:   uint64(sets - 1),
		setShift:  shift,
		tags:      make([]uint32, n),
		stamps:    make([]uint64, n),
		hint:      make([]uint8, 1<<hintBits),
		hintShift: 64 - hintBits,
		vec:       vectorScan(cfg.Ways),
	}
}

// vectorScan reports whether a level of the given associativity scans
// with the AVX2 kernel: the host must run AVX2, and the set must be whole
// 8-tag vectors that fit the kernel's 64-bit masks. The kernel answers
// exactly what the loops do. A match mask has at most one bit (one way
// per line; a zero tag never equals a valid one), so its lowest bit is
// the loop's first match. By the valid prefix the lowest zero tag is the
// loop's lowest invalid way. The LRU victim is found as the minimum stamp
// first, then the lowest way equal to it — "strictly oldest, ties to the
// lowest index" — with stamps sign-biased so the compare is unsigned over
// the full uint64 range.
func vectorScan(ways int) bool {
	return hostAVX2 && ways%8 == 0 && ways <= 64
}

// tagOf packs line into its stored tag. Compact tags require line
// numbers below 2^31 × sets (see Config); tagOf panics rather than
// aliasing if a workload ever exceeds that. Every path that reaches a
// level starts with find or probe, so this is the one such check.
func (c *cache) tagOf(line uint64) uint32 {
	t := line >> c.setShift
	if t >= 1<<31 {
		panic("sim: line address too large for compact cache tags")
	}
	return uint32(t)<<1 | 1
}

// hinted returns the slot of line if its way hint verifies and -1
// otherwise, without scanning: the inlinable first half of find for the
// demand-hit fast paths. The tag compare is done in 64 bits so a line
// beyond tagOf's bound simply fails to match (and reaches tagOf's panic
// through the slow path).
func (c *cache) hinted(line uint64) int {
	s := int(line&c.setMask)*c.ways + int(c.hint[(line*fibMul)>>c.hintShift])
	if uint64(c.tags[s]) == (line>>c.setShift)<<1|1 {
		return s
	}
	return -1
}

// find returns the slot of line, or -1: the hinted way if it verifies,
// else a scan of the set (which refreshes the hint on a hit).
func (c *cache) find(line uint64) int {
	base := int(line&c.setMask) * c.ways
	want := c.tagOf(line)
	h := (line * fibMul) >> c.hintShift
	if s := base + int(c.hint[h]); c.tags[s] == want {
		return s
	}
	if c.vec {
		match, _, _ := scanSetAVX2(&c.tags[base], nil, c.ways, want)
		if match == 0 {
			return -1
		}
		w := bits.TrailingZeros64(match)
		c.hint[h] = uint8(w)
		return base + w
	}
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == want {
			c.hint[h] = uint8(w)
			return base + w
		}
		if tag == 0 {
			return -1
		}
	}
	return -1
}

// probe is find plus the victim choice: it returns the hit slot of line
// (victim -1), or slot -1 and the slot an install into line's set must
// use. The vector form answers both with one kernel call.
func (c *cache) probe(line uint64) (slot, victim int) {
	if c.vec {
		return c.probeVec(line)
	}
	if s := c.find(line); s >= 0 {
		return s, -1
	}
	return -1, c.victimOf(line)
}

// probeVec is probe through scanSetAVX2: find's hint check, then one
// kernel call that yields the matching way or else the victim.
func (c *cache) probeVec(line uint64) (slot, victim int) {
	base := int(line&c.setMask) * c.ways
	want := c.tagOf(line)
	h := (line * fibMul) >> c.hintShift
	if s := base + int(c.hint[h]); c.tags[s] == want {
		return s, -1
	}
	match, empty, lru := scanSetAVX2(&c.tags[base], &c.stamps[base], c.ways, want)
	if match != 0 {
		w := bits.TrailingZeros64(match)
		c.hint[h] = uint8(w)
		return base + w, -1
	}
	if empty != 0 {
		return -1, base + bits.TrailingZeros64(empty)
	}
	return -1, base + lru
}

// victimOf picks the install victim in line's set: the lowest-index
// invalid way if one exists, else the way with the strictly smallest LRU
// stamp (ties to the lowest index). The valid-prefix invariant makes
// "set full" one load, so the steady-state case goes straight to the LRU
// pass — which therefore runs only on a miss in a full set, the one case
// that actually evicts. It is the scalar half of probe, asked only about
// absent lines; a vector level's victim comes from probeVec's kernel
// call.
func (c *cache) victimOf(line uint64) int {
	base := int(line&c.setMask) * c.ways
	if c.tags[base+c.ways-1] != 0 {
		return c.lruOf(base)
	}
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == 0 {
			return base + w
		}
	}
	return c.lruOf(base)
}

// lruOf returns the slot with the strictly smallest LRU stamp in the
// full set starting at base (ties to the lowest index).
func (c *cache) lruOf(base int) int {
	victim := base
	oldest := c.stamps[base]
	for s := base + 1; s < base+c.ways; s++ {
		if st := c.stamps[s]; st < oldest {
			oldest = st
			victim = s
		}
	}
	return victim
}

// fill places line into a victim slot returned by probe, stamped now.
// The caller writes the slot's fill state (the L1's ready word and
// prefetched flag, an outer level's in-flight flag) and guarantees no
// install or touch hit this set between the victim choice and the fill.
func (c *cache) fill(slot int, line, now uint64) {
	c.tags[slot] = c.tagOf(line)
	c.stamps[slot] = now
}

// setHint points line's way hint at slot (which lies in line's set).
func (c *cache) setHint(line uint64, slot int) {
	c.hint[(line*fibMul)>>c.hintShift] = uint8(slot - int(line&c.setMask)*c.ways)
}

// reset invalidates every line in O(tag bytes). Stale stamps, ready
// words, pref and pending flags and hints are unreachable rather than
// cleared: stamps are only read by the LRU pass over a *full* set (every
// way re-filled since the reset), ready/pref/pending only for a slot a
// lookup just resolved (valid tag ⇒ re-filled since the reset, and every
// fill writes them), and a hint only counts when it verifies against a
// valid tag.
func (c *cache) reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
}
