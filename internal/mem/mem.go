// Package mem manages the simulated address space that NFStates live in.
//
// The simulator in internal/sim charges cycles by address; this package
// hands out the addresses: regions for flow tables, pre-allocated
// datablock pools for per-flow and sub-flow state (the paper's §V "NF
// Management"), and record layouts whose field placement is the target
// of the compiler's data-packing optimization (§VI-B).
//
// No packet or state bytes are stored at these addresses — the actual
// data lives in ordinary Go values — but every address is unique and
// stable, so the cache simulator sees exactly the footprint and reuse
// pattern the real system would produce.
package mem

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// AddressSpace hands out non-overlapping, line-aligned address ranges.
// The zero value is not usable; construct with NewAddressSpace.
type AddressSpace struct {
	next uint64
}

// NewAddressSpace returns an address space whose allocations start above
// a guard page so that address 0 is never valid.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: 1 << 16}
}

// Reserve returns the base of a fresh range of the given size, aligned
// to align bytes (align must be a power of two; 0 means line-aligned).
func (s *AddressSpace) Reserve(size, align uint64) uint64 {
	if align == 0 {
		align = sim.LineBytes
	}
	base := (s.next + align - 1) &^ (align - 1)
	s.next = base + size
	return base
}

// Used returns the total span of address space handed out so far.
func (s *AddressSpace) Used() uint64 { return s.next }

// Region is a named contiguous block of simulated memory.
type Region struct {
	// Name identifies the region in dumps and errors.
	Name string
	// Base is the first address; Size the length in bytes.
	Base, Size uint64
}

// Contains reports whether [addr, addr+n) falls inside the region.
func (r Region) Contains(addr, n uint64) bool {
	return addr >= r.Base && addr+n <= r.Base+r.Size
}

// Pool is a pre-allocated table of fixed-size entries, the paper's
// "datablocks" for per-flow and sub-flow state: sized at initialization
// to entrySize × maximum concurrency, with match results expressed as
// entry indexes into the pool.
type Pool struct {
	region    Region
	entrySize uint64
	count     int
}

// NewPool reserves a pool of count entries of entrySize bytes each.
// Entries are padded to the cache-line grid so they never share lines,
// and to an odd line count so the entry stride is co-prime with any
// power-of-two cache set count — the standard conflict-avoiding
// padding that keeps same-offset fields of different records from
// piling onto a fraction of the sets.
func NewPool(as *AddressSpace, name string, entrySize uint64, count int) (*Pool, error) {
	if entrySize == 0 || count <= 0 {
		return nil, fmt.Errorf("mem: pool %s: entrySize and count must be positive", name)
	}
	padded := (entrySize + sim.LineBytes - 1) &^ (sim.LineBytes - 1)
	if (padded/sim.LineBytes)%2 == 0 {
		padded += sim.LineBytes
	}
	base := as.Reserve(padded*uint64(count), sim.LineBytes)
	return &Pool{
		region:    Region{Name: name, Base: base, Size: padded * uint64(count)},
		entrySize: padded,
		count:     count,
	}, nil
}

// AddrAt returns the base address of entry i, an index the caller has
// already validated (e.g. a match result previously stored into the
// pool): a single bounds check that the compiler can inline at the call
// site, with the panic outlined. It panics on an out-of-range index,
// which indicates a runtime bug rather than bad input.
func (p *Pool) AddrAt(i int32) uint64 {
	if i < 0 || int(i) >= p.count {
		p.badIndex(i)
	}
	return p.region.Base + uint64(i)*p.entrySize
}

//go:noinline
func (p *Pool) badIndex(i int32) {
	panic(fmt.Errorf("mem: pool %s: index %d out of range [0,%d)", p.region.Name, i, p.count))
}

// EntrySize returns the padded per-entry size in bytes.
func (p *Pool) EntrySize() uint64 { return p.entrySize }

// Count returns the number of entries.
func (p *Pool) Count() int { return p.count }

// Region returns the pool's address region.
func (p *Pool) Region() Region { return p.region }
