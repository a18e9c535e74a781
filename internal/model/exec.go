package model

import (
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Cursor is the resumable position of a stepwise matching structure —
// the state that lets a cuckoo lookup or tree descent be decomposed
// into one control state per memory touch, with the next touch's
// address known (and hence prefetchable) before the step executes.
type Cursor struct {
	// Stage is the structure-specific step counter.
	Stage int32
	// Addr is the simulated address the next step will access; spans
	// with BaseDynamic resolve against it.
	Addr uint64
	// Aux carries structure-specific values between steps (hashes,
	// node indexes).
	Aux [4]uint64
	// Idx is the match result (pool entry index) once found.
	Idx int32
	// Ok reports whether the match succeeded.
	Ok bool
}

// Reset clears the cursor for the next lookup.
func (c *Cursor) Reset() {
	*c = Cursor{Idx: -1}
}

// Exec is the execution context one function stream sees: the paper's
// NFTask payload (Figure 9(a)) minus the scheduling fields, which live
// in the runtimes. It carries references to every NFState the stream's
// actions access, plus the temporaries that persist across the actions
// of one packet.
//
// Exec is a concrete struct rather than an interface so that the
// per-action dispatch in the hot loop stays allocation- and
// devirtualization-free.
type Exec struct {
	// Core is the simulated core all accesses are charged to.
	Core *sim.Core
	// Pkt is the packet buffer reference (zero-copy: set on receive).
	Pkt *pkt.Packet
	// FlowIdx is the per-flow match result: an entry index into the
	// module's per-flow pool, or -1 before matching.
	FlowIdx int32
	// SubIdx is the sub-flow match result (e.g. the matched PDR).
	SubIdx int32
	// Key stages a match key between get_key and hash steps.
	Key uint64
	// Temp is word-sized scratch storage allocated by the compiler from
	// the action implementations' temporary variables.
	Temp [8]uint64
	// Cur is the stepwise matching cursor.
	Cur Cursor
	// CS is the current control state.
	CS CSID
	// Seq is the packet's receive sequence number on its worker: the
	// number its rx ring slot was assigned from, one per packet.
	Seq uint64
	// AccessCycles accumulates cycles spent charging declared state
	// accesses, for the paper's state-access-time measurements (EXP B).
	AccessCycles uint64
	// Prefetched is the P-state from the paper's cache management: true
	// when the current CS's spans have been prefetched or verified
	// resident.
	Prefetched bool
	// Done reports stream completion (CS reached End).
	Done bool
	// bases is the compiled executors' base-table scratch (see
	// plan.go). It lives here so each phase fills only the entries its
	// mask names instead of zeroing a fresh table: entry pbStatic is
	// never written and stays zero, and stale entries are never read
	// because every op's base index is covered by its phase's mask.
	bases [8]uint64
}

// ResetStream prepares the context for a new packet at the program's
// start state.
func (e *Exec) ResetStream(p *pkt.Packet, start CSID, seq uint64) {
	e.Pkt = p
	e.FlowIdx = -1
	e.SubIdx = -1
	e.Key = 0
	e.Cur.Reset()
	e.CS = start
	e.Seq = seq
	e.Prefetched = false
	e.Done = false
}
