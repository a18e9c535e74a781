// Package model implements the paper's NF computational model (§IV):
// NFEvents, NFStates, NFActions, the control-logic finite state machine
// with its transition function Δ and fetching function F, and the
// Granular Decomposition Property.
//
// A network function (or a composed service function chain) compiles to
// a Program: a table of control states (CS), each bound to exactly one
// NFAction plus the set of NFState spans that action will access. The
// spans are known *before* the action executes — that is the Granular
// Decomposition Property — which is what lets the interleaved runtime
// prefetch them and the compiler pack them.
//
// The paper's NFState classes are one enum, BaseKind: an access names
// its class, and the class says where the bytes live (the module's
// per-flow or sub-flow pool, its control region, the packet, the
// task's scratch line or the match cursor). A module's state is one
// record, its Binding: the pools, their layouts and the control region.
//
// Both execution models in this repository run the same Program on the
// same worker, internal/rt: interleaving many streams with prefetching
// (the paper's contribution), or, under rt.RTCConfig, one stream with no
// prefetching, so each packet runs to completion (the baseline). Only
// the scheduling differs, which keeps every comparison
// apples-to-apples.
package model

import "fmt"

// EventID identifies an interned NFEvent within a Program. Event 0 is
// reserved and never valid; "packet" and "done" are pre-interned in
// every program.
type EventID int32

// Pre-interned events present in every Program.
const (
	// EvInvalid is the zero EventID; actions must never return it.
	EvInvalid EventID = 0
	// EvPacket is the system event announcing packet arrival; it drives
	// the initial transition out of the start state.
	EvPacket EventID = 1
	// EvDone is the user event signalling stream completion; programs
	// typically route it to the End control state.
	EvDone EventID = 2
)

// BaseKind is the NFState taxonomy of the paper's §IV-A, named by
// where each state class lives: a state access's class is also how the
// runtime resolves its base address. Match state (hash buckets, tree
// nodes) is BaseDynamic: the stepwise structure's next node.
type BaseKind int

// The NFState classes and the bases they resolve against.
const (
	// BasePerFlow is per-flow session state: the module's per-flow
	// pool at the task's matched flow index.
	BasePerFlow BaseKind = iota + 1
	// BaseSubFlow is second-level state such as a UPF PDR: the
	// module's sub-flow pool at the task's matched sub-flow index.
	BaseSubFlow
	// BasePacket is the packet buffer itself.
	BasePacket
	// BaseControl is per-NF-instance configuration shared across
	// flows: the module's control-state region.
	BaseControl
	// Kind 5 is unused: traces carry a span's kind, and BaseDynamic
	// keeps the value the pinned traces record.
	_
	// BaseDynamic is match state: the task's match cursor address —
	// the next bucket or tree node of a stepwise matching structure,
	// set by the previous step.
	BaseDynamic
)

// String names the base for diagnostics.
func (b BaseKind) String() string {
	switch b {
	case BasePerFlow:
		return "perflow"
	case BaseSubFlow:
		return "subflow"
	case BasePacket:
		return "packet"
	case BaseControl:
		return "control"
	case BaseDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("BaseKind(%d)", int(b))
	}
}

// Span is a resolved state region an action reads or writes: base
// selector plus offset and size. Spans are the compiled form of the
// fetching function F — everything the runtime needs to prefetch or
// charge an access.
type Span struct {
	// Base selects the address the Off is relative to.
	Base BaseKind
	// Off and Size delimit the accessed bytes.
	Off, Size uint64
}

// FieldRef is the symbolic (pre-compilation) form of a state access
// to one state class: either named fields of the class's record layout
// in the module's Binding, or an explicit span.
type FieldRef struct {
	// Base is the state class accessed.
	Base BaseKind
	// Fields names layout fields; used when Explicit is nil. Only the
	// per-flow and sub-flow classes have layouts.
	Fields []string
	// Explicit, when non-nil, bypasses layout lookup entirely.
	Explicit *Span
}

// Fields builds a FieldRef naming fields of the per-flow or sub-flow
// layout in the module's Binding.
func Fields(base BaseKind, names ...string) FieldRef {
	return FieldRef{Base: base, Fields: names}
}

// Raw builds a FieldRef for size bytes at off from the base.
func Raw(base BaseKind, off, size uint64) FieldRef {
	return FieldRef{Base: base, Explicit: &Span{Base: base, Off: off, Size: size}}
}

// Dynamic builds a FieldRef for a stepwise match structure's next node:
// size bytes at the task's cursor address.
func Dynamic(size uint64) FieldRef {
	return Raw(BaseDynamic, 0, size)
}

// ActionFunc is the application logic of an NFAction. It runs with its
// declared state spans already charged (and, under the interleaved
// runtime, already prefetched), performs Go-side computation and packet
// mutation, and returns the NFEvent that drives the next transition.
type ActionFunc func(e *Exec) EventID

// Action is one NFAction: the event handler bound to a control state.
// Reads and Writes declare every data-state access the Fn performs —
// the Granular Decomposition Property requires that this set not depend
// on computation inside the Fn. The paper's action categories (§IV-A)
// are read off these declarations rather than stored: a match action
// locates per-flow or sub-flow state through match state, a data action
// transforms data states, a config action reads or updates control
// state.
type Action struct {
	// Name identifies the action in specs and dumps.
	Name string
	// Cost is the action's computation in simulated instructions.
	Cost uint64
	// Reads and Writes are the declared state accesses.
	Reads, Writes []FieldRef
	// Fn is the application logic.
	Fn ActionFunc
	// Touch, when non-nil, is the host-side half of this action's
	// P-stage fetch: it issues hostmem.Prefetch for the Go-side record
	// Fn will dereference (a bucket, a tree node, a per-flow struct),
	// found from the same Exec fields Fn will index with. The
	// interleaved runtime calls it on exactly the visits that issue the
	// simulated fetch, so the host line travels during the same lap
	// the simulated one does. It must not write to e, touch e.Core or
	// change anything Fn can observe: a program with every Touch
	// stripped yields the same packets, counters and trace events.
	Touch func(e *Exec)
}
