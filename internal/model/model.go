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

// StateKind classifies NFStates per the paper's taxonomy (§IV-A).
type StateKind int

// The NFState categories.
const (
	// KindMatch is flow-classification structure state (hash buckets,
	// tree nodes) — the pointer-chasing source.
	KindMatch StateKind = iota + 1
	// KindPerFlow is per-flow session state.
	KindPerFlow
	// KindSubFlow is second-level state such as a UPF PDR.
	KindSubFlow
	// KindPacket is the packet buffer itself.
	KindPacket
	// KindControl is per-NF-instance configuration shared across flows.
	KindControl
	// KindTemp is scratch state that lives across the actions of one
	// packet and dies with it.
	KindTemp
)

// String names the kind for diagnostics.
func (k StateKind) String() string {
	switch k {
	case KindMatch:
		return "match"
	case KindPerFlow:
		return "per-flow"
	case KindSubFlow:
		return "sub-flow"
	case KindPacket:
		return "packet"
	case KindControl:
		return "control"
	case KindTemp:
		return "temp"
	default:
		return fmt.Sprintf("StateKind(%d)", int(k))
	}
}

// BaseKind says how a Span's base address is resolved at runtime.
type BaseKind int

// The resolvable bases.
const (
	// BasePerFlow resolves against the module's per-flow pool at the
	// task's matched flow index.
	BasePerFlow BaseKind = iota + 1
	// BaseSubFlow resolves against the module's sub-flow pool at the
	// task's matched sub-flow index.
	BaseSubFlow
	// BasePacket resolves against the packet buffer address.
	BasePacket
	// BaseControl resolves against the module's control state region.
	BaseControl
	// BaseTemp resolves against the task's own scratch region.
	BaseTemp
	// BaseDynamic resolves against the task's match cursor address —
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
	case BaseTemp:
		return "temp"
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

// FieldRef is the symbolic (pre-compilation) form of a state access:
// either named fields of a module state layout, or an explicit span.
type FieldRef struct {
	// State is the NFState category accessed.
	State StateKind
	// Fields names layout fields; used when Explicit is nil.
	Fields []string
	// Explicit, when non-nil, bypasses layout lookup entirely.
	Explicit *Span
}

// Fields builds a FieldRef naming layout fields of a state kind.
func Fields(kind StateKind, names ...string) FieldRef {
	return FieldRef{State: kind, Fields: names}
}

// Raw builds a FieldRef with an explicit span.
func Raw(kind StateKind, base BaseKind, off, size uint64) FieldRef {
	return FieldRef{State: kind, Explicit: &Span{Base: base, Off: off, Size: size}}
}

// Dynamic builds a FieldRef for a stepwise match structure's next node:
// size bytes at the task's cursor address.
func Dynamic(size uint64) FieldRef {
	return Raw(KindMatch, BaseDynamic, 0, size)
}

// ActionKind classifies NFActions by the states they interact with
// (§IV-A): match actions locate per-flow/sub-flow state, data actions
// transform it, config actions touch control state.
type ActionKind int

// The NFAction categories.
const (
	// ActionMatch locates per-flow or sub-flow state via match state.
	ActionMatch ActionKind = iota + 1
	// ActionData transforms data states.
	ActionData
	// ActionConfig reads or updates control state.
	ActionConfig
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionMatch:
		return "match"
	case ActionData:
		return "data"
	case ActionConfig:
		return "config"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// ActionFunc is the application logic of an NFAction. It runs with its
// declared state spans already charged (and, under the interleaved
// runtime, already prefetched), performs Go-side computation and packet
// mutation, and returns the NFEvent that drives the next transition.
type ActionFunc func(e *Exec) EventID

// Action is one NFAction: the event handler bound to a control state.
// Reads and Writes declare every data-state access the Fn performs —
// the Granular Decomposition Property requires that this set not depend
// on computation inside the Fn.
type Action struct {
	// Name identifies the action in specs and dumps.
	Name string
	// Kind is the paper's action taxonomy.
	Kind ActionKind
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
