package dstruct

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// PortRange is one PDR's SDF filter reduced to its discriminating
// dimension: a source-port interval. It is also the tree's rule node:
// a rule's PDR index is implied by its place (see MDITree).
type PortRange struct {
	// Lo and Hi bound the matched source ports, inclusive.
	Lo, Hi uint16
}

// SessionRules is the header of one PFCP session's rule set: the UE IP
// that selects the session (first dimension) and how many PDR filters,
// held in the ranges passed beside it, select the rule within it
// (second dimension).
type SessionRules struct {
	// UEIP is the session's UE address, matched against the packet's
	// destination IP on the downlink.
	UEIP uint32
	// Session is the per-flow pool index of the session state.
	Session int32
	// Rules is the length of the session's run of port ranges; the
	// ranges of one session must be disjoint.
	Rules int32
}

// StepResult is the outcome of one MDI tree descent step.
type StepResult int

// The descent outcomes.
const (
	// StepContinue means the walk continues at the cursor's new address.
	StepContinue StepResult = iota + 1
	// StepFound means the PDR was located: cur.Idx is the PDR index and
	// SessionOf(cur) the session index.
	StepFound
	// StepMiss means no rule matches the packet.
	StepMiss
)

// sessionNode is one first-dimension node: a session's UE IP, its
// session index, and the root and entry count of its rule subtree.
type sessionNode struct {
	ueip    uint32
	session int32
	sub     int32
	rules   int32
}

// MDITree is the multidimensional interval tree mapping a packet's
// (dstIP, srcPort) to its (session, PDR) pair. Each node occupies one
// simulated cache line, so a lookup's cost is its depth in lines —
// the pointer-chasing workload of the paper's matching actions.
//
// Nodes share one index space: each session's rule subtree in UE IP
// order, then the session tree, i.e. rule nodes [0, len(rules)) and
// session nodes from len(rules) on. Every subtree is a balanced
// midpoint build laid out in preorder, so children are implied: node p
// over L entries holds the entry at L/2 and has its left child at p+1
// over L/2 entries and its right child at p+1+L/2 over L-L/2-1. A walk
// carries its subtree's entry count instead of reading child links.
//
// A rule node is a bare PortRange: the PDR index a match returns is
// implied too (see NewMDITree), so a walk tracks the rank of its
// subtree's first entry as it descends: a subtree over entries
// [o, o+L) holds entry o+L/2 at its root, its left child keeps o and
// its right child starts at o+L/2+1.
type MDITree struct {
	region   mem.Region
	rules    []PortRange
	sessions []sessionNode
}

// NewMDITree builds the tree for the given sessions, reserving one
// simulated line per node from as. ranges holds every session's run of
// port ranges back to back, in the order of sessions, each run
// sessions[i].Rules long. A match on a session's k-th range by Lo
// returns rule index sub+k, where sub counts the ranges of the sessions
// with lower UE IPs.
//
// When sessions are in UE IP order and each run in Lo order, the tree
// takes ranges over as its rule nodes, permuting each run into preorder
// in place, and the caller must not use ranges again. Other input is
// sorted into a copy and both slices are left as they were.
func NewMDITree(as *mem.AddressSpace, name string, sessions []SessionRules, ranges []PortRange) (*MDITree, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("dstruct: mditree %s: no sessions", name)
	}
	total := 0
	for _, s := range sessions {
		if s.Rules < 0 {
			return nil, fmt.Errorf("dstruct: mditree %s: negative rule count %d for UE %#x", name, s.Rules, s.UEIP)
		}
		total += int(s.Rules)
	}
	if total != len(ranges) {
		return nil, fmt.Errorf("dstruct: mditree %s: sessions hold %d rules, %d ranges given", name, total, len(ranges))
	}
	n := len(sessions) + len(ranges)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("dstruct: mditree %s: %d nodes exceed the int32 index space", name, n)
	}
	sessions, ranges = inOrder(sessions, ranges)
	for i := 1; i < len(sessions); i++ {
		if sessions[i].UEIP == sessions[i-1].UEIP {
			return nil, fmt.Errorf("dstruct: mditree %s: duplicate UE IP %#x", name, sessions[i].UEIP)
		}
	}
	t := &MDITree{rules: ranges, sessions: make([]sessionNode, len(sessions))}
	// An in-order pass over the session tree meets the sessions in UE IP
	// order, which is the order their runs, and so their rule subtrees,
	// occupy. Each run is copied to scratch and laid back out in
	// preorder.
	var next int32
	var scratch []PortRange
	var place func(p int, sessions []SessionRules) error
	place = func(p int, sessions []SessionRules) error {
		if len(sessions) == 0 {
			return nil
		}
		mid := len(sessions) / 2
		if err := place(p+1, sessions[:mid]); err != nil {
			return err
		}
		s := sessions[mid]
		run := t.rules[next : next+s.Rules]
		for j, r := range run {
			if r.Lo > r.Hi {
				return fmt.Errorf("dstruct: mditree %s: inverted range [%d,%d]", name, r.Lo, r.Hi)
			}
			if j > 0 && r.Lo <= run[j-1].Hi {
				return fmt.Errorf("dstruct: mditree %s: overlapping PDR ranges for UE %#x", name, s.UEIP)
			}
		}
		t.sessions[p] = sessionNode{ueip: s.UEIP, session: s.Session, sub: next, rules: s.Rules}
		scratch = append(scratch[:0], run...)
		placeRanges(run, scratch)
		next += s.Rules
		return place(p+1+mid, sessions[mid+1:])
	}
	if err := place(0, sessions); err != nil {
		return nil, err
	}

	base := as.Reserve(uint64(n)*sim.LineBytes, sim.LineBytes)
	t.region = mem.Region{Name: name, Base: base, Size: uint64(n) * sim.LineBytes}
	return t, nil
}

// inOrder returns sessions and ranges as they are if the sessions are in
// UE IP order and every run in Lo order, else sorted copies: the
// headers by UE IP, and the runs moved with their sessions and each
// sorted by Lo.
func inOrder(sessions []SessionRules, ranges []PortRange) ([]SessionRules, []PortRange) {
	byIP := func(a, b SessionRules) int { return cmp.Compare(a.UEIP, b.UEIP) }
	byLo := func(a, b PortRange) int { return cmp.Compare(a.Lo, b.Lo) }
	sorted := slices.IsSortedFunc(sessions, byIP)
	var off int32
	for _, s := range sessions {
		sorted = sorted && slices.IsSortedFunc(ranges[off:off+s.Rules], byLo)
		off += s.Rules
	}
	if sorted {
		return sessions, ranges
	}
	type run struct {
		SessionRules
		off int32
	}
	runs := make([]run, len(sessions))
	off = 0
	for i, s := range sessions {
		runs[i] = run{s, off}
		off += s.Rules
	}
	slices.SortFunc(runs, func(a, b run) int { return byIP(a.SessionRules, b.SessionRules) })
	outS := make([]SessionRules, len(runs))
	outR := make([]PortRange, 0, len(ranges))
	for i, r := range runs {
		outS[i] = r.SessionRules
		k := len(outR)
		outR = append(outR, ranges[r.off:r.off+r.Rules]...)
		slices.SortFunc(outR[k:], byLo)
	}
	return outS, outR
}

// placeRanges lays disjoint sorted port ranges out in dst as a balanced
// preorder subtree.
func placeRanges(dst, sorted []PortRange) {
	if len(sorted) == 0 {
		return
	}
	mid := len(sorted) / 2
	dst[0] = sorted[mid]
	placeRanges(dst[1:1+mid], sorted[:mid])
	placeRanges(dst[1+mid:], sorted[mid+1:])
}

// NodeAddr returns the simulated address of node i.
func (t *MDITree) NodeAddr(i int32) uint64 {
	return t.region.Base + uint64(i)*sim.LineBytes
}

// root returns the session tree's root node.
func (t *MDITree) root() int32 { return int32(len(t.rules)) }

// Depth returns the maximum root-to-leaf descent length in nodes (the
// second dimension's subtree counts from its session node), i.e. the
// worst-case number of dependent line accesses per lookup.
func (t *MDITree) Depth() int {
	// A midpoint subtree over L entries is bits.Len(L) nodes deep.
	var path func(p, n int32) int
	path = func(p, n int32) int {
		if n == 0 {
			return 0
		}
		half := n / 2
		sub := bits.Len32(uint32(t.sessions[p-t.root()].rules))
		return 1 + max(path(p+1, half), path(p+1+half, n-half-1), sub)
	}
	return path(t.root(), int32(len(t.sessions)))
}

// Begin stages a stepwise lookup for (dstIP, srcPort) at the root.
func (t *MDITree) Begin(cur *model.Cursor, dstIP uint32, srcPort uint16) {
	cur.Reset()
	cur.Stage = 1
	cur.Aux[0] = uint64(dstIP)
	cur.Aux[1] = uint64(srcPort)
	t.stage(cur, t.root(), int32(len(t.sessions)))
}

// stage points the cursor at node p, the root of a subtree over n
// entries: Aux[2] carries p in its low half and n in its high half.
// In the rule dimension Aux[3]'s high half carries the rule index of
// the subtree's first entry, its low half the session index.
func (t *MDITree) stage(cur *model.Cursor, p, n int32) StepResult {
	cur.Aux[2] = uint64(uint32(p)) | uint64(n)<<32
	cur.Addr = t.NodeAddr(p)
	return StepContinue
}

// TouchStep prefetches, on the host, the node WalkStep will consume at
// the cursor — the Go-side twin of the simulated fetch of cur.Addr.
func (t *MDITree) TouchStep(cur *model.Cursor) {
	p := int32(cur.Aux[2])
	if cur.Stage == 1 {
		hostmem.Prefetch(&t.sessions[p-t.root()])
	} else {
		hostmem.Prefetch(&t.rules[p])
	}
}

// WalkStep consumes the node at the cursor (already charged by the
// runtime) and either descends — staging the next node's address for
// prefetching — or terminates with the match result. Both dimensions
// search alike: match inside the node's interval, descend left below
// it and right above it.
func (t *MDITree) WalkStep(cur *model.Cursor) StepResult {
	p, n := int32(cur.Aux[2]), int32(cur.Aux[2]>>32)
	// x is the searched key, below the low end of the node's interval.
	var x, below uint32
	if cur.Stage == 1 {
		s := &t.sessions[p-t.root()]
		x, below = uint32(cur.Aux[0]), s.ueip
		if x == s.ueip {
			// Session found: record it and drop into its subtree, whose
			// first entry has rule index sub.
			cur.Aux[3] = uint64(uint32(s.session)) | uint64(uint32(s.sub))<<32
			if s.rules == 0 {
				cur.Ok = false
				return StepMiss
			}
			cur.Stage = 2
			return t.stage(cur, s.sub, s.rules)
		}
	} else {
		r := &t.rules[p]
		x, below = uint32(cur.Aux[1]), uint32(r.Lo)
		if x >= below && x <= uint32(r.Hi) {
			cur.Ok = true
			cur.Idx = int32(cur.Aux[3]>>32) + n/2
			return StepFound
		}
	}
	half := n / 2
	if x < below {
		p, n = p+1, half
	} else {
		p, n = p+1+half, n-half-1
		// The node's entry and its left subtree rank below the right
		// subtree. (In the session dimension this lands in a half of
		// Aux[3] the session match overwrites.)
		cur.Aux[3] += uint64(half+1) << 32
	}
	if n == 0 {
		cur.Ok = false
		return StepMiss
	}
	return t.stage(cur, p, n)
}

// SessionOf returns the session index recorded by a completed walk.
func SessionOf(cur *model.Cursor) int32 {
	return int32(uint32(cur.Aux[3]))
}

// Lookup is the un-charged control-plane lookup used by tests and the
// RTC reference path.
func (t *MDITree) Lookup(dstIP uint32, srcPort uint16) (session, pdr int32, ok bool) {
	var cur model.Cursor
	t.Begin(&cur, dstIP, srcPort)
	for {
		switch t.WalkStep(&cur) {
		case StepFound:
			return SessionOf(&cur), cur.Idx, true
		case StepMiss:
			return 0, 0, false
		}
	}
}
