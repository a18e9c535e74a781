package dstruct

import (
	"fmt"
	"sort"

	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// PortRange is one PDR's SDF filter reduced to its discriminating
// dimension: a source-port interval mapping to a PDR pool index.
type PortRange struct {
	// Lo and Hi bound the matched source ports, inclusive.
	Lo, Hi uint16
	// PDR is the sub-flow pool index of the matched rule.
	PDR int32
}

// SessionRules is the rule set of one PFCP session: the UE IP that
// selects the session (first dimension) and the PDR filters that select
// the rule within it (second dimension).
type SessionRules struct {
	// UEIP is the session's UE address, matched against the packet's
	// destination IP on the downlink.
	UEIP uint32
	// Session is the per-flow pool index of the session state.
	Session int32
	// PDRs are the session's packet detection rules; their port ranges
	// must be disjoint.
	PDRs []PortRange
}

// StepResult is the outcome of one MDI tree descent step.
type StepResult int

// The descent outcomes.
const (
	// StepContinue means the walk continues at the cursor's new address.
	StepContinue StepResult = iota + 1
	// StepFound means the PDR was located: cur.Idx is the PDR index and
	// cur.Aux[3] the session index.
	StepFound
	// StepMiss means no rule matches the packet.
	StepMiss
)

// node is one tree node in slab form. Both dimensions share the search
// logic: descend left when x < a, right when x > b, match when a≤x≤b.
// For the first (UE IP) dimension a == b == UEIP and sub points at the
// session's second-level subtree; for the second (port) dimension
// [a,b] is the PDR's port range and val its PDR index.
type node struct {
	a, b        uint32
	left, right int32
	val         int32
	sub         int32
}

// MDITree is the multidimensional interval tree mapping a packet's
// (dstIP, srcPort) to its (session, PDR) pair. Each node occupies one
// simulated cache line, so a lookup's cost is its depth in lines —
// the pointer-chasing workload of the paper's matching actions.
type MDITree struct {
	region mem.Region
	nodes  []node
	root   int32
	// sessions counts level-1 entries for diagnostics.
	sessions int
}

// NewMDITree builds the tree for the given sessions, reserving one
// simulated line per node from as.
func NewMDITree(as *mem.AddressSpace, name string, sessions []SessionRules) (*MDITree, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("dstruct: mditree %s: no sessions", name)
	}
	t := &MDITree{root: -1, sessions: len(sessions)}

	// Estimate node count: one per session plus one per PDR.
	total := len(sessions)
	for _, s := range sessions {
		total += len(s.PDRs)
	}
	t.nodes = make([]node, 0, total)

	// Level-2 subtrees first so level-1 nodes can point at them.
	sorted := append([]SessionRules(nil), sessions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].UEIP < sorted[j].UEIP })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].UEIP == sorted[i-1].UEIP {
			return nil, fmt.Errorf("dstruct: mditree %s: duplicate UE IP %#x", name, sorted[i].UEIP)
		}
	}

	subRoots := make([]int32, len(sorted))
	for i, s := range sorted {
		ranges := append([]PortRange(nil), s.PDRs...)
		sort.Slice(ranges, func(a, b int) bool { return ranges[a].Lo < ranges[b].Lo })
		for j := 0; j < len(ranges); j++ {
			if ranges[j].Lo > ranges[j].Hi {
				return nil, fmt.Errorf("dstruct: mditree %s: inverted range [%d,%d]", name, ranges[j].Lo, ranges[j].Hi)
			}
			if j > 0 && ranges[j].Lo <= ranges[j-1].Hi {
				return nil, fmt.Errorf("dstruct: mditree %s: overlapping PDR ranges for UE %#x", name, s.UEIP)
			}
		}
		subRoots[i] = t.buildRanges(ranges)
	}
	t.root = t.buildSessions(sorted, subRoots, 0, len(sorted))

	base := as.Reserve(uint64(len(t.nodes))*sim.LineBytes, sim.LineBytes)
	t.region = mem.Region{Name: name, Base: base, Size: uint64(len(t.nodes)) * sim.LineBytes}
	return t, nil
}

// buildRanges builds a balanced BST over disjoint sorted port ranges.
func (t *MDITree) buildRanges(ranges []PortRange) int32 {
	if len(ranges) == 0 {
		return -1
	}
	mid := len(ranges) / 2
	r := ranges[mid]
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{a: uint32(r.Lo), b: uint32(r.Hi), val: r.PDR, left: -1, right: -1, sub: -1})
	t.nodes[idx].left = t.buildRanges(ranges[:mid])
	t.nodes[idx].right = t.buildRanges(ranges[mid+1:])
	return idx
}

// buildSessions builds a balanced BST over sessions sorted by UE IP.
func (t *MDITree) buildSessions(sessions []SessionRules, subRoots []int32, lo, hi int) int32 {
	if lo >= hi {
		return -1
	}
	mid := (lo + hi) / 2
	s := sessions[mid]
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{a: s.UEIP, b: s.UEIP, val: s.Session, sub: subRoots[mid], left: -1, right: -1})
	t.nodes[idx].left = t.buildSessions(sessions, subRoots, lo, mid)
	t.nodes[idx].right = t.buildSessions(sessions, subRoots, mid+1, hi)
	return idx
}

// NodeAddr returns the simulated address of node i.
func (t *MDITree) NodeAddr(i int32) uint64 {
	return t.region.Base + uint64(i)*sim.LineBytes
}

// Region returns the tree's simulated address region.
func (t *MDITree) Region() mem.Region { return t.region }

// Nodes returns the node count.
func (t *MDITree) Nodes() int { return len(t.nodes) }

// Sessions returns the number of level-1 entries.
func (t *MDITree) Sessions() int { return t.sessions }

// Depth returns the maximum root-to-leaf descent length in nodes (the
// second dimension's subtree counts from its session node), i.e. the
// worst-case number of dependent line accesses per lookup.
func (t *MDITree) Depth() int {
	var path func(i int32) int
	path = func(i int32) int {
		if i < 0 {
			return 0
		}
		n := t.nodes[i]
		best := path(n.left)
		if r := path(n.right); r > best {
			best = r
		}
		if n.sub >= 0 {
			if s := path(n.sub); s > best {
				best = s
			}
		}
		return 1 + best
	}
	return path(t.root)
}

// Begin stages a stepwise lookup for (dstIP, srcPort) at the root.
func (t *MDITree) Begin(cur *model.Cursor, dstIP uint32, srcPort uint16) {
	cur.Reset()
	cur.Stage = 1
	cur.Aux[0] = uint64(dstIP)
	cur.Aux[1] = uint64(srcPort)
	cur.Aux[2] = uint64(t.root)
	cur.Addr = t.NodeAddr(t.root)
}

// TouchStep prefetches, on the host, the node WalkStep will consume at
// the cursor — the Go-side twin of the simulated fetch of cur.Addr.
func (t *MDITree) TouchStep(cur *model.Cursor) {
	hostmem.Prefetch(&t.nodes[int32(cur.Aux[2])])
}

// WalkStep consumes the node at the cursor (already charged by the
// runtime) and either descends — staging the next node's address for
// prefetching — or terminates with the match result.
func (t *MDITree) WalkStep(cur *model.Cursor) StepResult {
	n := &t.nodes[int32(cur.Aux[2])]
	var x uint32
	if cur.Stage == 1 {
		x = uint32(cur.Aux[0]) // UE IP dimension
	} else {
		x = uint32(cur.Aux[1]) // port dimension
	}
	var next int32
	switch {
	case x < n.a:
		next = n.left
	case x > n.b:
		next = n.right
	default:
		if cur.Stage == 1 {
			// Session found: record it and drop into its subtree.
			cur.Aux[3] = uint64(uint32(n.val))
			if n.sub < 0 {
				cur.Ok = false
				return StepMiss
			}
			cur.Stage = 2
			cur.Aux[2] = uint64(n.sub)
			cur.Addr = t.NodeAddr(n.sub)
			return StepContinue
		}
		cur.Ok = true
		cur.Idx = n.val
		return StepFound
	}
	if next < 0 {
		cur.Ok = false
		return StepMiss
	}
	cur.Aux[2] = uint64(next)
	cur.Addr = t.NodeAddr(next)
	return StepContinue
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
	for i := 0; i < len(t.nodes)+2; i++ {
		switch t.WalkStep(&cur) {
		case StepContinue:
		case StepFound:
			return SessionOf(&cur), cur.Idx, true
		case StepMiss:
			return 0, 0, false
		}
	}
	return 0, 0, false
}
