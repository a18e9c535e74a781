package compile

import (
	"fmt"
	"sort"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// PackLayout is the data-packing optimization (§VI-B, after Chilimbi's
// cache-conscious structure definition): given a record's fields and
// the sets of fields each action accesses together, it produces a
// layout in which contemporaneously-accessed fields sit contiguously —
// minimizing the distinct cache lines each action touches.
//
// Algorithm: groups are ordered by their total access heat (the sum of
// their fields' appearance counts, i.e. how much traffic the group
// represents); each group's not-yet-placed fields are laid out
// contiguously, widest first within the group to limit padding. A
// field that would straddle a line boundary while fitting inside one
// line is pushed to the next line. Fields appearing in no group (cold
// state) are appended after all hot fields, in declaration order.
func PackLayout(fields []mem.Field, groups [][]string) (*mem.Layout, error) {
	index := make(map[string]int, len(fields))
	for i, f := range fields {
		if _, dup := index[f.Name]; dup {
			return nil, fmt.Errorf("compile: pack: duplicate field %q", f.Name)
		}
		index[f.Name] = i
	}
	freq := make([]int, len(fields))
	for _, g := range groups {
		for _, name := range g {
			i, ok := index[name]
			if !ok {
				return nil, fmt.Errorf("compile: pack: group references unknown field %q", name)
			}
			freq[i]++
		}
	}

	// Candidate group orders: heat-descending (pack the hottest
	// traffic tightest) and declaration order (preserve the program's
	// own temporal sequence). The natural sequential layout is always a
	// candidate too, so packing never regresses the total.
	heatOrder := make([]int, len(groups))
	heat := make([]int, len(groups))
	for gi, g := range groups {
		heatOrder[gi] = gi
		for _, name := range g {
			heat[gi] += freq[index[name]]
		}
	}
	sort.SliceStable(heatOrder, func(a, b int) bool { return heat[heatOrder[a]] > heat[heatOrder[b]] })
	declOrder := make([]int, len(groups))
	for i := range declOrder {
		declOrder[i] = i
	}

	natural, err := mem.NewLayout(fields...)
	if err != nil {
		return nil, fmt.Errorf("compile: pack: %w", err)
	}
	best := natural
	bestScore, err := packScore(natural, groups)
	if err != nil {
		return nil, err
	}
	for _, order := range [][]int{heatOrder, declOrder} {
		cand, err := packWithOrder(fields, groups, index, order)
		if err != nil {
			return nil, err
		}
		score, err := packScore(cand, groups)
		if err != nil {
			return nil, err
		}
		if score < bestScore || (score == bestScore && cand.Size() < best.Size()) {
			best, bestScore = cand, score
		}
	}
	return best, nil
}

// packScore is the packing objective: total distinct lines the groups
// touch, weighted by each group's access frequency share (1 per
// appearance — uniform here since each group is one action path).
func packScore(l *mem.Layout, groups [][]string) (int, error) {
	total := 0
	for _, g := range groups {
		n, err := l.LinesTouched(g)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// packWithOrder lays groups out contiguously in the given order,
// widest fields first within a group, no-straddle placement, cold
// fields appended after the hot region.
func packWithOrder(fields []mem.Field, groups [][]string, index map[string]int, order []int) (*mem.Layout, error) {
	placed := make([]bool, len(fields))
	offsets := make(map[string]uint64, len(fields))
	var cursor uint64

	place := func(i int) {
		f := fields[i]
		align := f.Align()
		off := (cursor + align - 1) &^ (align - 1)
		// Avoid straddling a line when the field could fit in one.
		if f.Size <= sim.LineBytes {
			lineEnd := (off &^ uint64(sim.LineBytes-1)) + sim.LineBytes
			if off+f.Size > lineEnd {
				off = lineEnd
			}
		}
		offsets[f.Name] = off
		cursor = off + f.Size
		placed[i] = true
	}

	for _, gi := range order {
		// Within a group, widest fields first to minimize padding.
		members := make([]int, 0, len(groups[gi]))
		seen := make(map[int]bool)
		for _, name := range groups[gi] {
			i := index[name]
			if !placed[i] && !seen[i] {
				members = append(members, i)
				seen[i] = true
			}
		}
		sort.SliceStable(members, func(a, b int) bool {
			return fields[members[a]].Size > fields[members[b]].Size
		})
		for _, i := range members {
			place(i)
		}
	}

	// Cold fields in declaration order, after the hot region.
	cursor = (cursor + sim.LineBytes - 1) &^ uint64(sim.LineBytes-1)
	for i := range fields {
		if !placed[i] {
			place(i)
		}
	}

	return mem.PackedLayout(fields, offsets)
}

// FuseMember describes one NF's contribution to a fused SFC pool.
type FuseMember struct {
	// Name is the NF instance name.
	Name string
	// Fields is the NF's per-flow record (natural order).
	Fields []mem.Field
	// Hot names the fields the NF's per-packet path accesses.
	Hot []string
}

// FuseStates implements the SFC form of data packing the paper
// describes ("per-flow states of the consecutive network functions are
// highly correlated temporally, we put them in the same cache line if
// possible"): it builds ONE per-flow pool whose entries concatenate
// every member's record, with all members' hot fields packed together
// at the front of the entry. Each member receives a Binding of the
// fused pool whose per-flow layout is a view using its own field names,
// so the NFs' action declarations are unchanged, and its own control
// region.
func FuseStates(as *mem.AddressSpace, name string, members []FuseMember, maxFlows int) (map[string]*model.Binding, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("compile: fuse: no members")
	}
	// Global field list with member-qualified names, plus the hot
	// co-access group per member.
	var all []mem.Field
	var groups [][]string
	for _, m := range members {
		hotSet := make(map[string]bool, len(m.Hot))
		group := make([]string, 0, len(m.Hot))
		for _, h := range m.Hot {
			hotSet[h] = true
			group = append(group, m.Name+"."+h)
		}
		for _, f := range m.Fields {
			all = append(all, mem.Field{Name: m.Name + "." + f.Name, Size: f.Size})
		}
		groups = append(groups, group)
	}
	// One extra group spanning every member's hot fields: the chain
	// touches them for the same packet, so they are temporally
	// correlated across NFs.
	var chainGroup []string
	for _, g := range groups {
		chainGroup = append(chainGroup, g...)
	}
	groups = append(groups, chainGroup)

	fused, err := PackLayout(all, groups)
	if err != nil {
		return nil, fmt.Errorf("compile: fuse: %w", err)
	}
	pool, err := mem.NewPool(as, name+".fused", fused.Size(), maxFlows)
	if err != nil {
		return nil, fmt.Errorf("compile: fuse: %w", err)
	}

	out := make(map[string]*model.Binding, len(members))
	for _, m := range members {
		view := make(map[string]uint64, len(m.Fields))
		for _, f := range m.Fields {
			off, err := fused.Offset(m.Name + "." + f.Name)
			if err != nil {
				return nil, fmt.Errorf("compile: fuse: %w", err)
			}
			view[f.Name] = off
		}
		layout, err := mem.PackedLayout(m.Fields, view)
		if err != nil {
			return nil, fmt.Errorf("compile: fuse: view for %s: %w", m.Name, err)
		}
		ctrlBase := as.Reserve(64, 0)
		out[m.Name] = &model.Binding{
			PerFlow:       pool,
			PerFlowLayout: layout,
			Control:       mem.Region{Name: m.Name + ".control", Base: ctrlBase, Size: 64},
		}
	}
	return out, nil
}
