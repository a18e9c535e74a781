// Package fw implements the stateful firewall of the paper's SFC
// experiments. Established flows take the hot path: a per-flow verdict
// read. Unknown flows walk the firewall policy — a rule list living in
// simulated memory, scanned line by line as a stepwise match action —
// and the verdict is installed into per-flow state, so only a flow's
// first packet pays the policy evaluation.
//
// The SFC-length experiments (Figure 13) instantiate several firewalls
// with different policies, which is why the policy is part of Config.
package fw

import (
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Rule is one policy entry: match on protocol and destination port
// range, yield a verdict. A zero Proto matches every protocol.
type Rule struct {
	// Proto matches the IP protocol (0 = any).
	Proto uint8
	// DstPortLo and DstPortHi bound the matched destination ports.
	DstPortLo, DstPortHi uint16
	// Allow is the verdict.
	Allow bool
}

// Matches reports whether the rule covers the tuple.
func (r Rule) Matches(t pkt.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != t.Proto {
		return false
	}
	return t.DstPort >= r.DstPortLo && t.DstPort <= r.DstPortHi
}

// rulesPerLine is how many rules share one cache line in the policy
// region (rules are small; 8 per 64-byte line).
const rulesPerLine = 8

// Config parametrizes a firewall instance.
type Config struct {
	// Name prefixes the firewall's module names (default "fw").
	Name string
	// MaxFlows sizes the per-flow pool and match table.
	MaxFlows int
	// Policy is the rule list, evaluated first-match. A packet matching
	// no rule is dropped.
	Policy []Rule
	// States optionally overrides the per-flow state binding — used by
	// the compiler's data-packing pass for fused SFC pools.
	States *model.Binding
}

// DefaultPolicy builds an n-rule policy whose final rule is a
// catch-all allow; earlier rules deny scattered port slices. Larger n
// means a longer (more cache-hostile) first-packet policy walk.
func DefaultPolicy(n int) []Rule {
	if n < 1 {
		n = 1
	}
	rules := make([]Rule, 0, n)
	for i := 0; i < n-1; i++ {
		lo := uint16(i * 7)
		rules = append(rules, Rule{Proto: pkt.ProtoTCP, DstPortLo: lo, DstPortHi: lo + 2, Allow: false})
	}
	rules = append(rules, Rule{DstPortLo: 0, DstPortHi: 65535, Allow: true})
	return rules
}

// Flow is the firewall's per-flow record.
type Flow struct {
	// Allowed is the installed verdict (hot, read).
	Allowed bool
	// RuleID records which policy rule decided the flow (cold).
	RuleID int32
	// Pkts counts packets checked (hot, written).
	Pkts uint64
}

// FlowFields returns the simulated per-flow layout in natural order.
func FlowFields() []mem.Field {
	return []mem.Field{
		{Name: "allowed", Size: 1},
		{Name: "state", Size: 1},
		{Name: "rule_id", Size: 4},
		{Name: "created", Size: 8},
		{Name: "pkts", Size: 8},
	}
}

// HotFields returns the per-packet co-access group for data packing.
func HotFields() []string {
	return []string{"allowed", "state", "pkts"}
}

// FW is one firewall instance.
type FW struct {
	*nf.FlowTable[Flow]
	rules  []Rule
	policy mem.Region
	// denied counts packets the installed verdict dropped.
	denied uint64
}

// New builds a firewall drawing simulated memory from as.
func New(as *mem.AddressSpace, cfg Config) (*FW, error) {
	if cfg.Name == "" {
		cfg.Name = "fw"
	}
	if len(cfg.Policy) == 0 {
		// Default: allow everything (one rule), the pass-through policy.
		cfg.Policy = []Rule{{Allow: true, DstPortHi: 65535}}
	}
	f := &FW{rules: cfg.Policy}
	var err error
	f.FlowTable, err = nf.NewFlowTable(as, nf.FlowTableConfig[Flow]{
		Name: cfg.Name, MaxFlows: cfg.MaxFlows, States: cfg.States, Fields: FlowFields(),
		NewFlow:    f.newFlow,
		Data:       f.AttachData,
		MissModule: "_policy",
		Walk:       f.attachPolicyWalk,
		Alloc:      model.Action{Name: "alloc", Cost: 150}, // table insert
		Install: model.Action{Name: "install", Cost: 30, Writes: []model.FieldRef{
			model.Fields(model.BasePerFlow, "allowed", "state", "rule_id"),
		}},
	})
	if err != nil {
		return nil, err
	}
	lines := uint64(len(cfg.Policy)+rulesPerLine-1) / rulesPerLine
	base := as.Reserve(lines*sim.LineBytes, sim.LineBytes)
	f.policy = mem.Region{Name: cfg.Name + ".policy", Base: base, Size: lines * sim.LineBytes}
	return f, nil
}

// Drops returns the packets dropped so far: denied by their flow's
// verdict, or first packets that found the table full.
func (f *FW) Drops() uint64 { return f.FlowTable.Drops() + f.denied }

// newFlow evaluates the policy for tuple (first match wins; no match
// denies) into the flow's verdict.
func (f *FW) newFlow(tuple pkt.FiveTuple, _ int32) Flow {
	for i, r := range f.rules {
		if r.Matches(tuple) {
			return Flow{Allowed: r.Allow, RuleID: int32(i)}
		}
	}
	return Flow{RuleID: -1}
}

// Translate returns tuple unchanged: the firewall does not rewrite.
func (f *FW) Translate(tuple pkt.FiveTuple, _ int32) pkt.FiveTuple { return tuple }

// AttachData registers only the established-flow check (post-MR form).
func (f *FW) AttachData(b *model.Builder, next string) string {
	evFwd := b.Event(nf.EvForward)
	evDrop := b.Event(nf.EvDrop)
	flows := f.Records()
	m := f.AddModule(b, "_check")
	b.AddState(m, "check", model.Action{
		Name: "check",
		Cost: 30,
		Reads: []model.FieldRef{
			model.Fields(model.BasePerFlow, "allowed", "state"),
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{model.Fields(model.BasePerFlow, "pkts")},
		Fn: func(e *model.Exec) model.EventID {
			fl := &flows[e.FlowIdx]
			fl.Pkts++
			if !fl.Allowed {
				f.denied++
				return evDrop
			}
			return evFwd
		},
		Touch: f.Touch(),
	})
	b.AddTransition(m+".check", nf.EvForward, next)
	b.AddTransition(m+".check", nf.EvDrop, model.EndName)
	return m + ".check"
}

// attachPolicyWalk registers, ahead of the table's alloc → install
// pair, the stepwise scan of the policy region a first packet pays: one
// line of rules per control-state visit, each line's address staged
// ahead for prefetching, up to the line holding the deciding rule.
func (f *FW) attachPolicyWalk(b *model.Builder, m, alloc string) string {
	evMore := b.Event("policy_more")
	evDone := b.Event("policy_done")
	policy := f.rules
	policyBase := f.policy.Base

	b.AddState(m, "walk_start", model.Action{
		Name: "walk_start",
		Cost: 10,
		Fn: func(e *model.Exec) model.EventID {
			e.Cur.Reset()
			e.Cur.Stage = 0
			e.Cur.Addr = policyBase
			return evMore
		},
	})
	b.AddState(m, "walk", model.Action{
		Name:  "walk",
		Cost:  20, // evaluate up to rulesPerLine rules
		Reads: []model.FieldRef{model.Dynamic(64)},
		Fn: func(e *model.Exec) model.EventID {
			start := int(e.Cur.Stage) * rulesPerLine
			for i := start; i < start+rulesPerLine && i < len(policy); i++ {
				if policy[i].Matches(e.Pkt.Tuple) {
					return evDone
				}
			}
			if start+rulesPerLine >= len(policy) {
				return evDone
			}
			e.Cur.Stage++
			e.Cur.Addr = policyBase + uint64(e.Cur.Stage)*sim.LineBytes
			return evMore
		},
	})
	b.AddTransition(m+".walk_start", "policy_more", m+".walk")
	b.AddTransition(m+".walk", "policy_more", m+".walk")
	b.AddTransition(m+".walk", "policy_done", alloc)
	return m + ".walk_start"
}
