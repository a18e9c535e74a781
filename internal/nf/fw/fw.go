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
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/hostmem"
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
	// States optionally overrides the per-flow state objects — used by
	// the compiler's data-packing pass for fused SFC pools.
	States *nf.States
}

func (c *Config) setDefaults() error {
	if c.Name == "" {
		c.Name = "fw"
	}
	if c.MaxFlows <= 0 {
		return fmt.Errorf("fw: MaxFlows must be positive, got %d", c.MaxFlows)
	}
	if len(c.Policy) == 0 {
		// Default: allow everything (one rule), the pass-through policy.
		c.Policy = []Rule{{Allow: true, DstPortHi: 65535}}
	}
	return nil
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
	cfg    Config
	states *nf.States
	table  *dstruct.Cuckoo
	policy mem.Region
	flows  []Flow
	next   int32
	// drops counts packets denied, for test observability.
	drops uint64
}

// New builds a firewall drawing simulated memory from as.
func New(as *mem.AddressSpace, cfg Config) (*FW, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	states := cfg.States
	if states == nil {
		var err error
		states, err = nf.BuildStates(as, cfg.Name, FlowFields(), cfg.MaxFlows)
		if err != nil {
			return nil, err
		}
	}
	table, err := dstruct.NewCuckoo(as, cfg.Name+".match", cfg.MaxFlows)
	if err != nil {
		return nil, err
	}
	lines := (len(cfg.Policy) + rulesPerLine - 1) / rulesPerLine
	base := as.Reserve(uint64(lines)*sim.LineBytes, sim.LineBytes)
	return &FW{
		cfg:    cfg,
		states: states,
		table:  table,
		policy: mem.Region{Name: cfg.Name + ".policy", Base: base, Size: uint64(lines) * sim.LineBytes},
		flows:  make([]Flow, cfg.MaxFlows),
	}, nil
}

// Name returns the instance name.
func (f *FW) Name() string { return f.cfg.Name }

// States exposes the per-flow state objects (for data packing).
func (f *FW) States() *nf.States { return f.states }

// Drops returns the packets denied so far.
func (f *FW) Drops() uint64 { return f.drops }

// Flow returns a copy of flow idx's record.
func (f *FW) Flow(idx int32) (Flow, error) {
	if idx < 0 || int(idx) >= len(f.flows) {
		return Flow{}, fmt.Errorf("fw: flow %d out of range", idx)
	}
	return f.flows[idx], nil
}

// evaluate runs the policy in Go (first match wins).
func (f *FW) evaluate(t pkt.FiveTuple) (verdict bool, rule int32) {
	for i, r := range f.cfg.Policy {
		if r.Matches(t) {
			return r.Allow, int32(i)
		}
	}
	return false, -1
}

// AddFlow pre-populates flow idx for tuple with its evaluated verdict.
func (f *FW) AddFlow(tuple pkt.FiveTuple, idx int32) error {
	if idx < 0 || int(idx) >= len(f.flows) {
		return fmt.Errorf("fw: flow index %d out of range [0,%d)", idx, len(f.flows))
	}
	if err := f.table.Insert(tuple.Hash(), idx); err != nil {
		return fmt.Errorf("fw: %w", err)
	}
	allow, rule := f.evaluate(tuple)
	f.flows[idx] = Flow{Allowed: allow, RuleID: rule}
	if idx >= f.next {
		f.next = idx + 1
	}
	return nil
}

// Translate returns tuple unchanged: the firewall does not rewrite.
func (f *FW) Translate(tuple pkt.FiveTuple, _ int32) pkt.FiveTuple { return tuple }

// Attach registers the firewall's modules on b, exiting toward next.
func (f *FW) Attach(b *model.Builder, next string) string {
	cls := nf.Classifier{Table: f.table, Module: f.cfg.Name + "_cls"}
	dataEntry := f.AttachData(b, next)
	walkEntry := f.attachPolicyWalk(b, dataEntry)
	return cls.Attach(b, dataEntry, walkEntry)
}

// AttachData registers only the established-flow check (post-MR form).
func (f *FW) AttachData(b *model.Builder, next string) string {
	m := f.cfg.Name + "_check"
	evFwd := b.Event(nf.EvForward)
	evDrop := b.Event(nf.EvDrop)
	flows := f.flows

	b.AddModule(m, f.states.Binding(), model.Layouts{model.KindPerFlow: f.states.Layout})
	b.AddState(m, "check", model.Action{
		Name: "check",
		Kind: model.ActionData,
		Cost: 30,
		Reads: []model.FieldRef{
			model.Fields(model.KindPerFlow, "allowed", "state"),
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{model.Fields(model.KindPerFlow, "pkts")},
		Fn: func(e *model.Exec) model.EventID {
			fl := &flows[e.FlowIdx]
			fl.Pkts++
			if !fl.Allowed {
				f.drops++
				return evDrop
			}
			return evFwd
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&flows[e.FlowIdx]) },
	})
	b.AddTransition(m+".check", nf.EvForward, next)
	b.AddTransition(m+".check", nf.EvDrop, model.EndName)
	return m + ".check"
}

// attachPolicyWalk registers the first-packet path: a stepwise scan of
// the policy region (one line of rules per control-state visit, each
// line's address staged ahead for prefetching), then flow allocation
// and verdict install.
func (f *FW) attachPolicyWalk(b *model.Builder, dataEntry string) string {
	m := f.cfg.Name + "_policy"
	evFwd := b.Event(nf.EvForward)
	evDrop := b.Event(nf.EvDrop)
	evMore := b.Event("policy_more")
	evDone := b.Event("policy_done")
	policy := f.cfg.Policy
	policyBase := f.policy.Base

	b.AddModule(m, f.states.Binding(), model.Layouts{model.KindPerFlow: f.states.Layout})
	b.AddState(m, "walk_start", model.Action{
		Name: "walk_start",
		Kind: model.ActionMatch,
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
		Kind:  model.ActionMatch,
		Cost:  20, // evaluate up to rulesPerLine rules
		Reads: []model.FieldRef{model.Dynamic(64)},
		Fn: func(e *model.Exec) model.EventID {
			start := int(e.Cur.Stage) * rulesPerLine
			for i := start; i < start+rulesPerLine && i < len(policy); i++ {
				if policy[i].Matches(e.Pkt.Tuple) {
					e.Cur.Ok = policy[i].Allow
					e.Cur.Idx = int32(i)
					return evDone
				}
			}
			if start+rulesPerLine >= len(policy) {
				e.Cur.Ok = false
				e.Cur.Idx = -1
				return evDone
			}
			e.Cur.Stage++
			e.Cur.Addr = policyBase + uint64(e.Cur.Stage)*sim.LineBytes
			return evMore
		},
	})
	// Verdict install is two control states so the Granular Decomposition
	// Property holds: "alloc" decides (and may drop) without touching
	// per-flow state; "install" has the per-flow writes declared and only
	// runs once a flow index exists.
	b.AddState(m, "alloc", model.Action{
		Name: "alloc",
		Kind: model.ActionConfig,
		Cost: 150, // table insert
		Fn: func(e *model.Exec) model.EventID {
			if int(f.next) >= len(f.flows) {
				f.drops++
				return evDrop
			}
			idx := f.next
			if err := f.table.Insert(e.Pkt.Tuple.Hash(), idx); err != nil {
				f.drops++
				return evDrop
			}
			f.next++
			f.flows[idx] = Flow{Allowed: e.Cur.Ok, RuleID: e.Cur.Idx}
			e.FlowIdx = idx
			return evFwd
		},
	})
	b.AddState(m, "install", model.Action{
		Name: "install",
		Kind: model.ActionConfig,
		Cost: 30, // state init
		Writes: []model.FieldRef{
			model.Fields(model.KindPerFlow, "allowed", "state", "rule_id"),
		},
		Fn: func(e *model.Exec) model.EventID { return evFwd },
	})
	b.AddTransition(m+".walk_start", "policy_more", m+".walk")
	b.AddTransition(m+".walk", "policy_more", m+".walk")
	b.AddTransition(m+".walk", "policy_done", m+".alloc")
	b.AddTransition(m+".alloc", nf.EvForward, m+".install")
	b.AddTransition(m+".alloc", nf.EvDrop, model.EndName)
	b.AddTransition(m+".install", nf.EvForward, dataEntry)
	return m + ".walk_start"
}

// Program builds the standalone firewall program.
func (f *FW) Program() (*model.Program, error) {
	b := model.NewBuilder(f.cfg.Name)
	entry := f.Attach(b, model.EndName)
	b.SetStart(entry)
	return b.Build()
}
