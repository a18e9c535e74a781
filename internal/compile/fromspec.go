package compile

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf"
	"github.com/gunfu-nfv/gunfu/internal/nfc"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/spec"
)

// SpecUnit is the director compiler's input (§III): module
// specifications, the NF/SFC composition, and the NF-C implementation
// library for the user-defined actions.
type SpecUnit struct {
	// Modules are the parsed module specifications, by name.
	Modules map[string]*spec.Module
	// NF is the composition to build.
	NF *spec.NF
	// NFCSource is the NF-C implementation library; it must define one
	// NFAction per control state of every StatefulNF module.
	NFCSource string
	// MaxFlows sizes per-flow pools and the classifier table.
	MaxFlows int
}

// SpecResult is the compiled artifact: the runnable program plus the
// handles the operator needs to configure it.
type SpecResult struct {
	// Program is the runnable NF binary equivalent.
	Program *model.Program
	// Table is the flow classifier's match table (populate via AddFlow).
	Table *dstruct.Cuckoo
	// Stores maps each StatefulNF module to its per-flow value store.
	Stores map[string]*nfc.Store
	// maxFlows is the per-flow pools' entry count, the flow index bound.
	maxFlows int
}

// AddFlow registers tuple at per-flow index idx. The index must address
// the per-flow pools; the classifier keys on tuple.Hash(), and
// Cuckoo.Insert refuses a key already installed at another index.
func (r *SpecResult) AddFlow(tuple pkt.FiveTuple, idx int32) error {
	if r.Table == nil {
		return fmt.Errorf("compile: spec program has no classifier table")
	}
	if idx < 0 || int(idx) >= r.maxFlows {
		return fmt.Errorf("compile: %s: flow index %d out of range [0,%d)", r.Table.Region().Name, idx, r.maxFlows)
	}
	if err := r.Table.Insert(tuple.Hash(), idx); err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	return nil
}

// Category names recognized in module specs.
const (
	// CategoryClassifier marks a stateful flow classifier module,
	// realized as the stepwise cuckoo lookup of Listing 1.
	CategoryClassifier = "StatefulClassifier"
	// CategoryStatefulNF marks a module whose actions come from the
	// NF-C implementation library.
	CategoryStatefulNF = "StatefulNF"
)

// FromSpec compiles a specification unit into a runnable program. The
// composition chain must start with a StatefulClassifier; subsequent
// stages are StatefulNF modules whose control-state actions are NF-C
// implementations of the same name.
func FromSpec(as *mem.AddressSpace, unit SpecUnit) (*SpecResult, error) {
	if unit.NF == nil || len(unit.NF.Stages) == 0 {
		return nil, fmt.Errorf("compile: spec unit has no composition")
	}
	if unit.MaxFlows <= 0 {
		return nil, fmt.Errorf("compile: MaxFlows must be positive")
	}

	// Parse and index the NF-C library.
	var actions map[string]*nfc.ActionAST
	if unit.NFCSource != "" {
		parsed, err := nfc.Parse(unit.NFCSource)
		if err != nil {
			return nil, fmt.Errorf("compile: NF-C library: %w", err)
		}
		actions = make(map[string]*nfc.ActionAST, len(parsed))
		for _, a := range parsed {
			actions[a.Name] = a
		}
	}

	b := model.NewBuilder(unit.NF.Name)
	result := &SpecResult{Stores: make(map[string]*nfc.Store), maxFlows: unit.MaxFlows}

	// Resolve stage specs and entry points back to front.
	next := model.EndName
	for i := len(unit.NF.Stages) - 1; i >= 0; i-- {
		stage := unit.NF.Stages[i]
		mod, ok := unit.Modules[stage]
		if !ok {
			return nil, fmt.Errorf("compile: composition references unknown module %q", stage)
		}
		switch mod.Category {
		case CategoryClassifier:
			if i != 0 {
				return nil, fmt.Errorf("compile: classifier %q must be the first stage", mod.Name)
			}
			table, err := dstruct.NewCuckoo(as, mod.Name, unit.MaxFlows)
			if err != nil {
				return nil, fmt.Errorf("compile: %w", err)
			}
			result.Table = table
			cls := nf.Classifier{Table: table, Module: mod.Name}
			next = cls.Attach(b, next, model.EndName)
		case CategoryStatefulNF:
			if i == 0 {
				// Without a classifier no stage sets the flow index its
				// per-flow state is addressed by.
				return nil, fmt.Errorf("compile: %s: chain must start with a %s, not %q",
					unit.NF.Name, CategoryClassifier, mod.Name)
			}
			entry, err := attachStatefulNF(as, b, mod, actions, unit.MaxFlows, next, result)
			if err != nil {
				return nil, err
			}
			next = entry
		default:
			return nil, fmt.Errorf("compile: module %q: unknown category %q", mod.Name, mod.Category)
		}
	}
	b.SetStart(next)

	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("compile: %s: %w", unit.NF.Name, err)
	}
	result.Program = prog
	return result, nil
}

// attachStatefulNF lowers one StatefulNF module: per-flow state (an
// 8-byte field per declared name) and store from the spec's states,
// one NF-C action per control state, transitions from the spec's Δ.
func attachStatefulNF(as *mem.AddressSpace, b *model.Builder, mod *spec.Module,
	actions map[string]*nfc.ActionAST, maxFlows int, next string, result *SpecResult) (string, error) {

	if len(mod.States) == 0 {
		return "", fmt.Errorf("compile: module %s declares no per-flow state", mod.Name)
	}
	fields := make([]mem.Field, len(mod.States))
	for i, n := range mod.States {
		fields[i] = mem.Field{Name: n, Size: 8}
	}
	bind, err := nf.BuildStates(as, mod.Name, fields, maxFlows)
	if err != nil {
		return "", fmt.Errorf("compile: module %s: %w", mod.Name, err)
	}
	store, err := nfc.NewStore(mod.States, maxFlows)
	if err != nil {
		return "", fmt.Errorf("compile: module %s: %w", mod.Name, err)
	}
	result.Stores[mod.Name] = store
	b.AddModule(mod.Name, *bind)
	schema := nfc.Schema{nfc.RootPerFlow: mod.States}

	// Control states = every non-Start/End transition source.
	csSeen := make(map[string]bool)
	var csNames []string
	for _, tr := range mod.Transitions {
		if tr.From != spec.StartState && !csSeen[tr.From] {
			csSeen[tr.From] = true
			csNames = append(csNames, tr.From)
		}
	}
	for _, cs := range csNames {
		ast, ok := actions[cs]
		if !ok {
			return "", fmt.Errorf("compile: module %s: no NF-C implementation for action %q", mod.Name, cs)
		}
		compiled, err := nfc.Compile(ast, schema)
		if err != nil {
			return "", fmt.Errorf("compile: module %s: %w", mod.Name, err)
		}
		act, err := nfc.ToAction(compiled, store, b)
		if err != nil {
			return "", fmt.Errorf("compile: module %s: %w", mod.Name, err)
		}
		b.AddState(mod.Name, cs, act)
	}

	for _, tr := range mod.Transitions {
		if tr.From == spec.StartState {
			continue
		}
		to := tr.To
		switch to {
		case spec.StartState:
			return "", fmt.Errorf("compile: module %s: transition into Start", mod.Name)
		case model.EndName:
			to = next // module exit chains to the next stage
		default:
			to = mod.Name + "." + to
		}
		b.AddTransition(mod.Name+"."+tr.From, tr.Event, to)
	}

	entry, _ := mod.Entry()
	return mod.Name + "." + entry, nil
}
