// Package amf implements the 5G Access and Mobility Management
// Function of the paper's state-complexity experiments (Figures 3 and
// 12), modelled on the free5GC/L25GC initial-registration call flow.
//
// The AMF is the paper's example of a *state-intensive* NF: its per-UE
// context exceeds 20 cache lines, and each NAS message type touches a
// different slice of it. The granular decomposition declares, per
// message handler, exactly which context fields are read and written —
// which is what lets the runtime prefetch precisely and what gives the
// data-packing optimization its material (packing the fields each
// handler co-accesses into adjacent lines).
package amf

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// Fields returns the UE context layout in natural (declaration) order:
// the unpacked baseline a straightforward C struct would produce,
// totalling more than 20 cache lines.
func Fields() []mem.Field {
	return []mem.Field{
		{Name: "supi", Size: 16},
		{Name: "suci", Size: 32},
		{Name: "guti", Size: 16},
		{Name: "tmsi", Size: 8},
		{Name: "reg_state", Size: 4},
		{Name: "procedure", Size: 4},
		{Name: "nas_msgs", Size: 8},
		{Name: "last_activity", Size: 8},
		{Name: "rand", Size: 16},
		{Name: "autn", Size: 16},
		{Name: "xres_star", Size: 16},
		{Name: "kausf", Size: 32},
		{Name: "kseaf", Size: 32},
		{Name: "kamf", Size: 32},
		{Name: "knas_int", Size: 16},
		{Name: "knas_enc", Size: 16},
		{Name: "ul_nas_count", Size: 4},
		{Name: "dl_nas_count", Size: 4},
		{Name: "sec_algs", Size: 4},
		{Name: "tai_list", Size: 96},
		{Name: "allowed_nssai", Size: 64},
		{Name: "reg_area_valid", Size: 1},
		{Name: "pdu_ids", Size: 32},
		{Name: "smf_info", Size: 64},
		{Name: "dnn", Size: 32},
		{Name: "last_tai", Size: 16},
		{Name: "cell_id", Size: 8},
		{Name: "ue_radio_cap", Size: 192},
		{Name: "subscription", Size: 256},
		{Name: "am_policy", Size: 64},
		{Name: "event_subs", Size: 128},
		{Name: "sms_context", Size: 64},
	}
}

// handlerSpec describes one NAS message handler: its two data actions'
// read/write field sets over the UE context and their compute costs.
type handlerSpec struct {
	msg        uint8
	name       string
	loadName   string
	loadReads  []string
	loadCost   uint64
	applyName  string
	applyReads []string
	applyWrite []string
	applyCost  uint64
}

// handlers is the initial-registration call flow, message by message.
// The field sets mirror which parts of a real AMF's UE context each
// procedure touches.
func handlers() []handlerSpec {
	return []handlerSpec{
		{
			msg: traffic.MsgRegistrationRequest, name: "reg_req",
			loadName: "identify", loadReads: []string{"suci", "guti", "tmsi"}, loadCost: 90,
			applyName: "start_reg", applyReads: []string{"reg_state"},
			applyWrite: []string{"reg_state", "procedure", "nas_msgs", "last_activity"}, applyCost: 60,
		},
		{
			msg: traffic.MsgAuthResponse, name: "auth_resp",
			loadName: "load_vector", loadReads: []string{"rand", "autn", "xres_star"}, loadCost: 70,
			applyName: "verify_derive", applyReads: []string{"kausf"},
			applyWrite: []string{"kseaf", "kamf", "nas_msgs", "last_activity"}, applyCost: 160,
		},
		{
			msg: traffic.MsgSecModeComplete, name: "sec_mode",
			loadName: "load_sec", loadReads: []string{"kamf", "knas_int", "knas_enc"}, loadCost: 60,
			applyName: "activate", applyReads: []string{"sec_algs"},
			applyWrite: []string{"ul_nas_count", "dl_nas_count", "sec_algs", "nas_msgs", "last_activity"}, applyCost: 110,
		},
		{
			msg: traffic.MsgRegistrationComplete, name: "reg_complete",
			loadName: "finalize", loadReads: []string{"reg_state", "procedure", "subscription"}, loadCost: 80,
			applyName: "build_area", applyReads: []string{"am_policy"},
			applyWrite: []string{"tai_list", "allowed_nssai", "reg_area_valid", "guti", "tmsi", "nas_msgs", "last_activity"}, applyCost: 140,
		},
		{
			msg: traffic.MsgPDUSessionRequest, name: "pdu_req",
			loadName: "load_sub", loadReads: []string{"subscription", "dnn"}, loadCost: 70,
			applyName: "create_session", applyReads: []string{"pdu_ids"},
			applyWrite: []string{"pdu_ids", "smf_info", "nas_msgs", "last_activity"}, applyCost: 130,
		},
	}
}

// AccessGroups returns, per NAS message handler, the set of UE-context
// fields its actions access while processing one message — the
// co-access information the data-packing optimizer consumes. The
// granularity is the handler (load + apply together), because those
// actions run back-to-back on the same packet: their fields are
// contemporaneously accessed in the sense of §VI-B.
func AccessGroups() [][]string {
	var groups [][]string
	for _, h := range handlers() {
		g := append([]string(nil), h.loadReads...)
		g = append(g, h.applyReads...)
		g = append(g, h.applyWrite...)
		groups = append(groups, g)
	}
	return groups
}

// Config parametrizes an AMF instance.
type Config struct {
	// Name prefixes the AMF's module names (default "amf").
	Name string
	// MaxUEs sizes the UE context pool and match table (the paper
	// assumes 2^17).
	MaxUEs int
	// Layout optionally overrides the natural UE-context layout with a
	// packed one (as produced by the compiler's data-packing pass). It
	// must contain exactly the fields of Fields().
	Layout *mem.Layout
}

func (c *Config) setDefaults() error {
	if c.Name == "" {
		c.Name = "amf"
	}
	if c.MaxUEs <= 0 {
		return fmt.Errorf("amf: MaxUEs must be positive, got %d", c.MaxUEs)
	}
	return nil
}

// UE is the Go-side behavioural state of one subscriber (the simulated
// layout carries the full context footprint; only decision-relevant
// fields need Go values).
type UE struct {
	// State tracks the registration FSM (0 deregistered … 4 PDU
	// session active).
	State uint8
	// Msgs counts NAS messages handled.
	Msgs uint64
}

// AMF is one AMF instance.
type AMF struct {
	cfg Config
	// bind is the state binding every AMF module shares: the UE
	// contexts are its per-flow pool.
	bind  model.Binding
	table *dstruct.Cuckoo
	ues   []UE
	// rejected counts messages for unknown UEs.
	rejected uint64
}

// New builds an AMF with all MaxUEs contexts registered (the paper's
// experiments pre-establish the UE population).
func New(as *mem.AddressSpace, cfg Config) (*AMF, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	layout := cfg.Layout
	if layout == nil {
		var err error
		layout, err = mem.NewLayout(Fields()...)
		if err != nil {
			return nil, fmt.Errorf("amf: layout: %w", err)
		}
	}
	for _, f := range Fields() {
		if _, err := layout.Offset(f.Name); err != nil {
			return nil, fmt.Errorf("amf: supplied layout: %w", err)
		}
	}
	pool, err := mem.NewPool(as, cfg.Name+".uectx", layout.Size(), cfg.MaxUEs)
	if err != nil {
		return nil, fmt.Errorf("amf: %w", err)
	}
	table, err := dstruct.NewCuckoo(as, cfg.Name+".match", cfg.MaxUEs)
	if err != nil {
		return nil, fmt.Errorf("amf: %w", err)
	}
	a := &AMF{
		cfg: cfg,
		bind: model.Binding{
			PerFlow: pool, PerFlowLayout: layout,
			Control: mem.Region{Name: cfg.Name + ".control", Base: as.Reserve(64, 0), Size: 64},
		},
		table: table,
		ues:   make([]UE, cfg.MaxUEs),
	}
	for i := 0; i < cfg.MaxUEs; i++ {
		if err := table.Insert(uint64(i)+1, int32(i)); err != nil {
			return nil, fmt.Errorf("amf: registering UE %d: %w", i, err)
		}
	}
	return a, nil
}

// ContextLines returns the UE context footprint in cache lines.
func (a *AMF) ContextLines() int { return a.bind.PerFlowLayout.Lines() }

// Rejected returns the count of messages for unknown UEs.
func (a *AMF) Rejected() uint64 { return a.rejected }

// UEState returns a copy of UE i's behavioural state.
func (a *AMF) UEState(i int32) (UE, error) {
	if i < 0 || int(i) >= len(a.ues) {
		return UE{}, fmt.Errorf("amf: UE %d out of range", i)
	}
	return a.ues[i], nil
}

// Attach registers the AMF's modules on b: UE lookup, the per-message
// dispatch, and one handler module per NAS message type. Completed
// messages exit toward next.
func (a *AMF) Attach(b *model.Builder, next string) string {
	name := a.cfg.Name
	ues := a.ues

	// UE lookup by NGAP UE id.
	cls := nf.Classifier{
		Table:  a.table,
		Module: name + "_ue",
		KeyFn:  func(p *pkt.Packet) uint64 { return uint64(p.UE) + 1 },
	}

	// Dispatch on message type.
	mDisp := name + "_dispatch"
	b.AddModule(mDisp, a.bind)
	evByMsg := make(map[uint8]model.EventID, traffic.NumAMFMessages)
	for _, h := range handlers() {
		evByMsg[h.msg] = b.Event("nas_" + h.name)
	}
	evDrop := b.Event(nf.EvDrop)
	b.AddState(mDisp, "dispatch", model.Action{
		Name:  "dispatch",
		Cost:  25,
		Reads: []model.FieldRef{nf.PacketHeaderSpan()},
		Fn: func(e *model.Exec) model.EventID {
			if ev, ok := evByMsg[e.Pkt.MsgType]; ok {
				return ev
			}
			a.rejected++
			return evDrop
		},
	})
	b.AddTransition(mDisp+".dispatch", nf.EvDrop, model.EndName)

	// One module per message handler: load → apply. Both fetch the UE's
	// Go-side record on the host: load's P-stage is the first to know
	// the UE, and apply's context lines are often resident by then (so
	// its own P-stage would issue nothing).
	evFwd := b.Event(nf.EvForward)
	touchUE := func(e *model.Exec) { hostmem.Prefetch(&ues[e.FlowIdx]) }
	for _, h := range handlers() {
		h := h
		m := name + "_" + h.name
		b.AddModule(m, a.bind)
		b.AddState(m, h.loadName, model.Action{
			Name:  h.loadName,
			Cost:  h.loadCost,
			Reads: []model.FieldRef{model.Fields(model.BasePerFlow, h.loadReads...)},
			Fn:    func(*model.Exec) model.EventID { return evFwd },
			Touch: touchUE,
		})
		b.AddState(m, h.applyName, model.Action{
			Name:   h.applyName,
			Cost:   h.applyCost,
			Reads:  []model.FieldRef{model.Fields(model.BasePerFlow, h.applyReads...)},
			Writes: []model.FieldRef{model.Fields(model.BasePerFlow, h.applyWrite...)},
			Fn: func(e *model.Exec) model.EventID {
				ue := &ues[e.FlowIdx]
				ue.Msgs++
				if ue.State < h.msg {
					ue.State = h.msg
				}
				return evFwd
			},
			Touch: touchUE,
		})
		b.AddTransition(mDisp+".dispatch", "nas_"+h.name, m+"."+h.loadName)
		b.AddTransition(m+"."+h.loadName, nf.EvForward, m+"."+h.applyName)
		b.AddTransition(m+"."+h.applyName, nf.EvForward, next)
	}

	return cls.Attach(b, mDisp+".dispatch", model.EndName)
}

// Program builds the standalone AMF program.
func (a *AMF) Program() (*model.Program, error) {
	b := model.NewBuilder(a.cfg.Name)
	entry := a.Attach(b, model.EndName)
	b.SetStart(entry)
	return b.Build()
}
