// Package upf implements the 5G User Plane Function of the paper's
// headline experiments (Figures 2, 10, 15), modelled on the L25GC/
// free5GC data path.
//
// Downlink: a granularly decomposed MDI-tree walk maps (UE IP, source
// port) to the PFCP session (per-flow state) and PDR (sub-flow state);
// the FAR is applied and the packet is GTP-U-encapsulated toward the
// RAN, updating usage reporting counters. Every tree node touched is
// one control state with the next node's address staged for prefetch —
// the pointer-chasing workload whose stalls the interleaved execution
// model hides.
//
// Uplink: a cuckoo lookup on the GTP-U TEID locates the session and the
// packet is decapsulated.
package upf

import (
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// FAR action values (3GPP TS 29.244 apply-action, reduced).
const (
	// FARForward tunnels the packet onward.
	FARForward uint8 = iota + 1
	// FARDrop discards the packet.
	FARDrop
	// FARBuffer queues the packet for paging (modelled as drop with a
	// distinct counter).
	FARBuffer
)

// Config parametrizes a UPF instance. Session UE IPs follow the MGW
// workload convention (10.0.0.0 + session index) so the traffic
// package's generators address them directly.
type Config struct {
	// Name prefixes the UPF's module names (default "upf").
	Name string
	// Sessions is the PFCP session count.
	Sessions int
	// PDRsPerSession is the second-level rule count per session; the
	// PDR SDF filters partition the source-port space evenly.
	PDRsPerSession int
	// RANIP is the gNB tunnel endpoint for downlink encapsulation.
	RANIP uint32
	// DropEvery, when n > 0, marks every n-th PDR with FARDrop, giving
	// the control-flow divergence the paper says batch-oriented
	// prefetching handles poorly.
	DropEvery int
}

func (c *Config) setDefaults() error {
	if c.Name == "" {
		c.Name = "upf"
	}
	if c.Sessions <= 0 {
		return fmt.Errorf("upf: Sessions must be positive, got %d", c.Sessions)
	}
	if c.PDRsPerSession <= 0 || c.PDRsPerSession > 65536 {
		return fmt.Errorf("upf: PDRsPerSession must be in [1,65536], got %d", c.PDRsPerSession)
	}
	if c.RANIP == 0 {
		c.RANIP = 0xc0a86401 // 192.168.100.1
	}
	return nil
}

// UEIP returns the UE address of session i.
func (c Config) UEIP(i int) uint32 { return 0x0a000000 + uint32(i) }

// Session is the PFCP session (per-flow) record. The simulated layout
// spans two cache lines, matching the paper's description of UPF
// per-flow state.
type Session struct {
	// SEID is the PFCP session id (cold).
	SEID uint64
	// TEIDOut and RANIP are the downlink tunnel parameters (hot, read).
	TEIDOut uint32
	RANIP   uint32
	// QFI is the QoS flow id stamped on encapsulation (hot, read).
	QFI uint8
	// UsagePkts and UsageBytes are usage-reporting counters (hot,
	// written).
	UsagePkts, UsageBytes uint64
}

func sessionFields() []mem.Field {
	return []mem.Field{
		{Name: "seid", Size: 8},
		{Name: "imsi", Size: 16},
		{Name: "apn", Size: 16},
		{Name: "teid_out", Size: 4},
		{Name: "ran_ip", Size: 4},
		{Name: "qfi", Size: 1},
		{Name: "ambr_ul", Size: 8},
		{Name: "ambr_dl", Size: 8},
		{Name: "usage_pkts", Size: 8},
		{Name: "usage_bytes", Size: 8},
	}
}

// PDR is the packet-detection-rule (sub-flow) record.
type PDR struct {
	// Precedence orders rules (cold).
	Precedence uint32
	// FARAction is the forwarding verdict (hot, read).
	FARAction uint8
	// OuterTEID overrides the session TEID when non-zero (hot, read).
	OuterTEID uint32
	// Pkts and Bytes are per-rule counters (hot, written).
	Pkts, Bytes uint64
}

func pdrFields() []mem.Field {
	return []mem.Field{
		{Name: "precedence", Size: 4},
		{Name: "qer_id", Size: 4},
		{Name: "far_action", Size: 1},
		{Name: "urr_id", Size: 4},
		{Name: "outer_teid", Size: 4},
		{Name: "pkts", Size: 8},
		{Name: "bytes", Size: 8},
	}
}

// UPF is one UPF instance.
type UPF struct {
	cfg      Config
	sessPool *mem.Pool
	pdrPool  *mem.Pool
	sessLay  *mem.Layout
	pdrLay   *mem.Layout
	control  mem.Region
	tree     *dstruct.MDITree
	teids    *dstruct.Cuckoo
	sessions []Session
	pdrs     []PDR
	// drops/buffered count FAR-discarded packets for observability.
	drops, buffered uint64
}

// New builds and fully configures a UPF: session state, PDR state, the
// MDI tree for downlink matching, and the TEID table for uplink.
func New(as *mem.AddressSpace, cfg Config) (*UPF, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	sessLay, err := mem.NewLayout(sessionFields()...)
	if err != nil {
		return nil, fmt.Errorf("upf: session layout: %w", err)
	}
	pdrLay, err := mem.NewLayout(pdrFields()...)
	if err != nil {
		return nil, fmt.Errorf("upf: pdr layout: %w", err)
	}
	sessPool, err := mem.NewPool(as, cfg.Name+".sessions", sessLay.Size(), cfg.Sessions)
	if err != nil {
		return nil, fmt.Errorf("upf: %w", err)
	}
	nPDR := cfg.Sessions * cfg.PDRsPerSession
	pdrPool, err := mem.NewPool(as, cfg.Name+".pdrs", pdrLay.Size(), nPDR)
	if err != nil {
		return nil, fmt.Errorf("upf: %w", err)
	}

	u := &UPF{
		cfg:      cfg,
		sessPool: sessPool,
		pdrPool:  pdrPool,
		sessLay:  sessLay,
		pdrLay:   pdrLay,
		control:  mem.Region{Name: cfg.Name + ".control", Base: as.Reserve(64, 0), Size: 64},
		sessions: make([]Session, cfg.Sessions),
		pdrs:     make([]PDR, nPDR),
	}

	// Populate sessions, PDRs (one array), the MDI tree and the TEID table.
	rules := make([]dstruct.SessionRules, cfg.Sessions)
	ranges := make([]dstruct.PortRange, nPDR)
	span := 65536 / cfg.PDRsPerSession
	u.teids, err = dstruct.NewCuckoo(as, cfg.Name+".teid", cfg.Sessions)
	if err != nil {
		return nil, fmt.Errorf("upf: %w", err)
	}
	for i := 0; i < cfg.Sessions; i++ {
		teid := uint32(0x10000 + i)
		u.sessions[i] = Session{
			SEID:    uint64(i) + 1,
			TEIDOut: teid,
			RANIP:   cfg.RANIP,
			QFI:     9,
		}
		if err := u.teids.Insert(uint64(teid), int32(i)); err != nil {
			return nil, fmt.Errorf("upf: teid table: %w", err)
		}
		first, end := i*cfg.PDRsPerSession, (i+1)*cfg.PDRsPerSession
		sr := dstruct.SessionRules{UEIP: cfg.UEIP(i), Session: int32(i), PDRs: ranges[first:first:end]}
		for p := 0; p < cfg.PDRsPerSession; p++ {
			idx := first + p
			action := FARForward
			if cfg.DropEvery > 0 && (p+1)%cfg.DropEvery == 0 {
				action = FARDrop
			}
			u.pdrs[idx] = PDR{Precedence: uint32(p), FARAction: action}
			lo := p * span
			hi := lo + span - 1
			if p == cfg.PDRsPerSession-1 {
				hi = 65535
			}
			sr.PDRs = append(sr.PDRs, dstruct.PortRange{Lo: uint16(lo), Hi: uint16(hi), PDR: int32(idx)})
		}
		rules[i] = sr
	}
	u.tree, err = dstruct.NewMDITree(as, cfg.Name+".mdi", rules)
	if err != nil {
		return nil, fmt.Errorf("upf: %w", err)
	}
	return u, nil
}

// Name returns the instance name.
func (u *UPF) Name() string { return u.cfg.Name }

// Tree exposes the MDI tree (for depth diagnostics in reports).
func (u *UPF) Tree() *dstruct.MDITree { return u.tree }

// Session returns a copy of session i's record.
func (u *UPF) Session(i int32) (Session, error) {
	if i < 0 || int(i) >= len(u.sessions) {
		return Session{}, fmt.Errorf("upf: session %d out of range", i)
	}
	return u.sessions[i], nil
}

// PDRRecord returns a copy of PDR idx's record.
func (u *UPF) PDRRecord(idx int32) (PDR, error) {
	if idx < 0 || int(idx) >= len(u.pdrs) {
		return PDR{}, fmt.Errorf("upf: pdr %d out of range", idx)
	}
	return u.pdrs[idx], nil
}

// Drops returns packets discarded by FARDrop (plus unmatched traffic).
func (u *UPF) Drops() uint64 { return u.drops }

// binding returns the module binding shared by the UPF's modules.
func (u *UPF) binding() model.Binding {
	return model.Binding{PerFlow: u.sessPool, SubFlow: u.pdrPool, Control: u.control}
}

func (u *UPF) layouts() model.Layouts {
	return model.Layouts{
		model.KindPerFlow: u.sessLay,
		model.KindSubFlow: u.pdrLay,
	}
}

// AttachDownlink registers the downlink pipeline (match → far → encap)
// on b, exiting toward next. It returns the entry state name.
func (u *UPF) AttachDownlink(b *model.Builder, next string) string {
	mMatch := u.cfg.Name + "_match"
	mFar := u.cfg.Name + "_far"
	mEncap := u.cfg.Name + "_encap"

	evMore := b.Event("walk_more")
	evFound := b.Event("pdr_found")
	evMiss := b.Event(nf.EvMatchFail)
	evFwd := b.Event(nf.EvForward)
	evDrop := b.Event(nf.EvDrop)
	evBuf := b.Event("buffer")

	tree := u.tree
	pdrs := u.pdrs
	sessions := u.sessions

	// Match module: granularly decomposed MDI walk.
	b.AddModule(mMatch, u.binding(), u.layouts())
	b.AddState(mMatch, "walk_start", model.Action{
		Name:  "walk_start",
		Kind:  model.ActionMatch,
		Cost:  20,
		Reads: []model.FieldRef{nf.PacketHeaderSpan()},
		Fn: func(e *model.Exec) model.EventID {
			tree.Begin(&e.Cur, e.Pkt.Tuple.DstIP, e.Pkt.Tuple.SrcPort)
			return evMore
		},
	})
	b.AddState(mMatch, "walk", model.Action{
		Name:  "walk",
		Kind:  model.ActionMatch,
		Cost:  8,
		Reads: []model.FieldRef{model.Dynamic(64)},
		Fn: func(e *model.Exec) model.EventID {
			switch tree.WalkStep(&e.Cur) {
			case dstruct.StepContinue:
				return evMore
			case dstruct.StepFound:
				e.FlowIdx = dstruct.SessionOf(&e.Cur)
				e.SubIdx = e.Cur.Idx
				return evFound
			default:
				u.drops++
				return evMiss
			}
		},
		Touch: func(e *model.Exec) { tree.TouchStep(&e.Cur) },
	})
	b.AddTransition(mMatch+".walk_start", "walk_more", mMatch+".walk")
	b.AddTransition(mMatch+".walk", "walk_more", mMatch+".walk")
	b.AddTransition(mMatch+".walk", "pdr_found", mFar+".apply")
	b.AddTransition(mMatch+".walk", nf.EvMatchFail, model.EndName)

	// FAR module: read the matched PDR's verdict.
	b.AddModule(mFar, u.binding(), u.layouts())
	b.AddState(mFar, "apply", model.Action{
		Name: "apply",
		Kind: model.ActionData,
		Cost: 15,
		Reads: []model.FieldRef{
			model.Fields(model.KindSubFlow, "far_action", "outer_teid"),
		},
		Writes: []model.FieldRef{model.Fields(model.KindSubFlow, "pkts", "bytes")},
		Fn: func(e *model.Exec) model.EventID {
			p := &pdrs[e.SubIdx]
			p.Pkts++
			p.Bytes += uint64(e.Pkt.WireLen)
			switch p.FARAction {
			case FARForward:
				return evFwd
			case FARBuffer:
				u.buffered++
				return evBuf
			default:
				u.drops++
				return evDrop
			}
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&pdrs[e.SubIdx]) },
	})
	b.AddTransition(mFar+".apply", nf.EvForward, mEncap+".encap")
	b.AddTransition(mFar+".apply", nf.EvDrop, model.EndName)
	b.AddTransition(mFar+".apply", "buffer", model.EndName)

	// Encap module: GTP-U encapsulation from session state.
	b.AddModule(mEncap, u.binding(), u.layouts())
	b.AddState(mEncap, "encap", model.Action{
		Name: "encap",
		Kind: model.ActionData,
		Cost: 70, // outer header construction + checksum
		Reads: []model.FieldRef{
			model.Fields(model.KindPerFlow, "teid_out", "ran_ip", "qfi"),
		},
		Writes: []model.FieldRef{
			// Outer Ethernet+IPv4+UDP+GTP-U headers prepended to the
			// frame.
			model.Raw(model.KindPacket, model.BasePacket, 0, pkt.EthLen+pkt.IPv4Len+pkt.UDPLen+pkt.GTPULen),
			model.Fields(model.KindPerFlow, "usage_pkts", "usage_bytes"),
		},
		Fn: func(e *model.Exec) model.EventID {
			s := &sessions[e.FlowIdx]
			teid := s.TEIDOut
			if o := pdrs[e.SubIdx].OuterTEID; o != 0 {
				teid = o
			}
			// Write the GTP-U header into the frame's tunnel header
			// slot; errors are impossible for generator frames.
			_ = pkt.EncodeGTPU(e.Pkt.Data[pkt.EthLen+pkt.IPv4Len+pkt.UDPLen:],
				pkt.GTPUHeader{MsgType: 0xFF, Length: uint16(e.Pkt.WireLen), TEID: teid})
			e.Pkt.TEID = teid
			e.Pkt.Tuple.DstIP = s.RANIP
			e.Pkt.WireLen += pkt.EthLen + pkt.IPv4Len + pkt.UDPLen + pkt.GTPULen
			s.UsagePkts++
			s.UsageBytes += uint64(e.Pkt.WireLen)
			return evFwd
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&sessions[e.FlowIdx]) },
	})
	b.AddTransition(mEncap+".encap", nf.EvForward, next)

	return mMatch + ".walk_start"
}

// AttachUplink registers the uplink pipeline (TEID match → decap) on b,
// exiting toward next. It returns the entry state name.
func (u *UPF) AttachUplink(b *model.Builder, next string) string {
	mDecap := u.cfg.Name + "_decap"
	evFwd := b.Event(nf.EvForward)
	sessions := u.sessions

	cls := nf.Classifier{
		Table:  u.teids,
		Module: u.cfg.Name + "_teid",
		KeyFn:  func(p *pkt.Packet) uint64 { return uint64(p.TEID) },
	}

	b.AddModule(mDecap, u.binding(), u.layouts())
	b.AddState(mDecap, "decap", model.Action{
		Name: "decap",
		Kind: model.ActionData,
		Cost: 45,
		Reads: []model.FieldRef{
			model.Fields(model.KindPerFlow, "teid_out", "qfi"),
			nf.PacketHeaderSpan(),
		},
		Writes: []model.FieldRef{
			model.Raw(model.KindPacket, model.BasePacket, 0, pkt.EthLen+pkt.IPv4Len),
			model.Fields(model.KindPerFlow, "usage_pkts", "usage_bytes"),
		},
		Fn: func(e *model.Exec) model.EventID {
			s := &sessions[e.FlowIdx]
			if e.Pkt.WireLen > pkt.GTPULen+pkt.UDPLen+pkt.IPv4Len {
				e.Pkt.WireLen -= pkt.GTPULen + pkt.UDPLen + pkt.IPv4Len
			}
			e.Pkt.TEID = 0
			s.UsagePkts++
			s.UsageBytes += uint64(e.Pkt.WireLen)
			return evFwd
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&sessions[e.FlowIdx]) },
	})
	b.AddTransition(mDecap+".decap", nf.EvForward, next)

	return cls.Attach(b, mDecap+".decap", model.EndName)
}

// DownlinkProgram builds the standalone downlink program.
func (u *UPF) DownlinkProgram() (*model.Program, error) {
	b := model.NewBuilder(u.cfg.Name + "-downlink")
	entry := u.AttachDownlink(b, model.EndName)
	b.SetStart(entry)
	return b.Build()
}

// UplinkProgram builds the standalone uplink program.
func (u *UPF) UplinkProgram() (*model.Program, error) {
	b := model.NewBuilder(u.cfg.Name + "-uplink")
	entry := u.AttachUplink(b, model.EndName)
	b.SetStart(entry)
	return b.Build()
}
