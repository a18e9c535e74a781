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
package upf

import (
	"fmt"
	"math"

	"github.com/gunfu-nfv/gunfu/internal/dstruct"
	"github.com/gunfu-nfv/gunfu/internal/hostmem"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
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
}

// ranIP is the gNB tunnel endpoint for downlink encapsulation,
// 192.168.100.1.
const ranIP = 0xc0a86401

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
	// PDR pool indices and MDI tree nodes (one per PDR and per session)
	// are int32.
	if c.Sessions > math.MaxInt32/(c.PDRsPerSession+1) {
		return fmt.Errorf("upf: Sessions (%d) x (PDRsPerSession (%d) + 1) tree nodes exceed the int32 index space",
			c.Sessions, c.PDRsPerSession)
	}
	return nil
}

// UEIP returns the UE address of session i.
func (c Config) UEIP(i int) uint32 { return 0x0a000000 + uint32(i) }

// Session is the PFCP session (per-flow) state UPF.Session reports: its
// downlink TEID and its usage counters. The simulated layout spans two
// cache lines, matching the paper's description of UPF per-flow state.
// The UPF keeps only the counters, a 16-byte record per session: the
// TEID follows from the session index, and every session's tunnel ends
// at the constant ranIP.
type Session struct {
	// TEIDOut is the downlink tunnel ID (hot, read).
	TEIDOut uint32
	// UsagePkts and UsageBytes are usage-reporting counters (hot,
	// written).
	UsagePkts, UsageBytes uint64
}

// sessionCounters is a session's Go record: the counters encap writes.
type sessionCounters struct {
	pkts, bytes uint64
}

// teidOf is session i's tunnel endpoint identifier, the downlink
// tunnel's outer TEID.
func teidOf(i int32) uint32 { return 0x10000 + uint32(i) }

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

// PDR is the packet-detection-rule (sub-flow) state the UPF keeps and
// PDRRecord reports: the rule's counters, a 16-byte record per rule,
// which apply writes. The simulated layout's precedence, FAR action and
// outer TEID have no Go twin: a session's port ranges are disjoint, so
// precedence never decides a match, every rule forwards, and no rule
// overrides its session's tunnel.
type PDR struct {
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
	cfg Config
	// bind is the one state binding every UPF module shares: sessions
	// are its per-flow pool, PDRs its sub-flow pool.
	bind     model.Binding
	tree     *dstruct.MDITree
	sessions []sessionCounters
	pdrs     []PDR
	// drops counts unmatched packets.
	drops uint64
}

// New builds and fully configures a UPF: session state, PDR state and
// the MDI tree for downlink matching.
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
		cfg: cfg,
		bind: model.Binding{
			PerFlow: sessPool, PerFlowLayout: sessLay,
			SubFlow: pdrPool, SubFlowLayout: pdrLay,
			Control: mem.Region{Name: cfg.Name + ".control", Base: as.Reserve(64, 0), Size: 64},
		},
		sessions: make([]sessionCounters, cfg.Sessions),
		pdrs:     make([]PDR, nPDR),
	}

	// Populate the MDI tree. PDRs are numbered i*PDRsPerSession + p,
	// which is UE IP order and then port order: the rule index the tree
	// implies for each range, so the tree adopts the ranges array as its
	// rule nodes.
	rules := make([]dstruct.SessionRules, cfg.Sessions)
	ranges := make([]dstruct.PortRange, nPDR)
	span := 65536 / cfg.PDRsPerSession
	// The TEID table's simulated region stays reserved before the tree,
	// though nothing reads it, so every downlink address stays where the
	// pinned figures and traces put it; its host buckets are never
	// allocated.
	if _, err := dstruct.NewCuckoo(as, cfg.Name+".teid", cfg.Sessions); err != nil {
		return nil, fmt.Errorf("upf: %w", err)
	}
	for i := 0; i < cfg.Sessions; i++ {
		rules[i] = dstruct.SessionRules{UEIP: cfg.UEIP(i), Session: int32(i), Rules: int32(cfg.PDRsPerSession)}
		for p := 0; p < cfg.PDRsPerSession; p++ {
			lo := p * span
			hi := lo + span - 1
			if p == cfg.PDRsPerSession-1 {
				hi = 65535
			}
			ranges[i*cfg.PDRsPerSession+p] = dstruct.PortRange{Lo: uint16(lo), Hi: uint16(hi)}
		}
	}
	u.tree, err = dstruct.NewMDITree(as, cfg.Name+".mdi", rules, ranges)
	if err != nil {
		return nil, fmt.Errorf("upf: %w", err)
	}
	return u, nil
}

// Tree exposes the MDI tree (for depth diagnostics in reports).
func (u *UPF) Tree() *dstruct.MDITree { return u.tree }

// Session returns session i's state.
func (u *UPF) Session(i int32) (Session, error) {
	if i < 0 || int(i) >= len(u.sessions) {
		return Session{}, fmt.Errorf("upf: session %d out of range", i)
	}
	c := &u.sessions[i]
	return Session{TEIDOut: teidOf(i), UsagePkts: c.pkts, UsageBytes: c.bytes}, nil
}

// PDRRecord returns a copy of PDR idx's record.
func (u *UPF) PDRRecord(idx int32) (PDR, error) {
	if idx < 0 || int(idx) >= len(u.pdrs) {
		return PDR{}, fmt.Errorf("upf: pdr %d out of range", idx)
	}
	return u.pdrs[idx], nil
}

// Drops returns the packets no PDR matched.
func (u *UPF) Drops() uint64 { return u.drops }

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

	tree := u.tree
	pdrs := u.pdrs
	sessions := u.sessions

	// Match module: granularly decomposed MDI walk.
	b.AddModule(mMatch, u.bind)
	b.AddState(mMatch, "walk_start", model.Action{
		Name:  "walk_start",
		Cost:  20,
		Reads: []model.FieldRef{nf.PacketHeaderSpan()},
		Fn: func(e *model.Exec) model.EventID {
			tree.Begin(&e.Cur, e.Pkt.Tuple.DstIP, e.Pkt.Tuple.SrcPort)
			return evMore
		},
	})
	b.AddState(mMatch, "walk", model.Action{
		Name:  "walk",
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

	// FAR module: apply the matched PDR's FAR. Every rule forwards, but
	// the read span keeps the verdict and outer TEID the FAR reads.
	b.AddModule(mFar, u.bind)
	b.AddState(mFar, "apply", model.Action{
		Name: "apply",
		Cost: 15,
		Reads: []model.FieldRef{
			model.Fields(model.BaseSubFlow, "far_action", "outer_teid"),
		},
		Writes: []model.FieldRef{model.Fields(model.BaseSubFlow, "pkts", "bytes")},
		Fn: func(e *model.Exec) model.EventID {
			p := &pdrs[e.SubIdx]
			p.Pkts++
			p.Bytes += uint64(e.Pkt.WireLen)
			return evFwd
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&pdrs[e.SubIdx]) },
	})
	b.AddTransition(mFar+".apply", nf.EvForward, mEncap+".encap")

	// Encap module: GTP-U encapsulation from session state.
	b.AddModule(mEncap, u.bind)
	b.AddState(mEncap, "encap", model.Action{
		Name: "encap",
		Cost: 70, // outer header construction + checksum
		Reads: []model.FieldRef{
			model.Fields(model.BasePerFlow, "teid_out", "ran_ip", "qfi"),
		},
		Writes: []model.FieldRef{
			// Outer Ethernet+IPv4+UDP+GTP-U headers prepended to the
			// frame.
			model.Raw(model.BasePacket, 0, pkt.EthLen+pkt.IPv4Len+pkt.UDPLen+pkt.GTPULen),
			model.Fields(model.BasePerFlow, "usage_pkts", "usage_bytes"),
		},
		Fn: func(e *model.Exec) model.EventID {
			s := &sessions[e.FlowIdx]
			teid := teidOf(e.FlowIdx)
			// Write the GTP-U header into the frame's tunnel header
			// slot; errors are impossible for generator frames.
			_ = pkt.EncodeGTPU(e.Pkt.Data[pkt.EthLen+pkt.IPv4Len+pkt.UDPLen:],
				pkt.GTPUHeader{MsgType: 0xFF, Length: uint16(e.Pkt.WireLen), TEID: teid})
			e.Pkt.TEID = teid
			e.Pkt.Tuple.DstIP = ranIP
			e.Pkt.WireLen += pkt.EthLen + pkt.IPv4Len + pkt.UDPLen + pkt.GTPULen
			s.pkts++
			s.bytes += uint64(e.Pkt.WireLen)
			return evFwd
		},
		Touch: func(e *model.Exec) { hostmem.Prefetch(&sessions[e.FlowIdx]) },
	})
	b.AddTransition(mEncap+".encap", nf.EvForward, next)

	return mMatch + ".walk_start"
}

// DownlinkProgram builds the standalone downlink program.
func (u *UPF) DownlinkProgram() (*model.Program, error) {
	b := model.NewBuilder(u.cfg.Name + "-downlink")
	entry := u.AttachDownlink(b, model.EndName)
	b.SetStart(entry)
	return b.Build()
}
