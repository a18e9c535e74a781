package upf

import (
	"runtime"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

func newUPF(t *testing.T, cfg Config) *UPF {
	t.Helper()
	u, err := New(mem.NewAddressSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewValidation(t *testing.T) {
	if _, err := New(mem.NewAddressSpace(), Config{Sessions: 0, PDRsPerSession: 4}); err == nil {
		t.Fatal("zero sessions accepted")
	}
	if _, err := New(mem.NewAddressSpace(), Config{Sessions: 4, PDRsPerSession: 0}); err == nil {
		t.Fatal("zero PDRs accepted")
	}
}

func TestProgramsBuild(t *testing.T) {
	u := newUPF(t, Config{Sessions: 32, PDRsPerSession: 4})
	if _, err := u.DownlinkProgram(); err != nil {
		t.Fatal(err)
	}
	if u.Tree().Sessions() != 32 {
		t.Fatalf("tree sessions = %d", u.Tree().Sessions())
	}
}

// TestTreeIndexesArePDRs: the rule index the MDI tree implies for a
// match (the session's first rule plus the range's rank by port) is the
// UPF's own PDR numbering, session i's p-th rule at i*PDRsPerSession+p,
// and the downlink counts a packet of that rule's port range on that
// PDR's record.
func TestTreeIndexesArePDRs(t *testing.T) {
	const sessions, pdrs = 37, 5
	u := newUPF(t, Config{Sessions: sessions, PDRsPerSession: pdrs})
	span := 65536 / pdrs
	var pkts []*pkt.Packet
	for i := 0; i < sessions; i++ {
		for p := 0; p < pdrs; p++ {
			port := uint16(p*span + span/2)
			s, idx, ok := u.Tree().Lookup(u.cfg.UEIP(i), port)
			if !ok || s != int32(i) || idx != int32(i*pdrs+p) {
				t.Fatalf("session %d rule %d: Lookup = %d,%d,%v, want %d,%d,true", i, p, s, idx, ok, i, i*pdrs+p)
			}
			pkts = append(pkts, &pkt.Packet{Data: make([]byte, 128), WireLen: 128,
				Tuple: pkt.FiveTuple{DstIP: u.cfg.UEIP(i), SrcPort: port, Proto: pkt.ProtoUDP}})
		}
	}
	prog, err := u.DownlinkProgram()
	if err != nil {
		t.Fatal(err)
	}
	runRTC(t, prog, &listSource{pkts: pkts}, 0)
	for idx := int32(0); idx < sessions*pdrs; idx++ {
		rec, err := u.PDRRecord(idx)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Pkts != 1 {
			t.Fatalf("PDR %d counted %d packets, want 1", idx, rec.Pkts)
		}
	}
}

// listSource emits pkts once, in order.
type listSource struct {
	pkts []*pkt.Packet
}

func (s *listSource) Next() *pkt.Packet {
	if len(s.pkts) == 0 {
		return nil
	}
	p := s.pkts[0]
	s.pkts = s.pkts[1:]
	return p
}

func runRTC(t *testing.T, prog *model.Program, src rt.Source, n uint64) rt.Result {
	t.Helper()
	return runWith(t, prog, src, n, rt.RTCConfig())
}

func runWith(t *testing.T, prog *model.Program, src rt.Source, n uint64, cfg rt.Config) rt.Result {
	t.Helper()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(src, n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPDRCountsBytes: a rule's counters add each packet's WireLen as
// it arrives, before encapsulation grows it, under run-to-completion
// and interleaved alike.
func TestPDRCountsBytes(t *testing.T) {
	const n, wireLen = 100, 200
	for _, tc := range []struct {
		name string
		cfg  rt.Config
	}{{"rtc", rt.RTCConfig()}, {"il16", rt.ConfigFor(16)}} {
		t.Run(tc.name, func(t *testing.T) {
			u := newUPF(t, Config{Sessions: 4, PDRsPerSession: 2})
			prog, err := u.DownlinkProgram()
			if err != nil {
				t.Fatal(err)
			}
			// Session 2's second rule, PDR 2*2+1, covers ports [32768, 65536).
			const pdr = 2*2 + 1
			pkts := make([]*pkt.Packet, n)
			for i := range pkts {
				pkts[i] = &pkt.Packet{Data: make([]byte, wireLen), WireLen: wireLen,
					Tuple: pkt.FiveTuple{DstIP: u.cfg.UEIP(2), SrcPort: 40000, Proto: pkt.ProtoUDP}}
			}
			if res := runWith(t, prog, &listSource{pkts: pkts}, 0, tc.cfg); res.Packets != n {
				t.Fatalf("processed %d packets, want %d", res.Packets, n)
			}
			rec, err := u.PDRRecord(pdr)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Pkts != n || rec.Bytes != n*wireLen {
				t.Fatalf("PDR %d counted %d packets, %d bytes; want %d, %d", pdr, rec.Pkts, rec.Bytes, n, n*wireLen)
			}
		})
	}
}

func TestDownlinkEncapsulates(t *testing.T) {
	u := newUPF(t, Config{Sessions: 16, PDRsPerSession: 4})
	prog, err := u.DownlinkProgram()
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewMGWGen(traffic.MGWConfig{Sessions: 16, PDRs: 4, PacketBytes: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := runRTC(t, prog, g, 500)
	if res.Packets != 500 {
		t.Fatalf("processed %d packets", res.Packets)
	}
	if u.Drops() != 0 {
		t.Fatalf("dropped %d packets with all-forward FARs", u.Drops())
	}
	var total uint64
	for i := int32(0); i < 16; i++ {
		s, err := u.Session(i)
		if err != nil {
			t.Fatal(err)
		}
		total += s.UsagePkts
	}
	if total != 500 {
		t.Fatalf("session usage sums to %d, want 500", total)
	}
	var pdrTotal uint64
	for i := int32(0); i < 64; i++ {
		p, err := u.PDRRecord(i)
		if err != nil {
			t.Fatal(err)
		}
		pdrTotal += p.Pkts
	}
	if pdrTotal != 500 {
		t.Fatalf("PDR counters sum to %d, want 500", pdrTotal)
	}
}

func TestDownlinkPacketGetsTEID(t *testing.T) {
	u := newUPF(t, Config{Sessions: 4, PDRsPerSession: 2})
	prog, err := u.DownlinkProgram()
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewMGWGen(traffic.MGWConfig{Sessions: 4, PDRs: 2, PacketBytes: 128, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Next()
	sessIdx := int32(p.Tuple.DstIP - 0x0a000000)
	runRTC(t, prog, &listSource{pkts: []*pkt.Packet{p}}, 0)
	want, err := u.Session(sessIdx)
	if err != nil {
		t.Fatal(err)
	}
	if p.TEID != want.TEIDOut {
		t.Fatalf("packet TEID = %#x, want %#x", p.TEID, want.TEIDOut)
	}
	if p.WireLen != 128+pkt.EthLen+pkt.IPv4Len+pkt.UDPLen+pkt.GTPULen {
		t.Fatalf("WireLen after encap = %d", p.WireLen)
	}
	// The GTP-U header must be on the wire.
	h, err := pkt.DecodeGTPU(p.Data[pkt.EthLen+pkt.IPv4Len+pkt.UDPLen:])
	if err != nil {
		t.Fatal(err)
	}
	if h.TEID != want.TEIDOut || h.MsgType != 0xFF {
		t.Fatalf("wire GTP-U header = %+v", h)
	}
}

func TestUnknownUEDropped(t *testing.T) {
	u := newUPF(t, Config{Sessions: 4, PDRsPerSession: 2})
	prog, err := u.DownlinkProgram()
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: 1, PacketBytes: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Next() // dst IP is not a UE address
	runRTC(t, prog, &listSource{pkts: []*pkt.Packet{p}}, 0)
	if u.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", u.Drops())
	}
}

func TestSessionAndPDRBounds(t *testing.T) {
	u := newUPF(t, Config{Sessions: 2, PDRsPerSession: 2})
	if _, err := u.Session(2); err == nil {
		t.Fatal("out-of-range session read accepted")
	}
	if _, err := u.PDRRecord(4); err == nil {
		t.Fatal("out-of-range PDR read accepted")
	}
}

// TestExecutionModelsAgree verifies both runtimes produce identical UPF
// accounting on the same workload.
func TestExecutionModelsAgree(t *testing.T) {
	const sessions, packets = 64, 3000
	build := func() (*UPF, *model.Program, *traffic.MGWGen) {
		u := newUPF(t, Config{Sessions: sessions, PDRsPerSession: 8})
		prog, err := u.DownlinkProgram()
		if err != nil {
			t.Fatal(err)
		}
		g, err := traffic.NewMGWGen(traffic.MGWConfig{Sessions: sessions, PDRs: 8, PacketBytes: 64, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return u, prog, g
	}

	u1, p1, g1 := build()
	runRTC(t, p1, g1, packets)

	u2, p2, g2 := build()
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.NewWorker(core, mem.NewAddressSpace(), p2, rt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(g2, packets); err != nil {
		t.Fatal(err)
	}

	for i := int32(0); i < sessions; i++ {
		s1, _ := u1.Session(i)
		s2, _ := u2.Session(i)
		if s1.UsagePkts != s2.UsagePkts || s1.UsageBytes != s2.UsageBytes {
			t.Fatalf("session %d diverged: rtc{%d,%d} il{%d,%d}",
				i, s1.UsagePkts, s1.UsageBytes, s2.UsagePkts, s2.UsageBytes)
		}
	}
}

// TestUPFHostBytesPerPDR holds the UPF's host footprint: 4096 sessions
// of 16 PDRs must retain at most 23 bytes of Go heap per PDR — a
// 16-byte counter record and a 4-byte rule node, plus each session's
// share of its 16-byte counter record and its tree node; the TEID
// table's host buckets are never allocated — and allocate at most 24 while
// New runs, which leaves room for the per-session headers the tree is
// built from and no copy of the rules.
// The match state is what bounds the session populations a figure
// sweep can build.
func TestUPFHostBytesPerPDR(t *testing.T) {
	const sessions, pdrs, retainLimit, allocLimit = 4096, 16, 23.0, 24.0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	u := newUPF(t, Config{Sessions: sessions, PDRsPerSession: pdrs})
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(u)
	retained := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (sessions * pdrs)
	perPDR := float64(allocated) / (sessions * pdrs)
	t.Logf("%.1f B of Go heap per PDR retained, %.1f B allocated", retained, perPDR)
	if retained > retainLimit {
		t.Errorf("New retains %.1f B per PDR at %d sessions x %d PDRs, want <= %.0f", retained, sessions, pdrs, retainLimit)
	}
	if perPDR > allocLimit {
		t.Errorf("New allocates %.1f B per PDR at %d sessions x %d PDRs, want <= %.0f", perPDR, sessions, pdrs, allocLimit)
	}
}

// TestPopulationFitsInt32 checks that a population whose PDR and tree
// indices would overflow int32 is refused before anything is
// allocated, naming both fields.
func TestPopulationFitsInt32(t *testing.T) {
	_, err := New(mem.NewAddressSpace(), Config{Sessions: 1 << 15, PDRsPerSession: 1 << 16})
	if err == nil {
		t.Fatal("2^31 PDRs accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "Sessions") || !strings.Contains(msg, "PDRsPerSession") {
		t.Fatalf("error %q does not name Sessions and PDRsPerSession", msg)
	}
}
