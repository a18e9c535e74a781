package rt_test

// Interleaved ≡ run-to-completion over randomized programs: rt.Worker
// must produce the same packet-level results under an interleaved
// Config as under RTCConfig — every
// packet processed exactly once, every action executed with the same
// Exec state, the same declared accesses charged — while only the
// schedule-dependent quantities (task switches, stall cycles, prefetch
// issues) may move. This is the per-flow correctness condition of
// Khalid & Akella (PAPERS.md) applied to this runtime. The harness
// generates randomized programs in the style of internal/model's
// differential corpus, runs the same packet sequence through two
// identically-seeded worlds (one worker each), and asserts:
//
//   - packet counts, wire bits, and demand read/write counters match;
//   - per-packet action-visit signatures (recorded by the actions
//     themselves, keyed by a packet id carried in the payload) match;
//   - instruction counters reconcile exactly once the interleaved
//     side's documented extras — prefetch attempts and task-switch
//     overhead — are removed;
//   - the interleaved side actually interleaved (it issued prefetches
//     and switched tasks), with Prefetch and ResidentCheck on and off.

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

const (
	// schedPrograms randomized programs, schedPackets packets each.
	schedPrograms = 64
	schedPackets  = 96
)

// schedRec accumulates one world's action-visit signatures: packet id →
// rolling hash over (state, visit count, flow) at every action run.
// Schedule-invariant by construction, so the interleaved and RTC maps
// must be equal.
type schedRec struct {
	m map[uint64]uint64
}

func (r *schedRec) add(id, v uint64) {
	r.m[id] = r.m[id]*1099511628211 ^ v
}

// schedSpan draws a declared span for one base kind (the model corpus
// idiom: sized to stay inside the base's storage, sometimes straddling
// line boundaries).
func schedSpan(rng *rand.Rand, base model.BaseKind, limit uint64) model.FieldRef {
	off := uint64(rng.Intn(int(limit)))
	max := limit - off
	if max > 96 {
		max = 96
	}
	size := 1 + uint64(rng.Intn(int(max)))
	return model.FieldRef{Explicit: &model.Span{Base: base, Off: off, Size: size}}
}

// buildSchedWorld generates one random program over a fresh address
// space, recording action visits into rec. Determinism contract: every
// action depends only on Exec state and the packet payload, never on
// visit timing, so both runtimes replay identical per-packet
// results. The start state carries no per-flow, sub-flow or dynamic
// spans (its action establishes FlowIdx/SubIdx/Cur.Addr from the packet
// id before any later state resolves those bases), and the visit budget
// lives in Exec.Key and the packet id in a cursor word, both of which
// ResetStream clears per packet (Temp persists across packets in a
// reused task slot and would leak schedule state).
// The per-flow pool is sized past L1 so the corpus actually misses and
// switches away instead of running fully resident.
func buildSchedWorld(t *testing.T, rng *rand.Rand, rec *schedRec) (*mem.AddressSpace, *model.Program) {
	t.Helper()
	as := mem.NewAddressSpace()
	if rng.Intn(2) == 0 {
		as.Reserve(uint64(8+rng.Intn(48)), 8)
	}
	entrySizes := []uint64{96, 128, 256}
	perFlow, err := mem.NewPool(as, "pf", entrySizes[rng.Intn(len(entrySizes))], 1024)
	if err != nil {
		t.Fatal(err)
	}
	var subFlow *mem.Pool
	if rng.Intn(4) != 0 {
		subSizes := []uint64{48, 64, 128}
		subFlow, err = mem.NewPool(as, "sf", subSizes[rng.Intn(len(subSizes))], 256)
		if err != nil {
			t.Fatal(err)
		}
	}
	control := mem.Region{Name: "ctl", Base: as.Reserve(512, uint64(8<<rng.Intn(4))), Size: 512}
	dynSize := uint64(1 << 16)
	dynBase := as.Reserve(dynSize, 64)

	type baseLim struct {
		kind  model.BaseKind
		limit uint64
	}
	// startBases resolve without a match result; later states may touch
	// everything.
	startBases := []baseLim{
		{model.BasePacket, 64},
		{model.BaseControl, control.Size},
	}
	allBases := append([]baseLim{
		{model.BasePerFlow, perFlow.EntrySize()},
		{model.BaseDynamic, 256},
	}, startBases...)
	if subFlow != nil {
		allBases = append(allBases, baseLim{model.BaseSubFlow, subFlow.EntrySize()})
	}
	randRefs := func(bases []baseLim, n int) []model.FieldRef {
		refs := make([]model.FieldRef, 0, n)
		for i := 0; i < rng.Intn(n+1); i++ {
			b := bases[rng.Intn(len(bases))]
			refs = append(refs, schedSpan(rng, b.kind, b.limit))
		}
		return refs
	}

	flows := uint64(perFlow.Count())
	subs := uint64(1)
	if subFlow != nil {
		subs = uint64(subFlow.Count())
	}
	hasSub := subFlow != nil

	b := model.NewBuilder("sched")
	b.AddModule("m", model.Binding{PerFlow: perFlow, SubFlow: subFlow, Control: control})
	e0 := b.Event("e0")
	e1 := b.Event("e1")
	nStates := 2 + rng.Intn(5)
	for i := 0; i < nStates; i++ {
		stateIdx := uint64(i)
		start := i == 0
		bases := allBases
		if start {
			bases = startBases
		}
		b.AddState("m", schedStateName(i), model.Action{
			Name:   "a" + schedStateName(i),
			Cost:   uint64(rng.Intn(60)),
			Reads:  randRefs(bases, 3),
			Writes: randRefs(bases, 2),
			Fn: func(e *model.Exec) model.EventID {
				if start {
					// Establish the stream identity from the payload
					// (idempotent: e0 may loop back here) in a cursor word
					// ResetStream clears.
					id := binary.LittleEndian.Uint64(e.Pkt.Data)
					e.Cur.Aux[3] = id
					e.FlowIdx = int32(id % flows)
					if hasSub {
						e.SubIdx = int32(id % subs)
					}
				}
				e.Key++
				id := e.Cur.Aux[3]
				rec.add(id, stateIdx*131^e.Key*17^uint64(e.FlowIdx)*29)
				e.Cur.Addr = dynBase + (e.Key*2654435761+id*97+stateIdx*131)%(dynSize-512)
				h := e.Key*0x9e3779b9 + id*31 + stateIdx*7
				if e.Key <= 32 && h%4 == 0 {
					return e0
				}
				return e1
			},
		})
	}
	for i := 0; i < nStates; i++ {
		next := model.EndName
		if i+1 < nStates {
			next = "m." + schedStateName(i+1)
		}
		b.AddTransition("m."+schedStateName(i), "e1", next)
		b.AddTransition("m."+schedStateName(i), "e0", "m."+schedStateName(rng.Intn(nStates)))
	}
	b.SetStart("m." + schedStateName(0))
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return as, prog
}

func schedStateName(i int) string {
	return string(rune('A' + i))
}

// schedSource feeds a fixed packet list.
type schedSource struct {
	pkts []*pkt.Packet
	i    int
}

func (s *schedSource) Next() *pkt.Packet {
	if s.i >= len(s.pkts) {
		return nil
	}
	p := s.pkts[s.i]
	s.i++
	return p
}

func schedPacketList(n int) []*pkt.Packet {
	pkts := make([]*pkt.Packet, n)
	for i := range pkts {
		data := make([]byte, 64)
		binary.LittleEndian.PutUint64(data, uint64(i)*2654435761+7)
		pkts[i] = &pkt.Packet{Data: data}
	}
	return pkts
}

// runSched replays one seeded world through a worker under cfg. The
// world (address space, program, and therefore every state address) is
// rebuilt from the seed so both sides resolve identical layouts.
func runSched(t *testing.T, seed int64, cfg rt.Config) (rt.Result, map[uint64]uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rec := &schedRec{m: make(map[uint64]uint64)}
	as, prog := buildSchedWorld(t, rng, rec)
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := rt.NewWorker(core, as, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(&schedSource{pkts: schedPacketList(schedPackets)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.m
}

// TestInterleavedEqualsRunToCompletion holds interleaved configs to
// RTCConfig over the randomized corpus, across the P-stage ablation
// ladder.
func TestInterleavedEqualsRunToCompletion(t *testing.T) {
	simCfg := sim.DefaultConfig()
	switchInsts := simCfg.SwitchCost * simCfg.IssueWidth / 2
	// recon strips the schedule-dependent instruction charges: one
	// instruction per prefetch attempt (issued, dropped or redundant)
	// and switchInsts per task switch. What remains — demand line
	// touches, action costs, rx costs — is schedule-invariant.
	recon := func(r rt.Result) uint64 {
		c := r.Counters
		return c.Instructions -
			(c.PrefetchIssued + c.PrefetchDropped + c.PrefetchRedundant) -
			c.TaskSwitches*switchInsts
	}

	rtcCfg := rt.RTCConfig()
	rtcCfg.Batch, rtcCfg.RingSlots = 16, 64
	for _, mode := range []struct {
		name                    string
		prefetch, residentCheck bool
	}{
		{"full", true, true},
		{"no-resident-check", true, false},
		{"no-prefetch", false, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := rt.Config{
				Tasks: 8, Batch: 16, RingSlots: 64, SlotBytes: 2048, RxCost: 30,
				Prefetch: mode.prefetch, ResidentCheck: mode.residentCheck,
			}
			var issued, switches uint64
			for i := 0; i < schedPrograms; i++ {
				seed := int64(1000 + i)
				want, wantRec := runSched(t, seed, rtcCfg)
				got, gotRec := runSched(t, seed, cfg)

				if want.Packets != schedPackets || got.Packets != schedPackets {
					t.Fatalf("seed %d: packets rtc=%d rt=%d, want %d", seed, want.Packets, got.Packets, schedPackets)
				}
				if want.Bits != got.Bits {
					t.Fatalf("seed %d: bits rtc=%v rt=%v", seed, want.Bits, got.Bits)
				}
				if want.Counters.Reads != got.Counters.Reads || want.Counters.Writes != got.Counters.Writes {
					t.Fatalf("seed %d: demand counters diverged: rtc r=%d w=%d, rt r=%d w=%d",
						seed, want.Counters.Reads, want.Counters.Writes, got.Counters.Reads, got.Counters.Writes)
				}
				if len(wantRec) != len(gotRec) {
					t.Fatalf("seed %d: recorded %d packets under rtc, %d under rt", seed, len(wantRec), len(gotRec))
				}
				for id, sig := range wantRec {
					if gotRec[id] != sig {
						t.Fatalf("seed %d: packet %#x visit signature diverged: rtc %#x rt %#x",
							seed, id, sig, gotRec[id])
					}
				}
				if w, g := recon(want), recon(got); w != g {
					t.Fatalf("seed %d: instruction reconciliation failed: rtc %d rt %d (raw rtc=%+v rt=%+v)",
						seed, w, g, want.Counters, got.Counters)
				}
				if c := want.Counters; c.TaskSwitches != 0 || c.PrefetchIssued != 0 {
					t.Fatalf("seed %d: rtc switched or prefetched: %+v", seed, c)
				}
				issued += got.Counters.PrefetchIssued
				switches += got.Counters.TaskSwitches
			}
			if switches == 0 {
				t.Fatal("corpus never switched tasks: nothing was interleaved")
			}
			if (issued != 0) != mode.prefetch {
				t.Fatalf("prefetches issued = %d with Prefetch=%v", issued, mode.prefetch)
			}
		})
	}
}
