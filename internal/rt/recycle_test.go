package rt_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// outFrame is what a run left of one packet.
type outFrame struct {
	data    []byte
	tuple   pkt.FiveTuple
	wireLen int
	teid    uint32
}

func frameOf(p *pkt.Packet) outFrame {
	return outFrame{data: slices.Clone(p.Data), tuple: p.Tuple, wireLen: p.WireLen, teid: p.TEID}
}

// snapshotSource passes src's packets to the worker and, as the worker
// hands each one back, snapshots the frame the program left before
// handing the packet on to src, so src reuses every packet while the
// frames are kept in generation order.
type snapshotSource struct {
	src    rt.Source
	back   rt.Recycler
	index  map[*pkt.Packet]int
	frames []outFrame
}

func (s *snapshotSource) Next() *pkt.Packet {
	p := s.src.Next()
	if p != nil {
		s.index[p] = len(s.frames)
		s.frames = append(s.frames, outFrame{})
	}
	return p
}

func (s *snapshotSource) Recycle(p *pkt.Packet) {
	s.frames[s.index[p]] = frameOf(p)
	s.back.Recycle(p)
}

// deployable builds nf's program and source through the deploy
// registry, over flows flows (sessions for the UPF) of 64-B packets.
func deployable(t *testing.T, nf string, flows int) (*mem.AddressSpace, *model.Program, rt.Source) {
	t.Helper()
	as := mem.NewAddressSpace()
	prog, src, err := deploy.DefaultRegistry()[nf](as, deploy.Spec{NF: nf, Flows: flows, PacketBytes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return as, prog, src
}

// TestHandBackFramesIdentical: a worker hands every packet back as its
// stream ends, and the generator reuses it, yet every frame the run
// leaves is byte for byte the frame of a run on private copies that
// hands nothing back, for the NAT, the UPF downlink and the SFC, under
// run-to-completion and 16- and 64-task interleaving.
func TestHandBackFramesIdentical(t *testing.T) {
	const flows, packets = 1024, 3000
	for _, nf := range []string{"nat", "upf-downlink", "sfc"} {
		for _, cfg := range []rt.Config{rt.RTCConfig(), rt.ConfigFor(16), rt.ConfigFor(64)} {
			t.Run(fmt.Sprintf("%s/tasks=%d", nf, cfg.Tasks), func(t *testing.T) {
				run := func(wrap func(rt.Source) rt.Source) {
					t.Helper()
					as, prog, src := deployable(t, nf, flows)
					core, err := sim.NewCore(sim.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					w, err := rt.NewWorker(core, as, prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := w.Run(wrap(src), packets)
					if err != nil {
						t.Fatal(err)
					}
					if res.Packets != packets {
						t.Fatalf("ran %d of %d packets", res.Packets, packets)
					}
				}
				var snap *snapshotSource
				run(func(src rt.Source) rt.Source {
					back, ok := src.(rt.Recycler)
					if !ok {
						t.Fatalf("%s's source %T takes no packets back", nf, src)
					}
					snap = &snapshotSource{src: src, back: back, index: map[*pkt.Packet]int{}}
					return snap
				})
				var copies *copySource
				run(func(src rt.Source) rt.Source {
					copies = &copySource{src: src}
					return copies
				})
				for i, want := range copies.pkts {
					got := snap.frames[i]
					if got.data == nil {
						t.Fatalf("packet %d was never handed back", i)
					}
					if !bytes.Equal(got.data, want.Data) || got.tuple != want.Tuple || got.wireLen != want.WireLen || got.teid != want.TEID {
						t.Fatalf("packet %d: handed back %v %d B teid %d\n%x\nwant %v %d B teid %d\n%x",
							i, got.tuple, got.wireLen, got.teid, got.data, want.Tuple, want.WireLen, want.TEID, want.Data)
					}
				}
			})
		}
	}
}

// TestHandBackSteadyStateZeroAlloc: once warm, a worker whose source
// takes its packets back allocates nothing, under run-to-completion and
// 64-task interleaving, on the NAT and on the UPF downlink over the
// IMIX-sized MGW source, which hands its packets on to the MGW
// generator.
func TestHandBackSteadyStateZeroAlloc(t *testing.T) {
	for _, cfg := range []rt.Config{rt.RTCConfig(), rt.ConfigFor(64)} {
		for _, nf := range []string{"nat", "upf-imix"} {
			t.Run(fmt.Sprintf("%s/tasks=%d", nf, cfg.Tasks), func(t *testing.T) {
				var as *mem.AddressSpace
				var prog *model.Program
				var src rt.Source
				if nf == "nat" {
					as, prog, src = deployable(t, nf, 4096)
				} else {
					as = mem.NewAddressSpace()
					var err error
					if prog, src, err = deploy.NewUPF(as, 256, 4, 0, 0, 0, 3); err != nil {
						t.Fatal(err)
					}
				}
				if _, ok := src.(rt.Recycler); !ok {
					t.Fatalf("%s's source %T takes no packets back", nf, src)
				}
				core, err := sim.NewCore(sim.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				w, err := rt.NewWorker(core, as, prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Run(src, 4096); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := w.Run(src, 1024); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("warm worker allocates %.1f per 1024-packet run, want 0", allocs)
				}
			})
		}
	}
}
