package deploy

import (
	"runtime"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/nf/upf"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

func TestBuildChainLengths(t *testing.T) {
	for length := 2; length <= 6; length++ {
		chain, err := NewChain(mem.NewAddressSpace(), length, 64, false)
		if err != nil {
			t.Fatalf("length %d: %v", length, err)
		}
		if len(chain) != length {
			t.Fatalf("length %d built %d NFs", length, len(chain))
		}
		names := make(map[string]bool)
		for _, c := range chain {
			if names[c.Name()] {
				t.Fatalf("duplicate NF name %q in chain of %d", c.Name(), length)
			}
			names[c.Name()] = true
		}
	}
	if _, err := NewChain(mem.NewAddressSpace(), 1, 64, false); err == nil {
		t.Fatal("length 1 accepted")
	}
	if _, err := NewChain(mem.NewAddressSpace(), 7, 64, false); err == nil {
		t.Fatal("length 7 accepted")
	}
}

// TestNewUPFShardSteering holds NewUPF's workload to its shard: at a
// fixed size and at size 0 (the CAIDA IMIX mix) every packet is
// addressed to the UE of a session in [base, base+count), and size 0
// emits only IMIX wire lengths, more than one of them.
func TestNewUPFShardSteering(t *testing.T) {
	const sessions, base, count = 256, 96, 32
	ue := upf.Config{}.UEIP
	for _, size := range []int{64, 0} {
		_, src, err := NewUPF(mem.NewAddressSpace(), sessions, 4, size, base, count, 7)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		lens := make(map[int]int)
		for i := 0; i < 2000; i++ {
			p := src.Next()
			if err := p.Parse(); err != nil {
				t.Fatalf("size %d: packet %d: %v", size, i, err)
			}
			if dst := p.Tuple.DstIP; dst < ue(base) || dst >= ue(base+count) {
				t.Fatalf("size %d: packet %d to %#x, outside shard UEs [%#x,%#x)",
					size, i, dst, ue(base), ue(base+count))
			}
			lens[p.WireLen]++
		}
		if size != 0 {
			if len(lens) != 1 || lens[size] == 0 {
				t.Fatalf("size %d: wire lengths %v", size, lens)
			}
			continue
		}
		for l := range lens {
			if l != 64 && l != 594 && l != 1518 {
				t.Fatalf("size 0: wire length %d is not an IMIX size (%v)", l, lens)
			}
		}
		if len(lens) < 2 {
			t.Fatalf("size 0: only wire lengths %v, want an IMIX mix", lens)
		}
	}
}

// TestSFCHostBytesPerFlow holds the six-NF chain's host footprint under
// redundant matching removal: at 16384 flows, NewChain, PopulateFlows
// and BuildSFC retain at most 184 bytes of Go heap per flow. That is
// the six records (LB 16, NAT 16, NM 24, three FWs 16 each), the head's
// cuckoo table at 50 % load (32) and the five downstream NFs' logged
// keys (8 each), with slack for the race detector. Only the head's
// classifier is read, so no other table is built.
func TestSFCHostBytesPerFlow(t *testing.T) {
	const flows, limit = 16384, 184.0
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: flows, PacketBytes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]pkt.FiveTuple, flows)
	for i := range tuples {
		tuples[i] = g.FlowTuple(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	chain, err := NewChain(mem.NewAddressSpace(), 6, flows, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := compile.PopulateFlows(chain, tuples); err != nil {
		t.Fatal(err)
	}
	prog, err := compile.BuildSFC("sfc6", chain, compile.SFCOptions{RemoveRedundantMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(chain)
	runtime.KeepAlive(prog)
	runtime.KeepAlive(tuples)
	got := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / flows
	t.Logf("%.1f B of Go heap per flow", got)
	if got > limit {
		t.Fatalf("the MR six-NF chain retains %.1f B per flow at %d flows, want <= %.0f", got, flows, limit)
	}
}
