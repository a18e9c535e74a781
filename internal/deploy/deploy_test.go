package deploy

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/nf/upf"
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
