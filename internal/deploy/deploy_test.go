package deploy

import (
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/mem"
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
