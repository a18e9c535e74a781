package nf_test

import (
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/nf/fw"
	"github.com/gunfu-nfv/gunfu/internal/nf/lb"
	"github.com/gunfu-nfv/gunfu/internal/nf/monitor"
	"github.com/gunfu-nfv/gunfu/internal/nf/nat"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// The chain interface reaches every flow-table NF through the methods
// its embedded nf.FlowTable promotes.
var (
	_ compile.Chainable = (*nat.NAT)(nil)
	_ compile.Chainable = (*lb.LB)(nil)
	_ compile.Chainable = (*monitor.Monitor)(nil)
	_ compile.Chainable = (*fw.FW)(nil)
)

// firstPacketNF is what the first-packet test reads of an NF.
type firstPacketNF struct {
	program func() (*model.Program, error)
	drops   func() uint64
	// pkts returns the packet count of flow idx's record.
	pkts func(idx int32) (uint64, error)
}

// TestFirstPacketsInstallUntilTableFull offers an empty NF more flows
// than it has room for, round-robin, one lap per run (under rt a whole
// lap of first packets is in flight at once, but never two of one
// flow). Exactly MaxFlows flows install, at indices 0..MaxFlows-1, and
// see every later lap's packet; the rest are dropped in alloc on every
// lap — counted, no panic, no per-flow span resolved against an unbound
// index, and no classifier entry left behind for a later packet to hit.
func TestFirstPacketsInstallUntilTableFull(t *testing.T) {
	const maxFlows, offered, laps = 8, 12, 3
	nfs := []struct {
		name  string
		build func(as *mem.AddressSpace) (firstPacketNF, error)
	}{
		{"nat", func(as *mem.AddressSpace) (firstPacketNF, error) {
			n, err := nat.New(as, nat.Config{MaxFlows: maxFlows})
			if err != nil {
				return firstPacketNF{}, err
			}
			return firstPacketNF{n.Program, n.Drops, func(i int32) (uint64, error) { f, err := n.Flow(i); return f.Pkts, err }}, nil
		}},
		{"lb", func(as *mem.AddressSpace) (firstPacketNF, error) {
			l, err := lb.New(as, lb.Config{MaxFlows: maxFlows})
			if err != nil {
				return firstPacketNF{}, err
			}
			return firstPacketNF{l.Program, l.Drops, func(i int32) (uint64, error) { f, err := l.Flow(i); return f.Pkts, err }}, nil
		}},
		{"monitor", func(as *mem.AddressSpace) (firstPacketNF, error) {
			m, err := monitor.New(as, monitor.Config{MaxFlows: maxFlows})
			if err != nil {
				return firstPacketNF{}, err
			}
			return firstPacketNF{m.Program, m.Drops, func(i int32) (uint64, error) { f, err := m.Flow(i); return f.Pkts, err }}, nil
		}},
		{"fw", func(as *mem.AddressSpace) (firstPacketNF, error) {
			// The default policy allows everything, so Drops counts
			// table-full drops only.
			f, err := fw.New(as, fw.Config{MaxFlows: maxFlows})
			if err != nil {
				return firstPacketNF{}, err
			}
			return firstPacketNF{f.Program, f.Drops, func(i int32) (uint64, error) { fl, err := f.Flow(i); return fl.Pkts, err }}, nil
		}},
	}
	for _, tc := range nfs {
		for _, runtime := range []struct {
			name string
			cfg  rt.Config
		}{{"rtc", rt.RTCConfig()}, {"rt", rt.DefaultConfig()}} {
			t.Run(tc.name+"/"+runtime.name, func(t *testing.T) {
				as := mem.NewAddressSpace()
				nf, err := tc.build(as)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := nf.program()
				if err != nil {
					t.Fatal(err)
				}
				g, err := traffic.NewFlowGen(traffic.FlowGenConfig{Flows: offered, PacketBytes: 64, Order: traffic.OrderRoundRobin, Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				w := touchWorld{as: as, prog: prog, src: func(*testing.T) rt.Source { return g }, state: func() any { return nil }}
				for lap := 0; lap < laps; lap++ {
					runEquiv(t, w, offered, runtime.cfg)
				}
				if got, want := nf.drops(), uint64((offered-maxFlows)*laps); got != want {
					t.Fatalf("Drops = %d, want %d (%d flows without room, %d laps)", got, want, offered-maxFlows, laps)
				}
				for i := int32(0); i < maxFlows; i++ {
					if pkts, err := nf.pkts(i); err != nil || pkts != laps {
						t.Fatalf("record %d saw %d packets (err %v), want %d: not installed by its flow's first packet", i, pkts, err, laps)
					}
				}
			})
		}
	}
}

// TestAddFlowRefusesInstalledKey crafts two tuples whose classifier
// keys collide — FiveTuple.Hash XORs the ports into the source address
// before mixing, so 10.0.0.1:1024 and 6.0.0.1:2048 toward the same
// destination pre-mix to one value — and requires AddFlow to refuse the
// second at another index, naming both, instead of re-pointing flow
// 0's entry at record 1. Re-installing a key at its own index stays
// allowed.
func TestAddFlowRefusesInstalledKey(t *testing.T) {
	a := pkt.FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 1024, DstPort: 443, Proto: pkt.ProtoUDP}
	b := pkt.FiveTuple{SrcIP: 0x06000001, DstIP: 0xc0a80001, SrcPort: 2048, DstPort: 443, Proto: pkt.ProtoUDP}
	if a.Hash() != b.Hash() {
		t.Fatalf("%v and %v no longer share a key (%#x, %#x)", a, b, a.Hash(), b.Hash())
	}
	n, err := nat.New(mem.NewAddressSpace(), nat.Config{MaxFlows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddFlow(a, 0); err != nil {
		t.Fatal(err)
	}
	err = n.AddFlow(b, 1)
	if err == nil {
		t.Fatalf("AddFlow(%v, 1) accepted a key installed at flow 0", b)
	}
	if msg := err.Error(); !strings.Contains(msg, "flow index 1") || !strings.Contains(msg, "flow index 0") {
		t.Fatalf("error %q does not name both flow indexes", msg)
	}
	if f, err := n.Flow(1); err != nil || f != (nat.Flow{}) {
		t.Fatalf("refused AddFlow wrote record 1: %+v (err %v)", f, err)
	}
	if err := n.AddFlow(a, 0); err != nil {
		t.Fatalf("re-installing %v at its own index: %v", a, err)
	}
}
