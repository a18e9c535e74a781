// NF-C pipeline: the paper's §IV-B workflow end to end. The module
// specifications of Listings 1 and 2 (YAML), the NF composition of
// Listing 3, and the NF-C flow-mapper implementation of Listing 4 are
// compiled by the director compiler into a runnable NAT, configured,
// and executed under both execution models.
//
//	go run ./examples/nfc-pipeline
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/gunfu-nfv/gunfu/internal/compile"
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/nfc"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/spec"
	"github.com/gunfu-nfv/gunfu/internal/traffic"
)

// Listing 1 — flow classifier module specification.
const classifierSpec = `
name: flow_classifier
category: StatefulClassifier
parameters:
  - header_type
transitions:
  - Start,packet->get_key
  - get_key,get_key_done->hash_1
  - hash_1,hash_done->check_1
  - check_1,MATCH_SUCCESS->End
  - check_1,check_failure->hash_2
  - hash_2,sec_hash_done->check_2
  - check_2,MATCH_SUCCESS->End
  - check_2,MATCH_FAIL->End
fetch:
  check_1:
    - bucket # match state
  check_2:
    - bucket
`

// Listing 2 — flow mapper module specification.
const mapperSpec = `
name: flow_mapper
category: StatefulNF
transitions:
  - Start,MATCH_SUCCESS->flow_mapper
  - flow_mapper,packet->End
states:
  flow_mapper:
    - ip # mapped ip
    - port # mapped port
`

// Listing 3 — the NAT composition.
const natSpec = `
name: nat
chain:
  - flow_classifier
  - flow_mapper
`

// Listing 4 — the flow mapper implementation in NF-C.
const mapperImpl = `
// Implementation Using NF-C
NFAction(flow_mapper) {
  Packet.src_ip = PerFlowState.ip;
  Packet.src_port = PerFlowState.port;
  Emit(Event_Packet);
}
`

const (
	flows   = 32768
	packets = 60000
	natIP   = 0xC6336401 // 198.51.100.1
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nfc-pipeline: %v\n", err)
		os.Exit(1)
	}
}

func build() (*compile.SpecResult, *mem.AddressSpace, *traffic.FlowGen, error) {
	cls, err := spec.ParseModule(classifierSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	mapper, err := spec.ParseModule(mapperSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	nat, err := spec.ParseNF(natSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	as := mem.NewAddressSpace()
	res, err := compile.FromSpec(as, compile.SpecUnit{
		Modules:   map[string]*spec.Module{cls.Name: cls, mapper.Name: mapper},
		NF:        nat,
		NFCSource: mapperImpl,
		MaxFlows:  flows,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := traffic.NewFlowGen(traffic.FlowGenConfig{
		Flows: flows, PacketBytes: 64, Order: traffic.OrderUniform, Seed: 13,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// Operator configuration: register flows and their NAT mappings.
	store := res.Stores["flow_mapper"]
	for i := 0; i < flows; i++ {
		if err := res.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
			return nil, nil, nil, err
		}
		if err := store.Set(i, 0, natIP); err != nil { // ip
			return nil, nil, nil, err
		}
		if err := store.Set(i, 1, uint64(1024+i%60000)); err != nil { // port
			return nil, nil, nil, err
		}
	}
	return res, as, g, nil
}

// run builds the NAT from Listings 1–4, runs it under both execution
// models and writes the report to w.
func run(w io.Writer) error {
	// Show the visibility the compiler extracted from the NF-C source.
	actions, err := nfc.Parse(mapperImpl)
	if err != nil {
		return err
	}
	compiled, err := nfc.Compile(actions[0], nfc.Schema{nfc.RootPerFlow: {"ip", "port"}})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "NF-C action %q compiled:\n", compiled.Name)
	fmt.Fprintf(w, "  reads:  PerFlowState%v\n", compiled.Reads[nfc.RootPerFlow])
	fmt.Fprintf(w, "  writes: Packet%v\n", compiled.Writes[nfc.RootPacket])
	fmt.Fprintf(w, "  emits:  %v\n\n", compiled.Events)

	res, as, g, err := build()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "compiled program %q: %d control states, %d actions\n\n",
		res.Program.Name(), res.Program.NumCS(), res.Program.NumActions())

	// RTC baseline.
	core, err := sim.NewCore(sim.DefaultConfig())
	if err != nil {
		return err
	}
	rtcW, err := rt.NewWorker(core, as, res.Program, rt.RTCConfig())
	if err != nil {
		return err
	}
	if _, err := rtcW.Run(g, packets/10); err != nil {
		return err
	}
	base, err := rtcW.Run(g, packets)
	if err != nil {
		return err
	}

	// Interleaved — fresh state so the comparison is cold-for-cold.
	res, as, g, err = build()
	if err != nil {
		return err
	}
	core, err = sim.NewCore(sim.DefaultConfig())
	if err != nil {
		return err
	}
	ilW, err := rt.NewWorker(core, as, res.Program, rt.DefaultConfig())
	if err != nil {
		return err
	}
	if _, err := ilW.Run(g, packets/10); err != nil {
		return err
	}
	il, err := ilW.Run(g, packets)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "spec-compiled NAT, %d flows, 64B packets:\n", flows)
	fmt.Fprintf(w, "  %-24s %8.2f Gbps\n", "per-packet RTC:", base.Gbps())
	fmt.Fprintf(w, "  %-24s %8.2f Gbps  (%.2fx)\n", "interleaved x16:", il.Gbps(), il.Gbps()/base.Gbps())
	return nil
}
