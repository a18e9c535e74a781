// Quickstart: run a 64K-flow stateful NAT under both execution models
// and compare — the one-minute tour of what GuNFu is about.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	gunfu "github.com/gunfu-nfv/gunfu"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const flows = 65536
	const packets = 100000

	// build constructs a fresh NAT with its flow table pre-populated
	// and a matching uniform 64B workload.
	build := func() (*gunfu.Program, *gunfu.FlowGen, *gunfu.AddressSpace, error) {
		as := gunfu.NewAddressSpace()
		n, err := gunfu.NewNAT(as, gunfu.NATConfig{MaxFlows: flows})
		if err != nil {
			return nil, nil, nil, err
		}
		g, err := gunfu.NewFlowGen(gunfu.FlowGenConfig{
			Flows: flows, PacketBytes: 64, Order: gunfu.OrderUniform, Seed: 1,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < flows; i++ {
			if err := n.AddFlow(g.FlowTuple(i), int32(i)); err != nil {
				return nil, nil, nil, err
			}
		}
		prog, err := n.Program()
		return prog, g, as, err
	}

	// Baseline: per-packet run-to-completion, the execution model of
	// BESS/FastClick/L25GC.
	prog, g, as, err := build()
	if err != nil {
		return err
	}
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return err
	}
	rtcW, err := gunfu.NewRTCWorker(core, as, prog, gunfu.DefaultRTCConfig())
	if err != nil {
		return err
	}
	if _, err := rtcW.Run(g, packets/10); err != nil { // warm the caches
		return err
	}
	rtcRes, err := rtcW.Run(g, packets)
	if err != nil {
		return err
	}

	// GuNFu: 16 interleaved function streams with prefetching.
	prog, g, as, err = build()
	if err != nil {
		return err
	}
	core, err = gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return err
	}
	ilW, err := gunfu.NewWorker(core, as, prog, gunfu.DefaultWorkerConfig())
	if err != nil {
		return err
	}
	if _, err := ilW.Run(g, packets/10); err != nil {
		return err
	}
	ilRes, err := ilW.Run(g, packets)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "stateful NAT, %d concurrent flows, 64B packets, one simulated core\n\n", flows)
	fmt.Fprintf(w, "%-28s %8.2f Gbps  %6.2f Mpps  L1 hit %5.1f%%  IPC %.2f\n",
		"per-packet RTC (baseline):", rtcRes.Gbps(), rtcRes.Mpps(),
		100*rtcRes.Counters.L1HitRate(), rtcRes.Counters.IPC())
	fmt.Fprintf(w, "%-28s %8.2f Gbps  %6.2f Mpps  L1 hit %5.1f%%  IPC %.2f\n",
		"interleaved streams (GuNFu):", ilRes.Gbps(), ilRes.Mpps(),
		100*ilRes.Counters.L1HitRate(), ilRes.Counters.IPC())
	fmt.Fprintf(w, "\nspeedup: %.2fx\n", ilRes.Gbps()/rtcRes.Gbps())
	return nil
}
