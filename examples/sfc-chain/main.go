// SFC chain: compose LB → NAT → NM → FW into one service function
// chain and walk the compiler-optimization ladder of the paper's §VI —
// interleaving, then redundant matching removal (fused data packing is
// the remaining rung of gunfu-bench -exp fig13).
//
//	go run ./examples/sfc-chain
package main

import (
	"fmt"
	"io"
	"os"

	gunfu "github.com/gunfu-nfv/gunfu"
)

const (
	flows   = 65536
	packets = 80000
	length  = 4
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "sfc-chain: %v\n", err)
		os.Exit(1)
	}
}

// setup builds a populated chain and compiles it with opts.
func setup(opts gunfu.SFCOptions) (*gunfu.Program, *gunfu.FlowGen, *gunfu.AddressSpace, error) {
	as := gunfu.NewAddressSpace()
	chain, err := gunfu.BuildChain(as, length, flows)
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := gunfu.NewFlowGen(gunfu.FlowGenConfig{
		Flows: flows, PacketBytes: 64, Order: gunfu.OrderUniform, Seed: 3,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tuples := make([]gunfu.FiveTuple, flows)
	for i := range tuples {
		tuples[i] = g.FlowTuple(i)
	}
	if err := gunfu.PopulateFlows(chain, tuples); err != nil {
		return nil, nil, nil, err
	}
	prog, err := gunfu.BuildSFC("sfc", chain, opts)
	return prog, g, as, err
}

func measure(prog *gunfu.Program, g *gunfu.FlowGen, as *gunfu.AddressSpace, tasks int) (gunfu.Result, error) {
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return gunfu.Result{}, err
	}
	if tasks == 0 {
		w, err := gunfu.NewRTCWorker(core, as, prog, gunfu.DefaultRTCConfig())
		if err != nil {
			return gunfu.Result{}, err
		}
		if _, err := w.Run(g, packets/10); err != nil {
			return gunfu.Result{}, err
		}
		return w.Run(g, packets)
	}
	cfg := gunfu.DefaultWorkerConfig()
	cfg.Tasks = tasks
	w, err := gunfu.NewWorker(core, as, prog, cfg)
	if err != nil {
		return gunfu.Result{}, err
	}
	if _, err := w.Run(g, packets/10); err != nil {
		return gunfu.Result{}, err
	}
	return w.Run(g, packets)
}

func run(w io.Writer) error {
	fmt.Fprintf(w, "service function chain LB->NAT->NM->FW, %d flows, 64B packets, one core\n\n", flows)

	steps := []struct {
		name  string
		opts  gunfu.SFCOptions
		tasks int
	}{
		{"RTC baseline", gunfu.SFCOptions{}, 0},
		{"interleaved (16 streams)", gunfu.SFCOptions{}, 16},
		{"+ redundant matching removal", gunfu.SFCOptions{RemoveRedundantMatching: true}, 16},
	}

	var base float64
	for i, s := range steps {
		prog, g, as, err := setup(s.opts)
		if err != nil {
			return err
		}
		res, err := measure(prog, g, as, s.tasks)
		if err != nil {
			return err
		}
		if i == 0 {
			base = res.Gbps()
		}
		fmt.Fprintf(w, "%-32s %8.2f Gbps  IPC %.2f  (%.2fx)\n",
			s.name, res.Gbps(), res.Counters.IPC(), res.Gbps()/base)
	}
	fmt.Fprintln(w, "\n(run gunfu-bench -exp fig13 for the full ladder incl. fused data packing)")
	return nil
}
