// UPF downlink: the paper's headline network function. A 5G user
// plane with 32K PFCP sessions × 16 packet detection rules receives
// downlink traffic; every packet is matched through the MDI tree
// (UE IP → session, source port → PDR), has its FAR applied, and is
// GTP-U encapsulated toward the RAN. The example sweeps the
// interleaving depth to show where memory-level parallelism saturates.
//
//	go run ./examples/upf-downlink
package main

import (
	"fmt"
	"io"
	"os"

	gunfu "github.com/gunfu-nfv/gunfu"
)

const (
	sessions = 32768
	pdrs     = 16
	packets  = 100000
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "upf-downlink: %v\n", err)
		os.Exit(1)
	}
}

func build() (*gunfu.Program, *gunfu.MGWGen, *gunfu.AddressSpace, *gunfu.UPF, error) {
	as := gunfu.NewAddressSpace()
	u, err := gunfu.NewUPF(as, gunfu.UPFConfig{Sessions: sessions, PDRsPerSession: pdrs})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prog, err := u.DownlinkProgram()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, err := gunfu.NewMGWGen(gunfu.MGWConfig{
		Sessions: sessions, PDRs: pdrs, PacketBytes: 128, Seed: 7,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return prog, g, as, u, nil
}

func run(w io.Writer) error {
	prog, g, as, u, err := build()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "5G UPF downlink: %d sessions x %d PDRs (MDI tree depth %d), 128B packets\n\n",
		sessions, pdrs, u.Tree().Depth())

	// RTC baseline first.
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return err
	}
	rtcW, err := gunfu.NewRTCWorker(core, as, prog, gunfu.DefaultRTCConfig())
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
	fmt.Fprintf(w, "%-10s %8.2f Gbps  %7.1f cyc/pkt  L1 %5.1f%%\n",
		"RTC", base.Gbps(), base.CyclesPerPacket(), 100*base.Counters.L1HitRate())

	for _, tasks := range []int{1, 4, 16, 64} {
		prog, g, as, _, err := build()
		if err != nil {
			return err
		}
		core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
		if err != nil {
			return err
		}
		cfg := gunfu.DefaultWorkerConfig()
		cfg.Tasks = tasks
		ilW, err := gunfu.NewWorker(core, as, prog, cfg)
		if err != nil {
			return err
		}
		if _, err := ilW.Run(g, packets/10); err != nil {
			return err
		}
		res, err := ilW.Run(g, packets)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "IL-%-7d %8.2f Gbps  %7.1f cyc/pkt  L1 %5.1f%%  (%.2fx RTC)\n",
			tasks, res.Gbps(), res.CyclesPerPacket(),
			100*res.Counters.L1HitRate(), res.Gbps()/base.Gbps())
	}

	// Show the data plane is real: sessions carry usage counters.
	s, err := u.Session(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsession 0: TEID=%#x usage=%d pkts / %d bytes\n",
		s.TEIDOut, s.UsagePkts, s.UsageBytes)
	return nil
}
