// AMF registration: the state-complexity story. A 5G AMF holds a UE
// context of more than 20 cache lines; each NAS message of the initial
// registration call flow touches a different slice of it. The example
// runs the full call flow under both execution models and shows the
// extra gain from data-packing the UE context layout.
//
//	go run ./examples/amf-registration
package main

import (
	"fmt"
	"io"
	"os"

	gunfu "github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/nf/amf"
)

const (
	ues      = 1 << 15
	messages = 60000
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "amf-registration: %v\n", err)
		os.Exit(1)
	}
}

func build(layout *gunfu.Layout) (*gunfu.Program, *gunfu.AMFGen, *gunfu.AddressSpace, *gunfu.AMF, error) {
	as := gunfu.NewAddressSpace()
	a, err := gunfu.NewAMF(as, gunfu.AMFConfig{MaxUEs: ues, Layout: layout})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prog, err := a.Program()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, err := gunfu.NewAMFGen(gunfu.AMFTrafficConfig{UEs: ues, Seed: 11})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return prog, g, as, a, nil
}

func run(w io.Writer) error {
	prog, g, as, a, err := build(nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "5G AMF initial registration, %d UEs, UE context = %d cache lines\n\n",
		ues, a.ContextLines())

	// RTC baseline.
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return err
	}
	rtcW, err := gunfu.NewRTCWorker(core, as, prog, gunfu.DefaultRTCConfig())
	if err != nil {
		return err
	}
	if _, err := rtcW.Run(g, messages/10); err != nil {
		return err
	}
	base, err := rtcW.Run(g, messages)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %9.1f kmsg/s  LLC misses/msg %.2f\n",
		"RTC:", base.Mpps()*1000, llcPerMsg(base))

	// Interleaved.
	prog, g, as, _, err = build(nil)
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
	if _, err := ilW.Run(g, messages/10); err != nil {
		return err
	}
	il, err := ilW.Run(g, messages)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %9.1f kmsg/s  LLC misses/msg %.2f  (%.2fx)\n",
		"interleaved (16 streams):", il.Mpps()*1000, llcPerMsg(il), il.Mpps()/base.Mpps())

	// Interleaved + data-packed UE context: the compiler groups each
	// handler's co-accessed fields into adjacent cache lines.
	packed, err := gunfu.PackLayout(amf.Fields(), amf.AccessGroups())
	if err != nil {
		return err
	}
	prog, g, as, _, err = build(packed)
	if err != nil {
		return err
	}
	core, err = gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return err
	}
	ilW, err = gunfu.NewWorker(core, as, prog, gunfu.DefaultWorkerConfig())
	if err != nil {
		return err
	}
	if _, err := ilW.Run(g, messages/10); err != nil {
		return err
	}
	dp, err := ilW.Run(g, messages)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-34s %9.1f kmsg/s  LLC misses/msg %.2f  (+%.1f%% over interleaved)\n",
		"interleaved + data packing:", dp.Mpps()*1000, llcPerMsg(dp),
		100*(dp.Mpps()/il.Mpps()-1))
	return nil
}

func llcPerMsg(r gunfu.Result) float64 {
	_, _, llc := r.MissesPerPacket()
	return llc
}
