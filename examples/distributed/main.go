// Distributed: the paper's §III control-plane architecture in one
// process. A director comes up, three runtime agents register with it
// over TCP, the director deploys the same NAT twice — once per
// execution model — to every agent in parallel, and the per-agent
// results come back over the wire.
//
// The same protocol drives the standalone binaries:
//
//	gunfu-director -agents 3 -nf nat &
//	gunfu-worker -name w1 & gunfu-worker -name w2 & gunfu-worker -name w3
//
// This example wires them in-process so it runs with one command:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/gunfu-nfv/gunfu/internal/deploy"
	"github.com/gunfu-nfv/gunfu/internal/director"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "distributed: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	d := director.New()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "director listening on %s\n", addr)

	var wg sync.WaitGroup
	for _, name := range []string{"edge-1", "edge-2", "edge-3"} {
		agent, err := director.NewAgent(name, deploy.DefaultRegistry())
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run returns once the director shuts the cluster down.
			if err := agent.Run(addr); err != nil {
				fmt.Fprintf(os.Stderr, "agent: %v\n", err)
			}
		}()
	}
	// Shut the cluster down (and only then reap the agents — Close is
	// what unblocks their Run loops).
	defer func() {
		_ = d.Close()
		wg.Wait()
	}()
	if err := d.WaitAgents(3, 10*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(w, "agents registered: %v\n\n", d.Agents())

	spec := deploy.Spec{
		NF:          "nat",
		Flows:       32768,
		Packets:     60000,
		Warmup:      6000,
		PacketBytes: 64,
		Seed:        5,
	}

	for _, cfg := range []struct {
		label string
		tasks int
	}{
		{"per-packet RTC", 0},
		{"interleaved x16", 16},
	} {
		spec.Tasks = cfg.tasks
		results, err := d.DeployAll(spec, 5*time.Minute)
		if err != nil {
			return err
		}
		var total float64
		fmt.Fprintf(w, "%s:\n", cfg.label)
		for _, r := range results {
			fmt.Fprintf(w, "  %-8s %8.2f Gbps  ipc=%.2f  l1=%5.1f%%\n",
				r.Agent, r.Gbps(), r.Counters.IPC(), 100*r.Counters.L1HitRate())
			total += r.Gbps()
		}
		fmt.Fprintf(w, "  aggregate: %.2f Gbps\n\n", total)
	}
	return nil
}
