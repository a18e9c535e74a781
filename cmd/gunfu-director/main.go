// Command gunfu-director runs the GuNFu control plane: it accepts
// runtime-agent connections (see gunfu-worker), deploys a network
// function to every agent, and prints the per-agent and aggregate
// results.
//
// Usage:
//
//	gunfu-director -listen 127.0.0.1:7700 -agents 4 \
//	    -nf sfc -sfc-length 6 -flows 32768 -packets 200000 -tasks 16
//
// With -stats-every the agents stream windowed telemetry heartbeats
// while they run. One director.Monitor folds them per agent; its table
// renders after every heartbeat (-live redraws it in place with ANSI,
// otherwise each refresh appends below the last), and with -latency the
// closing summary quotes its cluster-wide latency quantiles.
//
// The -slo-* flags set the monitor's per-window SLO. When an agent's
// window breaches it (too much stall, too little throughput, too high a
// p99 — the latter needs -latency), the monitor flips that agent
// unhealthy and the director asks it for a flight-recorder dump: the
// worker writes the moments before the breach as a Perfetto-loadable
// trace and reports the file path back.
//
// Robustness controls: -deploy-retries resends a timed-out deploy
// (agents dedupe replays by sequence ID, so a retry never re-runs a
// deployment), -liveness-window/-liveness-missed flag agents that go
// silent, and -chaos wraps every agent connection in the deterministic
// faultnet injector — the interactive way to watch reconnect, retry,
// and liveness ride out connection resets (workers should run with
// -reconnect; see `make chaos-demo`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gunfu-nfv/gunfu/internal/director"
	"github.com/gunfu-nfv/gunfu/internal/faultnet"
)

func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:7700", "address to accept agents on")
	agents := flag.Int("agents", 1, "number of agents to wait for")
	nf := flag.String("nf", "nat", "deployable NF: nat, upf-downlink, sfc")
	flows := flag.Int("flows", 65536, "flow/session population per agent")
	packets := flag.Uint64("packets", 100000, "measured packets per agent")
	warmup := flag.Uint64("warmup", 10000, "warmup packets per agent")
	packetBytes := flag.Int("packet-bytes", 64, "workload packet size")
	tasks := flag.Int("tasks", 16, "interleaved NFTasks (0 = RTC baseline)")
	sfcLength := flag.Int("sfc-length", 4, "chain length for -nf sfc")
	pdrs := flag.Int("pdrs", 16, "PDRs per session for -nf upf-downlink")
	seed := flag.Int64("seed", 42, "workload seed")
	wait := flag.Duration("wait", 30*time.Second, "agent registration timeout")
	deployTO := flag.Duration("deploy-timeout", 10*time.Minute, "per-deployment timeout")
	statsEvery := flag.Uint64("stats-every", 0, "stream a telemetry heartbeat every N packets (0 = off)")
	live := flag.Bool("live", false, "redraw the telemetry table in place (implies -stats-every)")
	latency := flag.Bool("latency", false, "collect rx→done latency histograms with each heartbeat (implies -stats-every)")
	sloMaxStall := flag.Float64("slo-max-stall", 0, "SLO: max tolerable per-window stall fraction (0 = unchecked)")
	sloMinMpps := flag.Float64("slo-min-mpps", 0, "SLO: min tolerable per-window throughput in Mpps (0 = unchecked)")
	sloMaxP99 := flag.Uint64("slo-max-p99-cycles", 0, "SLO: max tolerable per-window p99 rx→done latency in cycles, needs -latency (0 = unchecked)")
	retries := flag.Int("deploy-retries", 0, "times a timed-out deploy is resent before giving up (agents dedupe replays)")
	livenessWindow := flag.Duration("liveness-window", 0, "heartbeat liveness window; an agent silent for -liveness-missed windows is flagged dead (0 = off)")
	livenessMissed := flag.Int("liveness-missed", 3, "windows without a message before an agent is flagged dead")
	chaos := flag.Bool("chaos", false, "inject deterministic faults on every agent connection (mid-frame resets, shredded writes) to drill reconnect and retry")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault script seed for -chaos; same seed, same faults")
	flag.Parse()

	slo := director.SLO{
		MaxStallFraction:    *sloMaxStall,
		MinMpps:             *sloMinMpps,
		MaxP99LatencyCycles: *sloMaxP99,
	}
	sloActive := slo != (director.SLO{})
	if *sloMaxP99 > 0 && !*latency {
		fmt.Fprintln(os.Stderr, "gunfu-director: -slo-max-p99-cycles needs -latency; enabling it")
		*latency = true
	}
	if (*live || *latency || sloActive) && *statsEvery == 0 {
		*statsEvery = *packets / 20
		if *statsEvery == 0 {
			*statsEvery = 1
		}
	}

	d := director.New()
	d.Retries = *retries
	var addr string
	if *chaos {
		inj, err := faultnet.New(faultnet.Config{
			Seed:          *chaosSeed,
			CutProb:       0.7,
			CutAfterMin:   2048, // past the register+deploy handshake,
			CutAfterMax:   8192, // within a few telemetry windows
			MaxWriteChunk: 13,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gunfu-director: %v\n", err)
			return 1
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gunfu-director: %v\n", err)
			return 1
		}
		d.ListenOn(inj.WrapListener(ln))
		addr = ln.Addr().String()
		defer func() {
			st := inj.Stats()
			fmt.Fprintf(os.Stderr, "chaos: seed %d injected %d cuts and %d split writes across %d connections\n",
				*chaosSeed, st.Cuts, st.SplitWrites, st.Conns)
		}()
		fmt.Fprintf(os.Stderr, "chaos: faulting every agent connection (seed %d) — workers should run with -reconnect\n", *chaosSeed)
	} else {
		var err error
		addr, err = d.Listen(*listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gunfu-director: %v\n", err)
			return 1
		}
	}
	defer d.Close()

	var mon *director.Monitor
	if *statsEvery > 0 {
		mon = director.NewMonitor()
		if sloActive {
			mon.SLO = slo
			mon.OnBreach = func(b director.Breach) {
				fmt.Fprintf(os.Stderr, "SLO BREACH %s window %d: %s — requesting flight dump\n",
					b.Agent, b.Window, strings.Join(b.Reasons, "; "))
				if err := d.RequestFlightDump(b.Agent); err != nil {
					fmt.Fprintf(os.Stderr, "gunfu-director: %v\n", err)
				}
			}
			d.SetDumpHandler(func(info director.DumpInfo) {
				if info.Error != "" {
					fmt.Fprintf(os.Stderr, "flight dump from %s failed: %s\n", info.Agent, info.Error)
					return
				}
				fmt.Fprintf(os.Stderr, "flight dump from %s: %s (%d events) — open in ui.perfetto.dev\n",
					info.Agent, info.Path, info.Events)
			})
		}
		var mu sync.Mutex
		d.SetStatsHandler(func(r director.StatsReport) {
			mu.Lock()
			defer mu.Unlock()
			mon.Observe(r)
			if *live {
				// Home the cursor and clear below before redrawing.
				fmt.Print("\033[H\033[2J")
			}
			_ = mon.Table().Render(os.Stdout)
		})
	}

	if *livenessWindow > 0 {
		d.SetLivenessHandler(func(agent string, live bool) {
			if mon != nil {
				mon.SetLive(agent, live)
			}
			if live {
				fmt.Fprintf(os.Stderr, "liveness: agent %s is back\n", agent)
			} else {
				fmt.Fprintf(os.Stderr, "liveness: agent %s silent for %d windows — marked DEAD\n", agent, *livenessMissed)
			}
		})
		if err := d.EnableLiveness(*livenessWindow, *livenessMissed); err != nil {
			fmt.Fprintf(os.Stderr, "gunfu-director: %v\n", err)
			return 1
		}
	}

	fmt.Printf("director listening on %s; waiting for %d agent(s)\n", addr, *agents)
	if err := d.WaitAgents(*agents, *wait); err != nil {
		fmt.Fprintf(os.Stderr, "gunfu-director: %v\n", err)
		return 1
	}

	depl := director.DeploySpec{
		NF:          *nf,
		Flows:       *flows,
		Packets:     *packets,
		Warmup:      *warmup,
		PacketBytes: *packetBytes,
		Tasks:       *tasks,
		Seed:        *seed,
		SFCLength:   *sfcLength,
		PDRs:        *pdrs,
		StatsEvery:  *statsEvery,
		Latency:     *latency,
	}
	fmt.Printf("deploying %s to %d agent(s): flows=%d packets=%d tasks=%d\n",
		depl.NF, *agents, depl.Flows, depl.Packets, depl.Tasks)

	results, err := d.DeployAll(depl, *deployTO)
	var dae *director.DeployAllError
	if err != nil && !errors.As(err, &dae) {
		fmt.Fprintf(os.Stderr, "gunfu-director: %v\n", err)
		return 1
	}
	if dae != nil {
		// Graceful degradation: the healthy agents' results still print
		// below; each failure is attributed here.
		failed := make([]string, 0, len(dae.Errors))
		for name := range dae.Errors {
			failed = append(failed, name)
		}
		sort.Strings(failed)
		for _, name := range failed {
			fmt.Fprintf(os.Stderr, "gunfu-director: %v\n", dae.Errors[name])
		}
		fmt.Fprintf(os.Stderr, "gunfu-director: %d of %d agent(s) failed; reporting the rest\n",
			len(failed), len(failed)+len(results))
	}
	var total float64
	for _, r := range results {
		fmt.Printf("  %-12s %10d pkts  %8.2f Gbps  ipc=%.2f l1=%.1f%%\n",
			r.Agent, r.Packets, r.Gbps(), r.Counters.IPC(), 100*r.Counters.L1HitRate())
		total += r.Gbps()
	}
	fmt.Printf("aggregate: %.2f Gbps across %d agent(s)\n", total, len(results))
	if *latency && mon != nil {
		cl := mon.ClusterLatency()
		if cl.Count() > 0 {
			fmt.Printf("cluster rx→done latency (cycles): p50=%d p95=%d p99=%d p99.9=%d max=%d over %d packets\n",
				cl.Quantile(0.50), cl.Quantile(0.95), cl.Quantile(0.99), cl.Quantile(0.999), cl.Max(), cl.Count())
		}
	}
	if dae != nil {
		return 1
	}
	return 0
}
