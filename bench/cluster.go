package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gunfu-nfv/gunfu"
	"github.com/gunfu-nfv/gunfu/internal/director"
)

// clusterAgents is how many in-process agents register with the
// director; with the director's own goroutines that stays within the
// sandbox's two hardware threads.
const clusterAgents = 2

// deploysPerSecond and deployAllsPerSecond size the two phases as
// fixed counts: a fifth of a run's seconds for phase A at the 300
// deploys a second the sandbox completes, the rest for phase B at 30
// deploy-alls a second. Phase B gets the larger share because only it
// feeds an end-to-end metric.
const (
	deploysPerSecond    = 0.2 * 300
	deployAllsPerSecond = 0.8 * 30
)

// clusterStarts is how many times a run starts the cluster.
const clusterStarts = 8

// deployTimeout bounds every deploy; none comes near it.
const deployTimeout = 30 * time.Second

// specA is phase A's deployment, a small run whose round-trip is
// dominated by construction and the wire; specB is phase B's, a longer
// run with telemetry on, which is how deployments run in production.
func specA(seed int64) director.DeploySpec {
	return director.DeploySpec{
		NF: "nat", Flows: 1024, Packets: 2000, Warmup: 500, PacketBytes: 64, Tasks: 16, Seed: seed,
	}
}

func specB(seed int64, heartbeats bool) director.DeploySpec {
	s := director.DeploySpec{
		NF: "nat", Flows: 1024, Packets: 20_000, Warmup: 2000, PacketBytes: 64, Tasks: 16, Seed: seed,
		Latency: true,
	}
	if heartbeats {
		s.StatsEvery = 2000
	}
	return s
}

// cluster is a director with its agents registered over loopback TCP,
// all in this process.
type cluster struct {
	d      *director.Director
	agents []*director.Agent
	wg     sync.WaitGroup
	beats  atomic.Int64
}

// startCluster listens, starts the agents and waits until all have
// registered.
func startCluster() (*cluster, error) {
	c := &cluster{d: director.New()}
	addr, err := c.d.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.d.SetStatsHandler(func(director.StatsReport) { c.beats.Add(1) })
	for i := 0; i < clusterAgents; i++ {
		a, err := director.NewAgent(fmt.Sprintf("w%d", i), director.DefaultRegistry())
		if err != nil {
			_ = c.stop()
			return nil, err
		}
		c.agents = append(c.agents, a)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			// Run returns when the director closes the connection; its
			// error then only says so.
			_ = a.Run(addr)
		}()
	}
	if err := c.d.WaitAgents(clusterAgents, 10*time.Second); err != nil {
		_ = c.stop()
		return nil, err
	}
	return c, nil
}

// stop shuts the agents down and returns once every goroutine the
// cluster started has ended.
func (c *cluster) stop() error {
	err := c.d.Close()
	for _, a := range c.agents {
		a.Stop()
	}
	c.wg.Wait()
	return err
}

// deployAll runs spec on every agent and returns the fleet result.
// Results whose packet count differs from the spec's count as failed.
func (c *cluster) deployAll(spec director.DeploySpec, out *outcome) (gunfu.Result, error) {
	results, err := c.d.DeployAll(spec, deployTimeout)
	out.attempted += clusterAgents
	if err != nil {
		return gunfu.Result{}, err
	}
	per := make([]gunfu.Result, len(results))
	for i, r := range results {
		if r.Packets != spec.Packets {
			out.failed++
		}
		per[i] = gunfu.Result{Packets: r.Packets, Bits: r.Bits, Cycles: r.Cycles, FreqHz: r.FreqHz, Counters: r.Counters}
	}
	out.failed += uint64(clusterAgents - len(results))
	return gunfu.AggregateResults(per), nil
}

// localExec runs spec the way an agent does, flight recorder and all,
// but in this goroutine with no wire in between.
func localExec(spec director.DeploySpec) (time.Duration, error) {
	t0 := time.Now()
	as := gunfu.NewAddressSpace()
	prog, src, err := director.DefaultRegistry()[spec.NF](as, spec)
	if err != nil {
		return 0, err
	}
	core, err := gunfu.NewCore(gunfu.DefaultSimConfig())
	if err != nil {
		return 0, err
	}
	core.SetTracer(gunfu.NewFlightRecorder(director.DefaultFlightEvents))
	cfg := gunfu.DefaultWorkerConfig()
	cfg.Tasks = spec.Tasks
	w, err := gunfu.NewWorker(core, as, prog, cfg)
	if err != nil {
		return 0, err
	}
	if _, err := w.Run(src, spec.Warmup); err != nil {
		return 0, err
	}
	res, err := w.Run(src, spec.Packets)
	if err == nil && res.Packets != spec.Packets {
		err = fmt.Errorf("local exec ran %d of %d packets", res.Packets, spec.Packets)
	}
	return time.Since(t0), err
}

// runCluster is the cluster_deploy workload: the control plane over
// host loopback. Phase B times telemetry-on deploys to all agents, the
// only production path with a tracer attached to the core; phase A times
// sequential deploys to one agent.
func runCluster(o runOpts) (*outcome, error) {
	sp := newSpans(fmt.Sprintf("cluster_deploy-seed%d", o.seed))
	out := newOutcome()
	m := out.metrics
	root := sp.begin("workload")

	// The cluster is started clusterStarts times. Each start is one
	// sample of setup_s and carries an equal share of phase B, so the
	// fastest deploy-all is the fastest over several clusters: two agents
	// in one process sometimes land in a slow mode that lasts as long as
	// the cluster does (README.md, "cluster_deploy's two modes"), and a
	// run that measured one cluster would report whichever it drew.
	starts := clusterStarts
	if o.smoke {
		starts = 2
	}
	nA, nB := max(o.ops(deploysPerSecond), 5), max(o.ops(deployAllsPerSecond)/starts, 1)

	var c *cluster
	var setups, walls, fastest []float64
	var simT simTotals
	var beats int64
	for k := 0; k < starts; k++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := sp.do("setup", func() (err error) {
			if err = sp.do("director.listen+register", func() (err error) {
				c, err = startCluster()
				return err
			}); err != nil {
				return err
			}
			return sp.do("warmup", func() error {
				_, err := c.deployAll(specB(o.seed, true), out)
				return err
			})
		}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		// Phase B: telemetry-on deploys to every agent at once.
		c.beats.Store(0)
		phaseB := sp.begin("measure.B")
		for i := k * nB; i < (k+1)*nB; i++ {
			id := sp.begin("director.deployall")
			t0 := time.Now()
			res, err := c.deployAll(specB(o.seed+int64(i), true), out)
			walls = append(walls, time.Since(t0).Seconds())
			sp.finish(id)
			if err != nil {
				_ = c.stop()
				return nil, fmt.Errorf("cluster_deploy: deploy-all %d: %w", i, err)
			}
			simT.add(res)
		}
		sp.finish(phaseB)
		beats += c.beats.Load()
		fastest = append(fastest, 1000*minOf(walls[k*nB:]))
	}
	defer func() { _ = c.stop() }() // error paths; stopping twice is harmless
	m["mem.live_heap_mb"] = liveHeapMB()

	// Phase A: sequential round-trips to one agent of the last cluster.
	var rtts []float64
	phaseA := sp.begin("measure.A")
	for i := 0; i < nA; i++ {
		spec := specA(o.seed + int64(i))
		t0 := time.Now()
		res, err := c.d.Deploy("w0", spec, deployTimeout)
		rtts = append(rtts, 1000*time.Since(t0).Seconds())
		out.attempted++
		if err != nil {
			return nil, fmt.Errorf("cluster_deploy: deploy %d: %w", i, err)
		}
		if res.Packets != spec.Packets {
			out.failed++
		}
	}
	sp.finish(phaseA)

	pktsB := float64(clusterAgents * specB(0, true).Packets)
	m["host_pps"] = pktsB / minOf(walls)
	m["director.deploy_rtt_ms_p50"] = median(rtts)
	simT.endToEnd(m, gunfu.DefaultSimConfig().FreqHz)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peakRSSMB()
	m["director.deploy_rtt_ms_p90"] = quantile(rtts, 0.90)
	m["director.deploy_rtt_ms_p99"] = quantile(rtts, 0.99)
	m["director.heartbeats_per_deploy"] = float64(beats) / float64(clusterAgents*len(walls))
	out.info["deploys"] = len(rtts)
	out.info["deploy_rtt_ms"] = spreadOf(rtts)
	out.info["deploy_all_s"] = spreadOf(walls)
	out.info["deploy_alls"] = len(walls)
	out.info["deploy_all_ms_min_by_cluster"] = fastest
	out.info["setup_samples"] = len(setups)

	if o.trace {
		simT.perLayer(m)
		// The same phase-B deploys without heartbeats, alternated with
		// them so drift cancels, and the phase-A spec with no wire.
		var with, without, local []float64
		if err := sp.do("director.heartbeat_ab", func() error {
			for i := 0; i < 2*nB*starts; i++ {
				on := i%2 == 0
				t0 := time.Now()
				if _, err := c.deployAll(specB(o.seed+int64(i/2), on), out); err != nil {
					return err
				}
				if d := time.Since(t0).Seconds(); on {
					with = append(with, d)
				} else {
					without = append(without, d)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := sp.do("director.local_exec", func() error {
			for i := 0; i < nA; i++ {
				d, err := localExec(specA(o.seed + int64(i)))
				if err != nil {
					return err
				}
				local = append(local, 1000*d.Seconds())
			}
			return nil
		}); err != nil {
			return nil, err
		}
		m["director.heartbeat_overhead_ratio"] = ratio(median(with), median(without))
		m["director.local_exec_ms_p50"] = median(local)
		m["director.wire_overhead_ms"] = median(rtts) - median(local)
	}
	if err := c.stop(); err != nil {
		return nil, err
	}
	sp.finish(root)
	m["director.deploy_fail_ratio"] = ratio(float64(out.failed), float64(out.attempted))
	m["bench.fail_ratio"] = m["director.deploy_fail_ratio"]
	if o.trace {
		return out, sp.flush(o, out)
	}
	return out, nil
}
