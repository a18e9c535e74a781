// Package rt is the GuNFu runtime (§V of the paper): the per-core
// worker that executes a compiled Program under the interleaved
// function-stream execution model.
//
// The worker keeps max_interleaved NFTasks in flight. Following the
// paper's Algorithm 1, each scheduler visit to a task either issues the
// prefetches for the task's next NFAction and switches away (so the
// fill overlaps other streams' work), or — when the task's P-state says
// its NFState is resident — executes the action, takes the FSM
// transition, and evaluates the fetching function for the next control
// state. Round-robin order, one core, no goroutines: the concurrency is
// memory-level parallelism inside one simulated core, exactly as in the
// paper.
//
// The run-to-completion baseline is the same loop under RTCConfig: one
// NFTask and no prefetching step. Identical actions, state layouts,
// receive path and simulated hardware, so the only difference between
// the two models is scheduling, which is what makes the evaluation's
// head-to-head numbers attributable to the execution model alone.
package rt

import (
	"errors"
	"fmt"

	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// Source supplies packets to a worker. Next returns nil when the
// workload is exhausted.
type Source interface {
	Next() *pkt.Packet
}

// ErrRingTooSmall is the error, wrapped with the sizes, that a config
// whose RingSlots are fewer than Tasks+Batch is refused with: a wrapped
// slot could be overwritten while an in-flight task still points at it.
var ErrRingTooSmall = errors.New("rt: RingSlots must be >= Tasks+Batch")

// Config tunes a worker.
type Config struct {
	// Tasks is max_interleaved: the number of NFTasks kept in flight.
	Tasks int
	// Batch is the rx burst size (packets fetched per receive call).
	Batch int
	// Prefetch enables the prefetching step of Algorithm 1; disabling
	// it leaves pure round-robin interleaving (an ablation knob).
	Prefetch bool
	// ResidentCheck lets the scheduler skip the prefetch pass when the
	// P-state verification finds the spans already in L1.
	ResidentCheck bool
	// RxCost is the per-packet receive cost in instructions (driver
	// burst amortized), charged once per packet at batch receive.
	RxCost uint64
	// RingSlots is the number of rx buffer slots (wraps like a NIC
	// descriptor ring).
	RingSlots int
	// SlotBytes is the buffer slot size.
	SlotBytes uint64
}

// DefaultConfig returns the worker tuning used throughout the
// evaluation: 16 interleaved NFTasks (the paper's optimum), 32-packet
// bursts, prefetching on.
func DefaultConfig() Config {
	return Config{
		Tasks:         16,
		Batch:         32,
		Prefetch:      true,
		ResidentCheck: true,
		RxCost:        30,
		RingSlots:     512,
		SlotBytes:     2048,
	}
}

// RTCConfig returns the per-packet run-to-completion baseline of the
// platforms the paper compares against (§II-B: BESS, FastClick, L25GC):
// Algorithm 1 with max_interleaved = 1 and no prefetching step, so
// every state access that misses stalls the core for the full fill
// with no other stream's work to overlap it. The I/O settings are
// DefaultConfig's, so the head-to-head numbers isolate the execution
// model.
func RTCConfig() Config {
	c := DefaultConfig()
	c.Tasks = 1
	c.Prefetch = false
	c.ResidentCheck = false
	return c
}

// ConfigFor is the worker config for max_interleaved = tasks: RTCConfig
// at 0, else DefaultConfig with a burst that keeps every NFTask busy.
func ConfigFor(tasks int) Config {
	if tasks == 0 {
		return RTCConfig()
	}
	c := DefaultConfig()
	c.Tasks, c.Batch = tasks, max(c.Batch, 2*tasks)
	return c
}

func (c Config) validate() error {
	if c.Tasks <= 0 {
		return fmt.Errorf("rt: Tasks must be positive, got %d", c.Tasks)
	}
	if c.Batch <= 0 {
		return fmt.Errorf("rt: Batch must be positive, got %d", c.Batch)
	}
	if c.RingSlots <= 0 || c.SlotBytes == 0 {
		return fmt.Errorf("rt: ring geometry must be positive")
	}
	if c.RingSlots < c.Tasks+c.Batch {
		// A slot can be reassigned to a new rx packet while an in-flight
		// NFTask still points at it: up to Tasks packets are live in the
		// scheduler and up to Batch more are staged by receive, so the
		// ring must cover both before any sequence number wraps onto a
		// slot that is still referenced.
		return fmt.Errorf("%w: RingSlots %d, Tasks+Batch %d (a wrapped slot could be overwritten while an in-flight task still points at it)",
			ErrRingTooSmall, c.RingSlots, c.Tasks+c.Batch)
	}
	return nil
}

// Result summarizes one worker run over its measurement window. It is
// also the window record the control plane carries: the JSON tags are
// the wire names of director.Result and director.StatsReport, which
// embed it.
type Result struct {
	// Packets is the number of streams run to completion.
	Packets uint64 `json:"packets"`
	// Bits is the total wire bits processed, for Gbps computation.
	Bits float64 `json:"bits"`
	// Cycles is the simulated cycle span of the window.
	Cycles uint64 `json:"cycles"`
	// FreqHz echoes the core clock for throughput conversion.
	FreqHz float64 `json:"freq_hz"`
	// Counters is the PMU delta over the window.
	Counters sim.Counters `json:"counters"`
	// AccessCycles is the cycles spent charging declared state accesses.
	// It stays off the wire.
	AccessCycles uint64 `json:"-"`
}

// Add returns r extended by the window o that follows it: volumes,
// cycles and counters sum, and the clock is o's.
func (r Result) Add(o Result) Result {
	return Result{
		Packets:      r.Packets + o.Packets,
		Bits:         r.Bits + o.Bits,
		Cycles:       r.Cycles + o.Cycles,
		FreqHz:       o.FreqHz,
		Counters:     r.Counters.Add(o.Counters),
		AccessCycles: r.AccessCycles + o.AccessCycles,
	}
}

// Gbps returns the simulated throughput in gigabits per second.
func (r Result) Gbps() float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := float64(r.Cycles) / r.FreqHz
	return r.Bits / seconds / 1e9
}

// Mpps returns the simulated throughput in million packets per second.
func (r Result) Mpps() float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := float64(r.Cycles) / r.FreqHz
	return float64(r.Packets) / seconds / 1e6
}

// CyclesPerPacket returns the mean per-packet cost.
func (r Result) CyclesPerPacket() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Packets)
}

// MissesPerPacket returns (L1, L2, LLC) misses per packet, the paper's
// micro-architecture metrics.
func (r Result) MissesPerPacket() (l1, l2, llc float64) {
	if r.Packets == 0 {
		return 0, 0, 0
	}
	n := float64(r.Packets)
	return float64(r.Counters.L1Misses) / n, float64(r.Counters.L2Misses) / n,
		float64(r.Counters.LLCMisses) / n
}

// Worker executes a Program on one simulated core.
type Worker struct {
	core *sim.Core
	prog *model.Program
	cfg  Config
	ring *pkt.Ring
	// tasks is a contiguous value array: the scheduler walks Execs all
	// day, and adjacency keeps the visited contexts dense in the host's
	// own cache instead of chasing per-task allocations.
	tasks []model.Exec
	seq   uint64
	// batch is the reusable rx burst buffer: allocated once, refilled
	// by every receive call, so steady state allocates nothing.
	batch []*pkt.Packet
	// ringNext holds the scheduler's circular list of live task indexes,
	// rebuilt per batch. Finished tasks are unlinked so the interleave
	// loop never spins over them; the cyclic visit order of the
	// remaining tasks — and thus every simulated event — is identical to
	// round-robin-with-skip.
	ringNext []int32
}

// NewWorker builds a worker for prog on core, reserving the rx ring and
// each NFTask's one scratch line from as.
func NewWorker(core *sim.Core, as *mem.AddressSpace, prog *model.Program, cfg Config) (*Worker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ringBase := as.Reserve(uint64(cfg.RingSlots)*cfg.SlotBytes, sim.LineBytes)
	ring, err := pkt.NewRing(ringBase, cfg.SlotBytes, cfg.RingSlots)
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	w := &Worker{
		core:     core,
		prog:     prog,
		cfg:      cfg,
		ring:     ring,
		tasks:    make([]model.Exec, cfg.Tasks),
		batch:    make([]*pkt.Packet, 0, cfg.Batch),
		ringNext: make([]int32, cfg.Tasks),
	}
	for i := range w.tasks {
		// Each task keeps one simulated line reserved, though nothing
		// reads it: a run that builds workers one after another on one
		// address space (sfc6_engine2 builds one per window) would
		// otherwise move every later address.
		as.Reserve(sim.LineBytes, sim.LineBytes)
		w.tasks[i] = model.Exec{Core: core, Done: true} // idle until a packet is loaded
	}
	return w, nil
}

// receive pulls up to Batch packets from src, assigning ring slots and
// modelling the DDIO fill of their header lines. The returned slice
// aliases the worker's reusable batch buffer and is only valid until
// the next receive call.
func (w *Worker) receive(src Source, limit uint64) []*pkt.Packet {
	n := w.cfg.Batch
	if limit > 0 && uint64(n) > limit {
		n = int(limit)
	}
	traced := w.core.Tracer() != nil
	if traced {
		// Receive happens outside any NFTask; clear the stamps.
		w.core.SetTask(-1)
		w.core.SetCS(-1)
	}
	batch := w.batch[:0]
	for len(batch) < n {
		p := src.Next()
		if p == nil {
			break
		}
		p.Addr = w.ring.Slot(w.seq)
		w.seq++
		hdr := uint64(len(p.Data))
		if hdr > 128 {
			hdr = 128
		}
		w.core.DMAFill(p.Addr, hdr)
		w.core.Compute(w.cfg.RxCost)
		if traced {
			p.RxCycle = w.core.Now()
			w.core.Emit(sim.TraceRx, sim.CauseNone, p.Addr, uint64(p.Bits()), 0)
		}
		batch = append(batch, p)
	}
	return batch
}

// Run processes up to maxPackets packets from src (0 means until the
// source is exhausted) under Algorithm 1 — round-robin with skip over
// the live-task ring, whose visit order pins every golden fingerprint —
// and returns the windowed result. Counters are measured as a delta, so
// Run can be called again on a warm worker for steady-state
// measurements. Every return is a trace flush point: whatever the
// window emitted has reached the core's tracer by the time the caller
// sees the result.
func (w *Worker) Run(src Source, maxPackets uint64) (Result, error) {
	defer w.core.FlushTrace()
	// Loop invariants in locals: the compiler cannot prove that Step
	// leaves w alone, so it would reload each field on every visit.
	core, prog, tasks, ringNext := w.core, w.prog, w.tasks, w.ringNext
	prefetch, residentCheck := w.cfg.Prefetch, w.cfg.ResidentCheck
	start := prog.Start()
	// One task and no P-stage is RTCConfig: nothing to switch to, so the
	// baseline is charged no switches.
	chargeSwitch := len(tasks) > 1 || prefetch
	startCtr := core.Counters()
	startCycles := core.Now()

	var done uint64
	var bits float64
	var accessCycles uint64
	remaining := maxPackets
	// traced gates the per-visit attribution stamps; resolved once so
	// the untraced scheduler loop pays a single predictable branch.
	traced := core.Tracer() != nil

	for {
		batch := w.receive(src, remaining)
		if len(batch) == 0 {
			break
		}
		if remaining > 0 {
			remaining -= uint64(len(batch))
		}
		// receive numbered the batch consecutively, ending at w.seq.
		seq0 := w.seq - uint64(len(batch))

		// Initialize NFTasks with the batch head and link them into the
		// scheduler ring.
		next := 0
		active := 0
		for i := range tasks {
			if next >= len(batch) {
				break
			}
			tasks[i].ResetStream(batch[next], start, seq0+uint64(next))
			next++
			active++
		}
		for i := 0; i < active; i++ {
			ringNext[i] = int32(i + 1)
		}
		ringNext[active-1] = 0

		// Interleave until the whole batch is processed, visiting the
		// live tasks cyclically. Tasks that finish with no packet left
		// to refill are unlinked from the ring.
		cur, prev := int32(0), int32(active-1)
		for active > 0 {
			if traced {
				core.SetTask(cur)
			}
			t := &tasks[cur]
			if prefetch && !t.Prefetched {
				// P-stage visit. With ResidentCheck one base resolution
				// covers the residency probe and, on a miss, the prefetch
				// issue (plus the host-side Action.Touch); a resident
				// task falls through and executes now. Without it the
				// plan is issued blind. Either way the P-state is set, so
				// the task steps on its next visit whether or not the
				// fills have landed.
				issued := true
				if residentCheck {
					issued = !prog.EnsurePrefetched(t)
				} else {
					prog.PrefetchCurrent(t)
				}
				if issued {
					// Switch away so the fills overlap other streams' work.
					core.TaskSwitch()
					prev = cur
					cur = ringNext[cur]
					continue
				}
			}
			if err := prog.Step(t); err != nil {
				return Result{}, fmt.Errorf("rt: step: %w", err)
			}
			if t.Done {
				done++
				bits += t.Pkt.Bits()
				accessCycles += t.AccessCycles
				t.AccessCycles = 0
				if traced {
					core.Emit(sim.TraceStreamDone, sim.CauseNone, t.Pkt.Addr, uint64(t.Pkt.Bits()), core.Now()-t.Pkt.RxCycle)
				}
				if next < len(batch) {
					t.ResetStream(batch[next], start, seq0+uint64(next))
					next++
				} else {
					active--
					ringNext[prev] = ringNext[cur]
					if chargeSwitch {
						core.TaskSwitch()
					}
					cur = ringNext[cur]
					continue
				}
			}
			if chargeSwitch {
				core.TaskSwitch()
			}
			prev = cur
			cur = ringNext[cur]
		}
		if maxPackets > 0 && remaining == 0 {
			break
		}
	}

	return Result{
		Packets:      done,
		Bits:         bits,
		Cycles:       core.Now() - startCycles,
		FreqHz:       core.Config().FreqHz,
		Counters:     core.Counters().Sub(startCtr),
		AccessCycles: accessCycles,
	}, nil
}
