package model_test

// Reference schedulers for the event-stream differential
// (TestDifferentialReplayEvents): naive restatements of the two
// runtimes' visit orders — run-to-completion and Algorithm 1's
// round-robin with skip — driving the span-interpreting reference
// executor. They keep the run ring as a plain slice, share no code with
// internal/rt's worker, and must reproduce, event for event, what the
// real worker emits under either config while running the compiled
// executor.

import (
	"github.com/gunfu-nfv/gunfu/internal/mem"
	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
)

// refMode selects the scheduling a refWorker models.
type refMode int

const (
	refRTC refMode = iota
	refRR
)

// refWorker lays its rx ring and task scratch out exactly as
// rt.NewWorker does (ring first, then one scratch region per task), so
// both sides of the differential resolve the same addresses. It keeps
// its own rx cycle per buffer address for the stream-done latency, so
// the worker's packet stamp is checked, never trusted.
type refWorker struct {
	core  *sim.Core
	prog  *model.Program
	mode  refMode
	cfg   rt.Config
	ring  *pkt.Ring
	tasks []model.Exec
	seq   uint64
	rxAt  map[uint64]uint64
}

func newRefWorker(core *sim.Core, as *mem.AddressSpace, prog *model.Program, mode refMode, cfg rt.Config) *refWorker {
	ring, err := pkt.NewRing(as.Reserve(uint64(cfg.RingSlots)*cfg.SlotBytes, sim.LineBytes), cfg.SlotBytes, cfg.RingSlots)
	if err != nil {
		panic(err)
	}
	n := cfg.Tasks
	if mode == refRTC {
		n = 1
	}
	w := &refWorker{core: core, prog: prog, mode: mode, cfg: cfg, ring: ring, tasks: make([]model.Exec, n), rxAt: map[uint64]uint64{}}
	for i := range w.tasks {
		as.Reserve(sim.LineBytes, sim.LineBytes) // the line rt.NewWorker keeps per task
		w.tasks[i] = model.Exec{Core: core, Done: true}
	}
	return w
}

// receive models one rx burst: slot assignment, the DDIO fill of the
// header lines, the per-packet receive cost, and the TraceRx event
// with the rx cycle it records.
func (w *refWorker) receive(src rt.Source, limit uint64) []*pkt.Packet {
	n := uint64(w.cfg.Batch)
	if limit > 0 && limit < n {
		n = limit
	}
	traced := w.core.Tracer() != nil
	if traced {
		w.core.SetTask(-1)
		w.core.SetCS(-1)
	}
	var batch []*pkt.Packet
	for uint64(len(batch)) < n {
		p := src.Next()
		if p == nil {
			break
		}
		p.Addr = w.ring.Slot(w.seq)
		w.seq++
		w.core.DMAFill(p.Addr, min(uint64(len(p.Data)), 128))
		w.core.Compute(w.cfg.RxCost)
		if traced {
			w.rxAt[p.Addr] = w.core.Now()
			w.core.Emit(sim.TraceRx, sim.CauseNone, p.Addr, uint64(p.Bits()), 0)
		}
		batch = append(batch, p)
	}
	return batch
}

// ensure is the P-state visit in its reference expansion: residency
// check, then on a miss the full prefetch issue.
func (w *refWorker) ensure(e *model.Exec) bool {
	if w.prog.ResidentCurrentInterpreted(e) {
		e.Prefetched = true
		return true
	}
	w.prog.PrefetchCurrentInterpreted(e)
	return false
}

// Run is the reference Worker.Run: up to maxPackets packets (0 = drain
// src), every return a trace flush point.
func (w *refWorker) Run(src rt.Source, maxPackets uint64) (rt.Result, error) {
	core := w.core
	startCtr, startCycles := core.Counters(), core.Now()
	res := rt.Result{FreqHz: core.Config().FreqHz}
	traced := core.Tracer() != nil
	finish := func(t *model.Exec) {
		res.Packets++
		res.Bits += t.Pkt.Bits()
		res.AccessCycles += t.AccessCycles
		t.AccessCycles = 0
		if traced {
			core.Emit(sim.TraceStreamDone, sim.CauseNone, t.Pkt.Addr, uint64(t.Pkt.Bits()), core.Now()-w.rxAt[t.Pkt.Addr])
			delete(w.rxAt, t.Pkt.Addr)
		}
	}

	remaining := maxPackets
	for {
		batch := w.receive(src, remaining)
		if len(batch) == 0 {
			break
		}
		if remaining > 0 {
			remaining -= uint64(len(batch))
		}
		var err error
		if w.mode == refRTC {
			err = w.complete(batch, finish)
		} else {
			err = w.interleave(batch, finish)
		}
		if err != nil {
			return rt.Result{}, err
		}
		if maxPackets > 0 && remaining == 0 {
			break
		}
	}
	res.Cycles = core.Now() - startCycles
	res.Counters = core.Counters().Sub(startCtr)
	core.FlushTrace()
	return res, nil
}

// complete runs each packet of the batch to completion on task slot 0.
func (w *refWorker) complete(batch []*pkt.Packet, finish func(*model.Exec)) error {
	if w.core.Tracer() != nil {
		w.core.SetTask(0)
	}
	t := &w.tasks[0]
	for _, p := range batch {
		t.ResetStream(p, w.prog.Start())
		for !t.Done {
			if err := w.prog.StepInterpreted(t); err != nil {
				return err
			}
		}
		finish(t)
	}
	return nil
}

// interleave runs one batch under Algorithm 1. live is the run ring in
// visit order and pos the task being visited; a finished task with no
// packet left to take is removed.
func (w *refWorker) interleave(batch []*pkt.Packet, finish func(*model.Exec)) error {
	core := w.core
	traced := core.Tracer() != nil
	next := 0
	// load starts the batch's next packet on t.
	load := func(t *model.Exec) {
		t.ResetStream(batch[next], w.prog.Start())
		next++
	}
	var live []int32
	for i := range w.tasks {
		if next == len(batch) {
			break
		}
		load(&w.tasks[i])
		live = append(live, int32(i))
	}
	pos := 0
	for len(live) > 0 {
		cur := live[pos]
		if traced {
			core.SetTask(cur)
		}
		t := &w.tasks[cur]
		if !t.Prefetched && !w.ensure(t) {
			core.TaskSwitch()
			pos = (pos + 1) % len(live)
			continue
		}
		if err := w.prog.StepInterpreted(t); err != nil {
			return err
		}
		if t.Done {
			finish(t)
			if next == len(batch) {
				live = append(live[:pos], live[pos+1:]...)
				if pos == len(live) {
					pos = 0
				}
				core.TaskSwitch()
				continue
			}
			load(t)
		}
		core.TaskSwitch()
		pos = (pos + 1) % len(live)
	}
	return nil
}
