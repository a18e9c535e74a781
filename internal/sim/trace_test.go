package sim

import (
	"reflect"
	"testing"
)

// This file pins the trace delivery contract (trace.go): events reach
// the tracer in emission order, complete at every flush point, whatever
// the buffer capacity and whichever of the two delivery methods the
// tracer implements.

// eventLog is a plain Tracer; batchLog adds the BatchTracer upgrade and
// counts how it was fed.
type eventLog struct{ evs []TraceEvent }

func (l *eventLog) Event(ev TraceEvent) { l.evs = append(l.evs, ev) }

type batchLog struct {
	eventLog
	batches, singles int
}

func (l *batchLog) Event(ev TraceEvent) { l.singles++; l.eventLog.Event(ev) }
func (l *batchLog) EventBatch(evs []TraceEvent) {
	l.batches++
	l.evs = append(l.evs, evs...)
}

// tracedStream drives a fresh core through ops with t attached and the
// event buffer resized to capacity (0 keeps the default), stamping
// task/CS as a runtime would, and returns after a final flush.
func tracedStream(t *testing.T, tr Tracer, capacity int, ops []coreOp) *Core {
	t.Helper()
	c, err := NewCore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.SetTracer(tr)
	if capacity > 0 {
		c.tbuf = make([]TraceEvent, capacity)
	}
	for i, op := range ops {
		c.SetTask(int32(i % 16))
		c.SetCS(int32(i % 5))
		apply(c, op)
	}
	c.FlushTrace()
	return c
}

// TestTraceDeliveryCapacities: capacities 1, 7 and the default deliver
// the same sequence, to a batch tracer and to a plain one alike.
func TestTraceDeliveryCapacities(t *testing.T) {
	ops := genOps(31, 5000)
	want := &batchLog{}
	tracedStream(t, want, 0, ops)
	if len(want.evs) < 4*traceBufEvents {
		t.Fatalf("stream emitted %d events; want several buffers' worth", len(want.evs))
	}
	if want.singles != 0 || want.batches < 4 {
		t.Fatalf("batch tracer fed %d singles in %d batches", want.singles, want.batches)
	}
	for _, capacity := range []int{1, 7} {
		got := &batchLog{}
		tracedStream(t, got, capacity, ops)
		if !reflect.DeepEqual(got.evs, want.evs) {
			t.Fatalf("capacity %d: stream differs from the default capacity's", capacity)
		}
	}
	for _, capacity := range []int{0, 7} {
		plain := &eventLog{}
		tracedStream(t, plain, capacity, ops)
		if !reflect.DeepEqual(plain.evs, want.evs) {
			t.Fatalf("capacity %d: plain Tracer saw a different stream than the batch one", capacity)
		}
	}
}

// TestTraceFlushPoints: nothing is lost, duplicated or delivered to the
// wrong tracer across SetTracer(a→b→nil), Reset and CorePool.Put, and
// deferral never changes what the core computes.
func TestTraceFlushPoints(t *testing.T) {
	ops := genOps(32, 900)
	whole := &batchLog{}
	ref := tracedStream(t, whole, 0, ops)

	p := NewCorePool(DefaultConfig())
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	run := func(ops []coreOp, from int) {
		for i, op := range ops {
			c.SetTask(int32((from + i) % 16))
			c.SetCS(int32((from + i) % 5))
			apply(c, op)
		}
	}
	a, b := &batchLog{}, &eventLog{}
	c.SetTracer(a)
	run(ops[:300], 0)
	c.SetTracer(b) // flushes the tail of the first third into a
	nA := len(a.evs)
	run(ops[300:600], 300)
	c.SetTracer(nil) // ... and the second third into b
	run(ops[600:], 600)
	if c.tn != 0 {
		t.Fatalf("%d events buffered with no tracer attached", c.tn)
	}
	if len(a.evs) != nA {
		t.Fatalf("a received %d events after it was detached", len(a.evs)-nA)
	}
	if got := append(append([]TraceEvent{}, a.evs...), b.evs...); !reflect.DeepEqual(got, whole.evs[:len(got)]) {
		t.Fatal("a then b is not a prefix of the uninterrupted stream")
	}
	if c.Now() != ref.Now() || c.Counters() != ref.Counters() {
		t.Fatal("re-attaching tracers mid-stream changed the simulated result")
	}

	// Reset delivers what the discarded run left buffered, stamped with
	// that run's clock.
	d := &batchLog{}
	c.SetTracer(d)
	c.Stall(5)
	last := c.Now()
	c.Reset()
	if len(d.evs) != 1 || d.evs[0].Cycle != last {
		t.Fatalf("Reset delivered %+v, want the one pre-reset stall at cycle %d", d.evs, last)
	}
	// Put delivers, then detaches: the recycled core is silent.
	c.Stall(5)
	p.Put(c)
	if len(d.evs) != 2 {
		t.Fatalf("Put delivered %d events, want the 2 emitted", len(d.evs))
	}
	c2, _ := p.Get()
	c2.Stall(5)
	c2.FlushTrace()
	if c2 != c || c2.Tracer() != nil || len(d.evs) != 2 {
		t.Fatal("recycled core still reaches the previous run's tracer")
	}
}
