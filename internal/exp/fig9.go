package exp

import (
	"time"

	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// Fig9 reproduces Figure 9(b): the context-switch rate of NFTasks
// against the kernel-thread-style alternative. NFTask switching is a
// pointer bump inside one execution stream; the heavyweight comparison
// on this platform is goroutine hand-off through a channel (the Go
// analogue of the paper's pthread switching, and already far cheaper
// than a real kernel thread switch — the measured gap is therefore a
// lower bound on the paper's).
//
// Both rates are measured in host wall-clock time, not simulated time.
func Fig9(o Options) ([]*stats.Table, error) {
	nfTaskRate, err := measureNFTaskSwitches(o)
	if err != nil {
		return nil, err
	}
	goroutineRate := measureGoroutineSwitches(o)

	t := stats.NewTable(
		"Figure 9 — context switches per second on one core (host time)",
		"mechanism", "switches/sec", "relative")
	t.AddRow("NFTask (GuNFu scheduler)", stats.F(nfTaskRate, 0), stats.F(nfTaskRate/goroutineRate, 1)+"x")
	t.AddRow("goroutine channel hand-off", stats.F(goroutineRate, 0), "1.0x")
	return []*stats.Table{t}, nil
}

// measureNFTaskSwitches measures the raw NFTask switch mechanism: a
// round-robin pointer bump plus an indirect call through the action
// table into the task's context — what the scheduler does between two
// streams, with no packet work attached. (The paper's Figure 9
// likewise measures pure context switching, not packet processing.)
func measureNFTaskSwitches(o Options) (float64, error) {
	const tasks = 16
	switches := o.pick(30_000_000, 2_000_000)

	// Minimal action table + task ring, mirroring the runtime's
	// dispatch structure.
	type actionFn func(e *model.Exec) model.EventID
	table := [2]actionFn{
		func(e *model.Exec) model.EventID { e.Temp[0]++; return model.EvDone },
		func(e *model.Exec) model.EventID { e.Temp[1]++; return model.EvDone },
	}
	ring := make([]*model.Exec, tasks)
	for i := range ring {
		ring[i] = &model.Exec{CS: model.CSID(i % 2)}
	}

	start := time.Now()
	n := 0
	var sink model.EventID
	for i := 0; i < switches; i++ {
		t := ring[n]
		n = (n + 1) % tasks
		sink = table[t.CS](t)
	}
	elapsed := time.Since(start).Seconds()
	_ = sink
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(switches) / elapsed, nil
}

// measureGoroutineSwitches ping-pongs a token between two goroutines;
// each hand-off is two scheduler switches.
func measureGoroutineSwitches(o Options) float64 {
	rounds := o.pick(300000, 30000)
	ping := make(chan struct{})
	pong := make(chan struct{})
	done := make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(done)
	}()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-done
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(2*rounds) / elapsed
}
