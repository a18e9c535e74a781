package exp

import (
	"bytes"
	"testing"
)

// TestParallelSweepDeterminism asserts the tentpole guarantee of
// Options.Parallel: any worker count renders byte-identical tables,
// because sweep points are share-nothing simulations and rows are
// emitted in sweep order. The sequential run is the checked-in
// testdata/quick table (each figure's shape test holds it there), so a
// Parallel: 4 run must render that file. Runs under -race in CI, which
// also proves the fan-out has no data races.
//
// fig9 is excluded: it measures host wall-clock context-switch rates,
// which vary run to run regardless of Parallel.
func TestParallelSweepDeterminism(t *testing.T) {
	names := Names()
	if testing.Short() {
		names = []string{"fig2", "fig10", "fig14"}
	}
	for _, name := range names {
		if name == "fig9" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var par bytes.Buffer
			if _, err := Run(name, Options{Quick: true, Seed: 42, Out: &par, Parallel: 4}); err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			checkQuickTables(t, name, par.Bytes())
		})
	}
}

// TestForEachErrorSelection pins forEach's error contract: the
// lowest-index error wins under any worker count, so failures are as
// deterministic as results.
func TestForEachErrorSelection(t *testing.T) {
	errA := errIndexed(3)
	errB := errIndexed(7)
	for _, parallel := range []int{0, 1, 4} {
		o := Options{Parallel: parallel}
		err := o.forEach(10, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("Parallel=%d: got %v, want lowest-index error %v", parallel, err, errA)
		}
	}
}

type errIndexed int

func (e errIndexed) Error() string { return "sweep point failed" }
