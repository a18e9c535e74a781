package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// quick is the seed-42 Quick run of the checked-in tables, with a core
// pool of its own for runners called directly (Run sets a fresh one).
func quick() Options {
	return Options{Quick: true, Seed: 42, pool: sim.NewCorePool(sim.DefaultConfig())}
}

// checkQuickTables compares a figure's rendered seed-42 Quick output
// with testdata/quick/<name>.txt and, on a mismatch, reports the lines
// that differ and the command that regenerates the file.
func checkQuickTables(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "quick", name+".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var diff strings.Builder
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		if i < len(w) && i < len(g) && w[i] == g[i] {
			continue
		}
		if i < len(w) {
			fmt.Fprintf(&diff, "-%s\n", w[i])
		}
		if i < len(g) {
			fmt.Fprintf(&diff, "+%s\n", g[i])
		}
	}
	t.Errorf("%s tables differ from %s (-want +got):\n%s"+
		"If the change is meant to move them, regenerate from the module root with\n"+
		"  go run ./cmd/gunfu-bench -exp %s -quick | sed '1d;$d' > internal/exp/%s",
		name, path, diff.String(), name, path)
}

// runQuick executes one experiment in quick mode, checks its output
// against the checked-in tables (fig9 measures host time and has none)
// and returns its tables.
func runQuick(t *testing.T, name string) []*stats.Table {
	t.Helper()
	var buf bytes.Buffer
	o := quick()
	o.Out = &buf
	tables, err := Run(name, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", name)
	}
	for _, tb := range tables {
		if tb.NumRows() == 0 {
			t.Fatalf("%s produced empty table %q", name, tb.Title)
		}
	}
	if !strings.Contains(buf.String(), "Figure") && name != "ablation" {
		t.Fatalf("%s rendered no figure header:\n%s", name, buf.String())
	}
	if name != "fig9" {
		checkQuickTables(t, name, buf.Bytes())
	}
	return tables
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", quick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	want := []string{"ablation", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig2", "fig3", "fig9"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestFig2ShowsDegradationWithConcurrency(t *testing.T) {
	tables := runQuick(t, "fig2")
	t1 := tables[0]
	col, err := t1.ColumnIndex("cyc/pkt")
	if err != nil {
		t.Fatal(err)
	}
	first, err := t1.CellFloat(0, col)
	if err != nil {
		t.Fatal(err)
	}
	last, err := t1.CellFloat(t1.NumRows()-1, col)
	if err != nil {
		t.Fatal(err)
	}
	if last <= first {
		t.Fatalf("RTC per-packet cost did not grow with sessions: %v -> %v", first, last)
	}
}

func TestFig3StateAccessDominates(t *testing.T) {
	tables := runQuick(t, "fig3")
	tb := tables[0]
	col, err := tb.ColumnIndex("state-access%")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tb.NumRows(); r++ {
		cell, err := tb.Cell(r, col)
		if err != nil {
			t.Fatal(err)
		}
		v, err := parsePct(cell)
		if err != nil {
			t.Fatal(err)
		}
		if v < 20 {
			t.Fatalf("row %d: state access only %.1f%% of cycles; the AMF is state-bound in the paper", r, v)
		}
	}
}

func parsePct(s string) (float64, error) {
	var v float64
	_, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(s), "%"), &v)
	return v, err
}

func TestFig9NFTaskFasterThanGoroutines(t *testing.T) {
	tables := runQuick(t, "fig9")
	tb := tables[0]
	col, err := tb.ColumnIndex("switches/sec")
	if err != nil {
		t.Fatal(err)
	}
	nftask, err := tb.CellFloat(0, col)
	if err != nil {
		t.Fatal(err)
	}
	goroutines, err := tb.CellFloat(1, col)
	if err != nil {
		t.Fatal(err)
	}
	if nftask <= goroutines {
		t.Fatalf("NFTask switching (%.0f/s) not faster than goroutines (%.0f/s)", nftask, goroutines)
	}
}

func TestFig10InterleavingBeatsRTC(t *testing.T) {
	tables := runQuick(t, "fig10")
	tb := tables[0]
	col, err := tb.ColumnIndex("speedup-vs-rtc")
	if err != nil {
		t.Fatal(err)
	}
	// Row for IL-16 (RTC, IL-1, IL-2, IL-4, IL-8, IL-16 → index 5).
	best := 0.0
	for r := 1; r < tb.NumRows(); r++ {
		v, err := tb.CellFloat(r, col)
		if err != nil {
			t.Fatal(err)
		}
		if v > best {
			best = v
		}
	}
	if best < 1.5 {
		t.Fatalf("best UPF speedup %.2f < 1.5 (paper: 1.5-6x)", best)
	}
}

func TestFig11Shape(t *testing.T) {
	tables := runQuick(t, "fig11")
	tb := tables[0]
	col, err := tb.ColumnIndex("speedup-vs-rtc")
	if err != nil {
		t.Fatal(err)
	}
	one, err := tb.CellFloat(1, col) // IL-1
	if err != nil {
		t.Fatal(err)
	}
	sixteen, err := tb.CellFloat(5, col) // IL-16
	if err != nil {
		t.Fatal(err)
	}
	sixtyFour, err := tb.CellFloat(7, col) // IL-64
	if err != nil {
		t.Fatal(err)
	}
	if one >= 1.0 {
		t.Fatalf("IL-1 speedup %.2f >= 1: one stream must not beat RTC", one)
	}
	if sixteen < 1.5 {
		t.Fatalf("IL-16 speedup %.2f < 1.5", sixteen)
	}
	if sixtyFour >= sixteen {
		t.Fatalf("IL-64 (%.2f) did not degrade from IL-16 (%.2f)", sixtyFour, sixteen)
	}
}

func TestFig12InterleavingHelpsAMF(t *testing.T) {
	tables := runQuick(t, "fig12")
	tb := tables[0]
	col, err := tb.ColumnIndex("il16-speedup")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tb.NumRows(); r++ {
		v, err := tb.CellFloat(r, col)
		if err != nil {
			t.Fatal(err)
		}
		if v < 1.2 {
			t.Fatalf("message row %d speedup %.2f < 1.2 (paper: ~1.6)", r, v)
		}
	}
}

func TestFig13MRWins(t *testing.T) {
	tables := runQuick(t, "fig13")
	tb := tables[0]
	col, err := tb.ColumnIndex("mr-speedup-vs-rtc")
	if err != nil {
		t.Fatal(err)
	}
	// The longest chain gains the most from MR.
	lastRow := tb.NumRows() - 1
	longest, err := tb.CellFloat(lastRow, col)
	if err != nil {
		t.Fatal(err)
	}
	shortest, err := tb.CellFloat(0, col)
	if err != nil {
		t.Fatal(err)
	}
	if longest < shortest {
		t.Fatalf("MR speedup shrank with chain length: %v -> %v", shortest, longest)
	}
	if longest < 2.0 {
		t.Fatalf("length-6 MR speedup %.2f < 2 (paper: ~6)", longest)
	}
}

func TestFig14ScalesWithCores(t *testing.T) {
	tables := runQuick(t, "fig14")
	tb := tables[0]
	// 64B row, cores 1 vs 4 (columns 1 and 3).
	oneCore, err := tb.CellFloat(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fourCores, err := tb.CellFloat(0, 3)
	if err != nil {
		// May be line-rate capped; skip numeric assertion then.
		t.Skipf("4-core cell not numeric (line rate reached): %v", err)
	}
	if fourCores < 3*oneCore {
		t.Fatalf("4 cores (%.1f) < 3x one core (%.1f): scaling not linear", fourCores, oneCore)
	}
}

func TestFig15UPFScalesAndBeatsRTC(t *testing.T) {
	tables := runQuick(t, "fig15")
	if len(tables) != 2 {
		t.Fatalf("fig15 tables = %d", len(tables))
	}
	cmp := tables[1]
	rtcCol := 1
	ilCol := 2
	for r := 0; r < cmp.NumRows(); r++ {
		rtcV, err := cmp.CellFloat(r, rtcCol)
		if err != nil {
			t.Fatal(err)
		}
		ilCell, err := cmp.Cell(r, ilCol)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(ilCell, "*") {
			continue // line rate: trivially >= RTC
		}
		ilV, err := cmp.CellFloat(r, ilCol)
		if err != nil {
			t.Fatal(err)
		}
		if ilV <= rtcV {
			t.Fatalf("row %d: GuNFu (%.1f) not above RTC (%.1f)", r, ilV, rtcV)
		}
	}
}

func TestAblations(t *testing.T) {
	tables := runQuick(t, "ablation")
	if len(tables) != 3 {
		t.Fatalf("ablation tables = %d", len(tables))
	}
	// Feature ladder: full config at least as fast as interleave-only.
	t1 := tables[0]
	col, err := t1.ColumnIndex("gbps")
	if err != nil {
		t.Fatal(err)
	}
	noPf, err := t1.CellFloat(0, col)
	if err != nil {
		t.Fatal(err)
	}
	full, err := t1.CellFloat(2, col)
	if err != nil {
		t.Fatal(err)
	}
	if full <= noPf {
		t.Fatalf("full scheduler (%.2f) not faster than no-prefetch (%.2f)", full, noPf)
	}
}

// streamCounter counts finished packet streams, the one kind it takes.
type streamCounter struct{ done uint64 }

func (c *streamCounter) Event(sim.TraceEvent)       { c.done++ }
func (c *streamCounter) TraceKinds() sim.TraceKinds { return sim.KindSet(sim.TraceStreamDone) }

// TestAblationsHonorTracer pins the Options.Tracer contract on the
// ablation matrix: every one of its 14 sweep points — including those
// on a sim.Config of their own — runs traced, so a tracer sees every
// warm-up and window packet finish.
func TestAblationsHonorTracer(t *testing.T) {
	ct := &streamCounter{}
	o := quick()
	o.Tracer = ct
	if _, err := Run("ablation", o); err != nil {
		t.Fatal(err)
	}
	const points, packets = 3 + 6 + 5, 2000 + 8000
	if ct.done != points*packets {
		t.Fatalf("tracer saw %d finished packets, want %d points x %d", ct.done, points, packets)
	}
}
