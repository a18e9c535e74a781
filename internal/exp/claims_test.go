package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// The paper's claims as predicates over the checked-in quick tables.
// The quick-table tests pin bytes; these pin shapes, so a regeneration
// that keeps the tables well-formed but turns a reproduced claim into
// something else fails here, quoting the claim it breaks.

// fig10Paper is EXPERIMENTS.md's "Paper:" sentence for Figure 10.
const fig10Paper = "Paper: optimal at 16–32 NFTasks, degradation at 64 (cache contention); " +
	"RTC's L1 utilization decays with rule count while GuNFu's stays stable."

// quickTables parses testdata/quick/<name>.txt back into its tables.
// Each block is a title line, a header line, a rule of dashes and rows
// up to a blank line; cells are whitespace-separated.
func quickTables(t *testing.T, name string) []*stats.Table {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "quick", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	var tables []*stats.Table
	for _, block := range strings.Split(strings.TrimSpace(string(raw)), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) < 3 || strings.Trim(lines[2], "-") != "" {
			t.Fatalf("%s: block %q is not title, header, rule, rows", name, lines[0])
		}
		tb := stats.NewTable(lines[0], strings.Fields(lines[1])...)
		for _, row := range lines[3:] {
			tb.AddRow(strings.Fields(row)...)
		}
		tables = append(tables, tb)
	}
	return tables
}

// column returns the named column's cells as numbers, a trailing "%"
// dropped, in row order.
func column(t *testing.T, tb *stats.Table, name string) []float64 {
	t.Helper()
	col, err := tb.ColumnIndex(name)
	if err != nil {
		t.Fatalf("%s: %v", tb.Title, err)
	}
	vals := make([]float64, tb.NumRows())
	for r := range vals {
		s, _ := tb.Cell(r, col)
		if vals[r], err = strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64); err != nil {
			t.Fatalf("%s: row %d %s: %v", tb.Title, r, name, err)
		}
	}
	return vals
}

// fig10Shape is what the Fig. 10 claims read: 10(a)'s throughput per
// config (RTC, IL-<tasks>) and 10(b)'s L1 hit rates, in percent, over
// the PDR sweep.
type fig10Shape struct {
	configs []string
	gbps    []float64
	rtcL1   []float64
	il16L1  []float64
}

func readFig10(t *testing.T) fig10Shape {
	t.Helper()
	tables := quickTables(t, "fig10")
	if len(tables) != 2 {
		t.Fatalf("fig10: %d tables, want 10(a) and 10(b)", len(tables))
	}
	a, b := tables[0], tables[1]
	s := fig10Shape{gbps: column(t, a, "gbps"), rtcL1: column(t, b, "rtc-l1hit"), il16L1: column(t, b, "il16-l1hit")}
	for r := range a.NumRows() {
		c, _ := a.Cell(r, 0)
		s.configs = append(s.configs, c)
	}
	return s
}

// fig10Violations returns one message per Fig. 10 claim the shape
// breaks. Quick scale: 10(a) at 2^11 sessions x 16 PDRs, 10(b) over
// 2, 16 and 64 PDRs.
func fig10Violations(s fig10Shape) []string {
	var out []string
	fail := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...)+"\n  "+fig10Paper)
	}
	gbps := func(config string) float64 {
		i := slices.Index(s.configs, config)
		if i < 0 {
			fail("Fig. 10(a): no %s row", config)
			return 0
		}
		return s.gbps[i]
	}
	rtc := gbps("RTC")
	if il1 := gbps("IL-1"); il1 >= rtc {
		fail("Fig. 10(a): IL-1 reads %.2f Gbit/s, not below RTC's %.2f: one NFTask has nothing to overlap", il1, rtc)
	}
	if il4 := gbps("IL-4"); il4 <= rtc {
		fail("Fig. 10(a): IL-4 reads %.2f Gbit/s, not above RTC's %.2f", il4, rtc)
	}
	best, bestGbps := "", 0.0
	for i, c := range s.configs {
		if strings.HasPrefix(c, "IL-") && s.gbps[i] > bestGbps {
			best, bestGbps = c, s.gbps[i]
		}
	}
	if best != "IL-16" && best != "IL-32" {
		fail("Fig. 10(a): the best depth is %s (%.2f Gbit/s), not 16 or 32 NFTasks", best, bestGbps)
	}
	if il64 := gbps("IL-64"); il64 >= bestGbps {
		fail("Fig. 10(a): IL-64 reads %.2f Gbit/s, not below the best depth's %.2f", il64, bestGbps)
	}
	for i, hit := range s.il16L1 {
		if hit < 99 {
			fail("Fig. 10(b): IL-16's L1 hit rate is %.1f%% at PDR row %d, below 99%%", hit, i)
		}
	}
	for i := 1; i < len(s.rtcL1); i++ {
		if s.rtcL1[i] >= s.rtcL1[i-1] {
			fail("Fig. 10(b): RTC's L1 hit rate does not fall as PDRs grow: %.1f%% after %.1f%% (PDR rows %d, %d)",
				s.rtcL1[i], s.rtcL1[i-1], i-1, i)
		}
	}
	return out
}

func TestFig10Claims(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(strings.Fields(string(doc)), " "), fig10Paper) {
		t.Errorf("EXPERIMENTS.md no longer says %q", fig10Paper)
	}
	for _, v := range fig10Violations(readFig10(t)) {
		t.Error(v)
	}
}

// TestFig10ClaimsCatchFlips flips each claimed row of the checked-in
// table in turn: every flip must break at least one predicate.
func TestFig10ClaimsCatchFlips(t *testing.T) {
	at := func(s fig10Shape, config string) int { return slices.Index(s.configs, config) }
	flips := map[string]func(s *fig10Shape){
		"IL-1 reaches RTC":                         func(s *fig10Shape) { s.gbps[at(*s, "IL-1")] = s.gbps[at(*s, "RTC")] },
		"IL-4 falls to RTC":                        func(s *fig10Shape) { s.gbps[at(*s, "IL-4")] = s.gbps[at(*s, "RTC")] },
		"IL-8 is best":                             func(s *fig10Shape) { s.gbps[at(*s, "IL-8")] = slices.Max(s.gbps) + 1 },
		"IL-64 is best":                            func(s *fig10Shape) { s.gbps[at(*s, "IL-64")] = slices.Max(s.gbps) + 1 },
		"IL-64 ties the best":                      func(s *fig10Shape) { s.gbps[at(*s, "IL-64")] = slices.Max(s.gbps) },
		"IL-16 L1 below 99% at the last PDR count": func(s *fig10Shape) { s.il16L1[len(s.il16L1)-1] = 98.9 },
		"RTC L1 rises with PDRs":                   func(s *fig10Shape) { slices.Reverse(s.rtcL1) },
	}
	for name, flip := range flips {
		s := readFig10(t)
		flip(&s)
		if len(fig10Violations(s)) == 0 {
			t.Errorf("flip %q breaks no Fig. 10 predicate", name)
		}
	}
}
