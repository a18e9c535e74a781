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

// EXPERIMENTS.md's "Paper:" sentences, which every violation quotes.
const (
	fig2Paper = "Paper: as PFCP sessions and PDRs grow, the per-packet RTC UPF's " +
		"throughput falls; profiling attributes it to flow-matching and state access misses."
	fig10Paper = "Paper: optimal at 16–32 NFTasks, degradation at 64 (cache contention); " +
		"RTC's L1 utilization decays with rule count while GuNFu's stays stable."
	fig11Paper = "Paper: 1 NFTask is *worse* than RTC; benefits appear ≥4; 16 optimal; 64 degrades."
	fig3Paper  = "Paper: the >20-cache-line UE context makes state access dominate AMF " +
		"message processing; heavier messages touch more lines and cost more."
	fig12Paper = "Paper: ~60% improvement on registration processing; data packing adds " +
		"~5% by needing fewer cache lines for the same state."
	fig13Paper = "Paper: interleaving, then data packing, then redundant matching removal " +
		"(~6× over RTC at length 6, having eliminated the pointer-chasing matching of five NFs); " +
		"IPC shows the efficiency gap."
)

// requirePaper fails unless EXPERIMENTS.md still says sentence, up to
// line breaks.
func requirePaper(t *testing.T, sentence string) {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(strings.Fields(string(doc)), " "), sentence) {
		t.Errorf("EXPERIMENTS.md no longer says %q", sentence)
	}
}

// violations collects claim violations, each followed by the paper
// sentence it breaks.
type violations struct {
	paper string
	out   []string
}

func (v *violations) fail(format string, args ...any) {
	v.out = append(v.out, fmt.Sprintf(format, args...)+"\n  "+v.paper)
}

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

// depthShape is one task-depth sweep: throughput per config (RTC,
// IL-<tasks>), in table order.
type depthShape struct {
	configs []string
	gbps    []float64
}

// labels returns the table's first column, the row labels, in row
// order.
func labels(tb *stats.Table) []string {
	out := make([]string, tb.NumRows())
	for r := range out {
		out[r], _ = tb.Cell(r, 0)
	}
	return out
}

func readDepths(t *testing.T, tb *stats.Table) depthShape {
	t.Helper()
	return depthShape{configs: labels(tb), gbps: column(t, tb, "gbps")}
}

// check adds the interleaving-depth claims Figs. 10(a) and 11 share:
// one NFTask is below RTC, four are above it, the best depth is 16 or
// 32 NFTasks, and 64 are below the best.
func (s depthShape) check(v *violations, fig string) {
	gbps := func(config string) float64 {
		i := slices.Index(s.configs, config)
		if i < 0 {
			v.fail("%s: no %s row", fig, config)
			return 0
		}
		return s.gbps[i]
	}
	rtc := gbps("RTC")
	if il1 := gbps("IL-1"); il1 >= rtc {
		v.fail("%s: IL-1 reads %.2f Gbit/s, not below RTC's %.2f: one NFTask has nothing to overlap", fig, il1, rtc)
	}
	if il4 := gbps("IL-4"); il4 <= rtc {
		v.fail("%s: IL-4 reads %.2f Gbit/s, not above RTC's %.2f", fig, il4, rtc)
	}
	best, bestGbps := "", 0.0
	for i, c := range s.configs {
		if strings.HasPrefix(c, "IL-") && s.gbps[i] > bestGbps {
			best, bestGbps = c, s.gbps[i]
		}
	}
	if best != "IL-16" && best != "IL-32" {
		v.fail("%s: the best depth is %s (%.2f Gbit/s), not 16 or 32 NFTasks", fig, best, bestGbps)
	}
	// The paper reads this drop as cache contention. At the default
	// 2048-B rx slot stride it is mostly header-line aliasing: every
	// packet header maps to one of two L1 sets (ROADMAP item 2), and at
	// a 2304-B stride the NAT's 16 → 64 loss shrinks from 15.6 % to
	// 1.7 %. The predicate holds the shape the tables show, not that
	// cause.
	if il64 := gbps("IL-64"); il64 >= bestGbps {
		v.fail("%s: IL-64 reads %.2f Gbit/s, not below the best depth's %.2f", fig, il64, bestGbps)
	}
}

// fig10Shape is what the Fig. 10 claims read: 10(a)'s throughput per
// config and 10(b)'s L1 hit rates, in percent, over the PDR sweep.
type fig10Shape struct {
	depthShape
	rtcL1  []float64
	il16L1 []float64
}

func readFig10(t *testing.T) fig10Shape {
	t.Helper()
	tables := quickTables(t, "fig10")
	if len(tables) != 2 {
		t.Fatalf("fig10: %d tables, want 10(a) and 10(b)", len(tables))
	}
	a, b := tables[0], tables[1]
	return fig10Shape{depthShape: readDepths(t, a), rtcL1: column(t, b, "rtc-l1hit"), il16L1: column(t, b, "il16-l1hit")}
}

// fig10Violations returns one message per Fig. 10 claim the shape
// breaks. Quick scale: 10(a) at 2^11 sessions x 16 PDRs, 10(b) over
// 2, 16 and 64 PDRs.
func fig10Violations(s fig10Shape) []string {
	v := violations{paper: fig10Paper}
	s.check(&v, "Fig. 10(a)")
	for i, hit := range s.il16L1 {
		if hit < 99 {
			v.fail("Fig. 10(b): IL-16's L1 hit rate is %.1f%% at PDR row %d, below 99%%", hit, i)
		}
	}
	for i := 1; i < len(s.rtcL1); i++ {
		if s.rtcL1[i] >= s.rtcL1[i-1] {
			v.fail("Fig. 10(b): RTC's L1 hit rate does not fall as PDRs grow: %.1f%% after %.1f%% (PDR rows %d, %d)",
				s.rtcL1[i], s.rtcL1[i-1], i-1, i)
		}
	}
	return v.out
}

func TestFig10Claims(t *testing.T) {
	requirePaper(t, fig10Paper)
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

func readFig11(t *testing.T) depthShape {
	t.Helper()
	tables := quickTables(t, "fig11")
	if len(tables) != 1 {
		t.Fatalf("fig11: %d tables, want 1", len(tables))
	}
	return readDepths(t, tables[0])
}

// fig11Violations returns one message per Fig. 11 claim the NAT's task
// sweep breaks (quick scale: 2^13 flows, 64 B).
func fig11Violations(s depthShape) []string {
	v := violations{paper: fig11Paper}
	s.check(&v, "Fig. 11")
	return v.out
}

func TestFig11Claims(t *testing.T) {
	requirePaper(t, fig11Paper)
	for _, v := range fig11Violations(readFig11(t)) {
		t.Error(v)
	}
}

// TestFig11ClaimsCatchFlips flips each claimed row of the checked-in
// table in turn: every flip must break at least one predicate.
func TestFig11ClaimsCatchFlips(t *testing.T) {
	at := func(s depthShape, config string) int { return slices.Index(s.configs, config) }
	flips := map[string]func(s *depthShape){
		"IL-1 reaches RTC":    func(s *depthShape) { s.gbps[at(*s, "IL-1")] = s.gbps[at(*s, "RTC")] },
		"IL-4 falls to RTC":   func(s *depthShape) { s.gbps[at(*s, "IL-4")] = s.gbps[at(*s, "RTC")] },
		"IL-8 is best":        func(s *depthShape) { s.gbps[at(*s, "IL-8")] = slices.Max(s.gbps) + 1 },
		"IL-64 is best":       func(s *depthShape) { s.gbps[at(*s, "IL-64")] = slices.Max(s.gbps) + 1 },
		"IL-64 ties the best": func(s *depthShape) { s.gbps[at(*s, "IL-64")] = slices.Max(s.gbps) },
	}
	for name, flip := range flips {
		s := readFig11(t)
		flip(&s)
		if len(fig11Violations(s)) == 0 {
			t.Errorf("flip %q breaks no Fig. 11 predicate", name)
		}
	}
}

// fig2Shape is what the Fig. 2 claims read: the RTC UPF's throughput
// over 2(a)'s session sweep and 2(b)'s PDR sweep, in table order.
type fig2Shape struct {
	bySessions, byPDRs []float64
}

func readFig2(t *testing.T) fig2Shape {
	t.Helper()
	tables := quickTables(t, "fig2")
	if len(tables) != 2 {
		t.Fatalf("fig2: %d tables, want 2(a) and 2(b)", len(tables))
	}
	return fig2Shape{bySessions: column(t, tables[0], "gbps"), byPDRs: column(t, tables[1], "gbps")}
}

// fig2Violations returns one message per Fig. 2 claim the shape
// breaks: Gbit/s does not rise with sessions (quick scale: 512, 2048,
// 8192 at 16 PDRs) or with PDRs (2, 16, 64 at 2^11 sessions).
func fig2Violations(s fig2Shape) []string {
	v := violations{paper: fig2Paper}
	for _, sweep := range []struct {
		fig, of string
		gbps    []float64
	}{{"Fig. 2(a)", "sessions", s.bySessions}, {"Fig. 2(b)", "PDRs", s.byPDRs}} {
		for i := 1; i < len(sweep.gbps); i++ {
			if sweep.gbps[i] > sweep.gbps[i-1] {
				v.fail("%s: RTC throughput rises with %s: %.2f Gbit/s after %.2f (rows %d, %d)",
					sweep.fig, sweep.of, sweep.gbps[i], sweep.gbps[i-1], i-1, i)
			}
		}
	}
	return v.out
}

func TestFig2Claims(t *testing.T) {
	requirePaper(t, fig2Paper)
	for _, v := range fig2Violations(readFig2(t)) {
		t.Error(v)
	}
}

// TestFig2ClaimsCatchFlips flips each sweep of the checked-in tables:
// every flip must break at least one predicate.
func TestFig2ClaimsCatchFlips(t *testing.T) {
	rise := func(g []float64) { g[len(g)-1] = g[len(g)-2] + 0.01 }
	flips := map[string]func(s *fig2Shape){
		"rises with sessions":      func(s *fig2Shape) { slices.Reverse(s.bySessions) },
		"rises with PDRs":          func(s *fig2Shape) { slices.Reverse(s.byPDRs) },
		"last session point rises": func(s *fig2Shape) { rise(s.bySessions) },
		"last PDR point rises":     func(s *fig2Shape) { rise(s.byPDRs) },
	}
	for name, flip := range flips {
		s := readFig2(t)
		flip(&s)
		if len(fig2Violations(s)) == 0 {
			t.Errorf("flip %q breaks no Fig. 2 predicate", name)
		}
	}
}

// fig3Shape is what the Fig. 3 claims read: per message, cycles, the
// state-access share of cycles in percent, and LLC misses.
type fig3Shape struct {
	messages                     []string
	cycles, stateAccess, llcMiss []float64
}

func readFig3(t *testing.T) fig3Shape {
	t.Helper()
	tables := quickTables(t, "fig3")
	if len(tables) != 1 {
		t.Fatalf("fig3: %d tables, want 1", len(tables))
	}
	tb := tables[0]
	return fig3Shape{messages: labels(tb), cycles: column(t, tb, "cyc/msg"),
		stateAccess: column(t, tb, "state-access%"), llcMiss: column(t, tb, "llcmiss/msg")}
}

// fig3Violations returns one message per Fig. 3 claim the RTC AMF's
// messages break: state access is at least 60% of every message's
// cycles, and a message with strictly more LLC misses costs strictly
// more cycles (quick scale: 2^17 UEs).
func fig3Violations(s fig3Shape) []string {
	v := violations{paper: fig3Paper}
	for i, m := range s.messages {
		if s.stateAccess[i] < 60 {
			v.fail("Fig. 3: state access is %.1f%% of %s's cycles, below 60%%", s.stateAccess[i], m)
		}
		for j, o := range s.messages {
			if s.llcMiss[i] > s.llcMiss[j] && s.cycles[i] <= s.cycles[j] {
				v.fail("Fig. 3: %s misses more (%.2f LLC/msg vs %.2f) yet costs no more than %s (%.1f cyc/msg vs %.1f)",
					m, s.llcMiss[i], s.llcMiss[j], o, s.cycles[i], s.cycles[j])
			}
		}
	}
	return v.out
}

func TestFig3Claims(t *testing.T) {
	requirePaper(t, fig3Paper)
	for _, v := range fig3Violations(readFig3(t)) {
		t.Error(v)
	}
}

// TestFig3ClaimsCatchFlips flips each claim of the checked-in table in
// turn: every flip must break at least one predicate.
func TestFig3ClaimsCatchFlips(t *testing.T) {
	at := func(s fig3Shape, m string) int { return slices.Index(s.messages, m) }
	flips := map[string]func(s *fig3Shape){
		"state access below 60% on the lightest message": func(s *fig3Shape) { s.stateAccess[at(*s, "RegistrationRequest")] = 59.9 },
		"the heaviest message is the cheapest":           func(s *fig3Shape) { s.cycles[at(*s, "RegistrationComplete")] = slices.Min(s.cycles) },
		"cost ignores misses":                            func(s *fig3Shape) { slices.Reverse(s.cycles) },
		"two messages of unequal misses cost the same": func(s *fig3Shape) {
			s.cycles[at(*s, "PDUSessionRequest")] = s.cycles[at(*s, "AuthResponse")]
		},
	}
	for name, flip := range flips {
		s := readFig3(t)
		flip(&s)
		if len(fig3Violations(s)) == 0 {
			t.Errorf("flip %q breaks no Fig. 3 predicate", name)
		}
	}
}

// fig12Shape is what the Fig. 12 claims read: per message, IL-16's
// speedup over RTC, data packing's gain over IL-16, and both runs' LLC
// misses per message.
type fig12Shape struct {
	messages                         []string
	speedup, dpGain, rtcLLC, il16LLC []float64
}

func readFig12(t *testing.T) fig12Shape {
	t.Helper()
	tables := quickTables(t, "fig12")
	if len(tables) != 1 {
		t.Fatalf("fig12: %d tables, want 1", len(tables))
	}
	tb := tables[0]
	return fig12Shape{messages: labels(tb), speedup: column(t, tb, "il16-speedup"), dpGain: column(t, tb, "dp-gain"),
		rtcLLC: column(t, tb, "rtc-llcm/msg"), il16LLC: column(t, tb, "il16-llcm/msg")}
}

// fig12Violations returns one message per Fig. 12 claim the AMF's
// messages break: IL-16 beats RTC on every message with fewer LLC
// misses, and data packing does not lose on the full call flow (quick
// scale: 2^17 UEs). Single messages may regress under packing, as
// EXPERIMENTS.md records for AuthResponse.
func fig12Violations(s fig12Shape) []string {
	v := violations{paper: fig12Paper}
	for i, m := range s.messages {
		if s.speedup[i] <= 1 {
			v.fail("Fig. 12: IL-16's speedup on %s is %.2f, not above 1", m, s.speedup[i])
		}
		if s.il16LLC[i] >= s.rtcLLC[i] {
			v.fail("Fig. 12: IL-16 takes %.2f LLC misses per %s, not below RTC's %.2f", s.il16LLC[i], m, s.rtcLLC[i])
		}
	}
	if i := slices.Index(s.messages, "FullCallFlow"); i < 0 {
		v.fail("Fig. 12: no FullCallFlow row")
	} else if s.dpGain[i] < 1 {
		v.fail("Fig. 12: data packing's gain on the full call flow is %.2f, below 1", s.dpGain[i])
	}
	return v.out
}

func TestFig12Claims(t *testing.T) {
	requirePaper(t, fig12Paper)
	for _, v := range fig12Violations(readFig12(t)) {
		t.Error(v)
	}
}

// TestFig12ClaimsCatchFlips flips each claim of the checked-in table
// in turn: every flip must break at least one predicate.
func TestFig12ClaimsCatchFlips(t *testing.T) {
	at := func(s fig12Shape, m string) int { return slices.Index(s.messages, m) }
	flips := map[string]func(s *fig12Shape){
		"IL-16 ties RTC on one message":       func(s *fig12Shape) { s.speedup[at(*s, "RegistrationRequest")] = 1 },
		"IL-16 misses as often as RTC":        func(s *fig12Shape) { s.il16LLC[at(*s, "SecModeComplete")] = s.rtcLLC[at(*s, "SecModeComplete")] },
		"data packing loses on the full flow": func(s *fig12Shape) { s.dpGain[at(*s, "FullCallFlow")] = 0.99 },
		"no full call flow row":               func(s *fig12Shape) { s.messages[at(*s, "FullCallFlow")] = "Flow" },
	}
	for name, flip := range flips {
		s := readFig12(t)
		flip(&s)
		if len(fig12Violations(s)) == 0 {
			t.Errorf("flip %q breaks no Fig. 12 predicate", name)
		}
	}
}

// fig13Configs are the compiler ladder's rungs, in 13(a)'s and 13(c)'s
// column order.
var fig13Configs = []string{"RTC", "IL-16", "+DP", "+DP+MR"}

// fig13Shape is what the Fig. 13 claims read: per chain length, each
// rung's Gbit/s (13(a)) and IPC (13(c)), and MR's speedup over RTC.
type fig13Shape struct {
	lengths   []string
	gbps, ipc [4][]float64
	mrSpeedup []float64
}

func readFig13(t *testing.T) fig13Shape {
	t.Helper()
	tables := quickTables(t, "fig13")
	if len(tables) != 2 {
		t.Fatalf("fig13: %d tables, want 13(a,b) and 13(c)", len(tables))
	}
	a, c := tables[0], tables[1]
	s := fig13Shape{lengths: labels(a), mrSpeedup: column(t, a, "mr-speedup-vs-rtc")}
	for i, prefix := range []string{"rtc", "il16", "il+dp", "il+dp+mr"} {
		s.gbps[i] = column(t, a, prefix+"-gbps")
		s.ipc[i] = column(t, c, prefix+"-ipc")
	}
	return s
}

// fig13Violations returns one message per Fig. 13 claim the SFC ladder
// breaks: at every chain length each rung is faster than the one below
// it, MR's speedup over RTC grows with length, and RTC's IPC is below
// every optimized rung's (quick scale: lengths 2, 4, 6).
func fig13Violations(s fig13Shape) []string {
	v := violations{paper: fig13Paper}
	for i, l := range s.lengths {
		for r := 1; r < len(fig13Configs); r++ {
			if s.gbps[r][i] <= s.gbps[r-1][i] {
				v.fail("Fig. 13(a): at length %s %s reads %.2f Gbit/s, not above %s's %.2f",
					l, fig13Configs[r], s.gbps[r][i], fig13Configs[r-1], s.gbps[r-1][i])
			}
			if s.ipc[0][i] >= s.ipc[r][i] {
				v.fail("Fig. 13(c): at length %s RTC's IPC %.2f is not below %s's %.2f",
					l, s.ipc[0][i], fig13Configs[r], s.ipc[r][i])
			}
		}
		if i > 0 && s.mrSpeedup[i] <= s.mrSpeedup[i-1] {
			v.fail("Fig. 13(b): MR's speedup over RTC does not grow with length: %.2f at %s after %.2f at %s",
				s.mrSpeedup[i], l, s.mrSpeedup[i-1], s.lengths[i-1])
		}
	}
	return v.out
}

func TestFig13Claims(t *testing.T) {
	requirePaper(t, fig13Paper)
	for _, v := range fig13Violations(readFig13(t)) {
		t.Error(v)
	}
}

// TestFig13ClaimsCatchFlips flips each claim of the checked-in tables
// in turn: every flip must break at least one predicate.
func TestFig13ClaimsCatchFlips(t *testing.T) {
	const rtc, il16, dp, mr = 0, 1, 2, 3
	flips := map[string]func(s *fig13Shape){
		"IL-16 ties RTC at length 2":      func(s *fig13Shape) { s.gbps[il16][0] = s.gbps[rtc][0] },
		"+DP below IL-16 at length 4":     func(s *fig13Shape) { s.gbps[dp][1] = s.gbps[il16][1] - 0.01 },
		"+DP+MR ties +DP at length 6":     func(s *fig13Shape) { s.gbps[mr][2] = s.gbps[dp][2] },
		"MR's speedup stops growing":      func(s *fig13Shape) { s.mrSpeedup[2] = s.mrSpeedup[1] },
		"MR's speedup shrinks":            func(s *fig13Shape) { slices.Reverse(s.mrSpeedup) },
		"RTC's IPC reaches +DP's":         func(s *fig13Shape) { s.ipc[rtc][1] = s.ipc[dp][1] },
		"RTC's IPC tops IL-16's at len 6": func(s *fig13Shape) { s.ipc[rtc][2] = s.ipc[il16][2] + 0.01 },
	}
	for name, flip := range flips {
		s := readFig13(t)
		flip(&s)
		if len(fig13Violations(s)) == 0 {
			t.Errorf("flip %q breaks no Fig. 13 predicate", name)
		}
	}
}
