package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// infoPrefix marks the line a contract run prints before its result
// with the run's sample counts and sizes.
const infoPrefix = "info: "

// selfRun performs one contract run of this binary in a process of its
// own, so every run starts from the same heap and reports its own peak
// memory, and returns the parsed result and info lines.
func selfRun(workload string, o runOpts) (contractLine, map[string]any, error) {
	exe, err := os.Executable()
	if err != nil {
		return contractLine{}, nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace, "--out", o.outDir,
	}
	if o.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return contractLine{}, nil, fmt.Errorf("%s seed %d: %w\n%s", workload, o.seed, err, stderr.Bytes())
	}
	var line contractLine
	info := map[string]any{}
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), infoPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &info); err != nil {
				return line, nil, fmt.Errorf("%s: info line: %w", workload, err)
			}
			continue
		}
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return line, info, nil
}

// values flattens a result line to metric name → value.
func (l contractLine) values() metricValues {
	out := make(metricValues, len(l.Metrics))
	for name, r := range l.Metrics {
		out[name] = r.Value
	}
	return out
}

// environment records what the numbers were measured on.
func environment(o runOpts, commit string) map[string]any {
	return map[string]any{
		"commit": commit, "seed": o.seed, "seconds": o.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// setStats summarizes one set's values of one metric.
type setStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the quantity the bound is held against.
	Spread float64 `json:"spread"`
}

func summarize(xs []float64) setStats {
	s := setStats{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
	s.Spread = ratio(s.Q3-s.Q1, s.Median)
	return s
}

// aaRow is the A/A verdict for one metric on one workload.
type aaRow struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Bound    float64  `json:"bound"`
	A        setStats `json:"a"`
	B        setStats `json:"b"`
	// Worse is how much worse B's median reads than A's, as a share of
	// A's; negative when B reads better.
	Worse float64 `json:"worse"`
	// Identical reports that every run of B equals its same-seed run of
	// A to the last digit, as the simulated metrics must.
	Identical bool `json:"identical"`
	Pass      bool `json:"pass"`
}

// aaBound is the evidence behind one end-to-end metric's bound: the
// widest quartile spread either set showed on any workload, the largest
// drift between the two sets' medians, and twice the spread, which is
// the rule the bounds in metrics.go follow (README.md, "Noise").
type aaBound struct {
	Metric         string   `json:"metric"`
	Bound          float64  `json:"bound"`
	WorstSpread    float64  `json:"worst_spread"`
	WorstSpreadOn  string   `json:"worst_spread_on"`
	WorstDrift     float64  `json:"worst_median_drift"`
	WorstDriftOn   string   `json:"worst_median_drift_on"`
	TwiceWorst     float64  `json:"twice_worst_spread"`
	ResolvesATenth []string `json:"workloads_resolving_a_tenth"`
}

// boundEvidence folds the rows of one metric into its aaBound. A
// workload resolves a tenth when twice its own spread stays within 0.10:
// a 10 % regression there is larger than the noise between two sets.
func boundEvidence(d metricDef, rows []aaRow) aaBound {
	b := aaBound{Metric: d.Name, Bound: d.Bound, ResolvesATenth: []string{}}
	for _, r := range rows {
		if r.Metric != d.Name {
			continue
		}
		spread := math.Max(r.A.Spread, r.B.Spread)
		if spread > b.WorstSpread {
			b.WorstSpread, b.WorstSpreadOn = spread, r.Workload
		}
		if drift := math.Abs(r.Worse); drift > b.WorstDrift {
			b.WorstDrift, b.WorstDriftOn = drift, r.Workload
		}
		if 2*spread <= 0.10 {
			b.ResolvesATenth = append(b.ResolvesATenth, r.Workload)
		}
	}
	b.TwiceWorst = 2 * b.WorstSpread
	return b
}

// runAA runs two interleaved sets of n untraced runs per workload — A
// then B on seed, A then B on seed+1, … — of this same binary, and
// reports for every end-to-end metric each set's median and quartiles
// and whether the pair stays within the metric's bound: both spreads
// (setup_s excepted, as in the acceptance rule) and B's median against
// A's. The report is one JSON object on standard output.
func runAA(n int, o runOpts, commit string) error {
	type key struct{ workload, metric string }
	a, b := map[key][]float64{}, map[key][]float64{}
	var failed uint64
	for i := 0; i < n; i++ {
		run := o
		run.seed = o.seed + int64(i)
		run.trace = false
		for _, w := range workloads {
			for _, set := range []map[key][]float64{a, b} {
				line, _, err := selfRun(w.name, run)
				if err != nil {
					return err
				}
				failed += line.Failed
				for name, v := range line.values() {
					k := key{w.name, name}
					set[k] = append(set[k], v)
				}
			}
		}
		fmt.Fprintf(o.log, "aa: pair %d of %d done\n", i+1, n)
	}
	var rows []aaRow
	ok := failed == 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			row := aaRow{Workload: w.name, Metric: d.Name, Bound: d.Bound, A: summarize(a[k]), B: summarize(b[k])}
			row.Worse = ratio(row.B.Median-row.A.Median, row.A.Median)
			if d.Better == "higher" {
				row.Worse = -row.Worse
			}
			row.Identical = true
			for i := range a[k] {
				row.Identical = row.Identical && a[k][i] == b[k][i]
			}
			row.Pass = row.Worse <= d.Bound &&
				(d.Name == "setup_s" || (row.A.Spread <= d.Bound && row.B.Spread <= d.Bound))
			if strings.HasPrefix(d.Name, "sim_") {
				row.Pass = row.Pass && row.Identical
			}
			ok = ok && row.Pass
			rows = append(rows, row)
			fmt.Fprintf(o.log, "%-15s %-26s A %12.6g (%5.2f%%)  B %12.6g (%5.2f%%)  worse %6.2f%%  bound %4.1f%%  %s\n",
				w.name, d.Name, row.A.Median, 100*row.A.Spread, row.B.Median, 100*row.B.Spread,
				100*row.Worse, 100*d.Bound, map[bool]string{true: "pass", false: "FAIL"}[row.Pass])
		}
	}
	var bounds []aaBound
	for _, d := range endToEnd {
		b := boundEvidence(d, rows)
		bounds = append(bounds, b)
		fmt.Fprintf(o.log, "%-26s bound %4.1f%%  worst spread %5.2f%% (%s)  worst drift %5.2f%% (%s)  resolves 10%% on %v\n",
			d.Name, 100*d.Bound, 100*b.WorstSpread, b.WorstSpreadOn, 100*b.WorstDrift, b.WorstDriftOn, b.ResolvesATenth)
	}
	report := map[string]any{
		"environment": environment(o, commit), "runs_per_set": n, "failed_operations": failed,
		"pass": ok, "rows": rows, "bounds": bounds,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("A/A: two sets of the same code disagree beyond a bound")
	}
	return nil
}

// writeBaseline runs every workload once untraced and once traced and
// writes the numbers, with what they were measured on, as one point of
// the repo's performance trajectory.
func writeBaseline(path string, o runOpts, commit string) error {
	point := map[string]any{"environment": environment(o, commit)}
	per := map[string]any{}
	for _, w := range workloads {
		entry := map[string]any{}
		for _, traced := range []bool{false, true} {
			run := o
			run.trace = traced
			line, info, err := selfRun(w.name, run)
			if err != nil {
				return err
			}
			kind := "end_to_end"
			if traced {
				kind = "per_layer"
			}
			entry[kind] = line.values()
			entry[kind+"_run"] = map[string]any{
				"attempted": line.Attempted, "failed": line.Failed, "samples": info,
			}
		}
		per[w.name] = entry
	}
	point["workloads"] = per
	b, err := json.MarshalIndent(point, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
