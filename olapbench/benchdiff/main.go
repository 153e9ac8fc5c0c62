// Command benchdiff compares two sets of olapbench records, before and
// after a change, metric by metric and workload by workload.
//
// Usage, from the repository root:
//
//	go -C olapbench run ./benchdiff [-bench BENCHMARK.json] before.jsonl after.jsonl
//
// Each file holds olapbench output: any lines that are not records (the
// result lines, logs) are skipped, so captured standard output works as
// it is. For every end-to-end metric it prints each side's median and
// quartiles over the runs, the change of the medians, the metric's bound
// from BENCHMARK.json, and a verdict. For the traced per-layer metrics it
// prints the medians and names the layer whose self time moved most.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

const recordSchema = "olapbench/1"

// value is one metric of a record.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the part of an olapbench record benchdiff reads.
type record struct {
	Schema   string           `json:"schema"`
	Workload string           `json:"workload"`
	Correct  bool             `json:"correct"`
	EndToEnd map[string]value `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer"`
}

// bench is the part of BENCHMARK.json benchdiff reads.
type bench struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfTimeMetrics are the per-layer self times, with the factor that
// converts each to milliseconds.
var selfTimeMetrics = map[string]float64{
	"cube.base_values_ms":    1,
	"core.compile_ms":        1,
	"core.scan_ms":           1,
	"core.assemble_ms":       1,
	"core.inc_append_ms":     1,
	"core.inc_snapshot_ms":   1,
	"table.read_csv_ms":      1,
	"sqlext.parse_us":        1e-3,
	"sqlext.translate_us":    1e-3,
	"optimizer.optimize_us":  1e-3,
	"optimizer.exec_self_ms": 1,
	"server.self_ms":         1,
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-bench BENCHMARK.json] before.jsonl after.jsonl")
		os.Exit(2)
	}
	if err := run(os.Stdout, *benchPath, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, benchPath, beforePath, afterPath string) error {
	var b bench
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	before, err := readRecords(beforePath)
	if err != nil {
		return err
	}
	after, err := readRecords(afterPath)
	if err != nil {
		return err
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]record(nil), before...), after...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wl := range names {
		bw, aw := byWorkload(before, wl), byWorkload(after, wl)
		fmt.Fprintf(w, "== %s: %d runs before, %d after\n", wl, len(bw), len(aw))
		for _, m := range b.EndToEnd {
			x, y := collect(bw, m.Name, false), collect(aw, m.Name, false)
			if len(x) == 0 || len(y) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-18s %s -> %s  %+7.1f%%  bound %.0f%%  %s\n", m.Name,
				summary(x), summary(y), change(x, y)*100, m.Bound*100, verdict(x, y, m.Better, m.Bound))
		}
		printLayers(w, bw, aw)
	}
	return nil
}

// printLayers prints the per-layer medians of traced runs and the layer
// whose self time moved most.
func printLayers(w io.Writer, bw, aw []record) {
	keys := map[string]bool{}
	for _, r := range append(append([]record(nil), bw...), aw...) {
		for k := range r.PerLayer {
			keys[k] = true
		}
	}
	if len(keys) == 0 {
		return
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	moved, most := "", 0.0
	for _, k := range names {
		x, y := collect(bw, k, true), collect(aw, k, true)
		if len(x) == 0 || len(y) == 0 {
			continue
		}
		mx, my := median(x), median(y)
		fmt.Fprintf(w, "  %-32s %12.4g -> %-12.4g\n", k, mx, my)
		if f, ok := selfTimeMetrics[k]; ok && math.Abs(my-mx)*f > most {
			moved, most = k, math.Abs(my-mx)*f
		}
	}
	if moved != "" {
		fmt.Fprintf(w, "  self time moved most: %s (%.3f ms per request)\n", moved, most)
	}
}

// readRecords reads every olapbench record of a file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r record
		if json.Unmarshal([]byte(line), &r) != nil || r.Schema != recordSchema {
			continue // not a record: a result line or other output
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no olapbench records")
	}
	return out, nil
}

func byWorkload(rs []record, wl string) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == wl {
			out = append(out, r)
		}
	}
	return out
}

// collect returns one metric's values over the records.
func collect(rs []record, name string, layer bool) []float64 {
	var out []float64
	for _, r := range rs {
		src := r.EndToEnd
		if layer {
			src = r.PerLayer
		}
		if v, ok := src[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method),
// which is how the benchmark's spread is defined.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], median(s), q[2]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary renders a side as "median [q1, q3] spread".
func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	spread := 0.0
	if q2 != 0 {
		spread = (q3 - q1) / q2
	}
	return fmt.Sprintf("%10.4g [%.4g, %.4g] spread %.3f", q2, q1, q3, spread)
}

// change is the relative change of the medians.
func change(x, y []float64) float64 {
	mx := median(x)
	if mx == 0 {
		return 0
	}
	return (median(y) - mx) / mx
}

// verdict says whether the after side is worse than the bound allows,
// better beyond the before side's own spread, or neither.
func verdict(x, y []float64, better string, bound float64) string {
	c := change(x, y)
	worse := c
	if better == "higher" {
		worse = -c
	}
	q1, q2, q3 := quartiles(x)
	spread := 0.0
	if q2 != 0 {
		spread = (q3 - q1) / q2
	}
	switch {
	case worse > bound:
		return "WORSE beyond bound"
	case -worse > spread && -worse > 0:
		return "better beyond spread"
	default:
		return "within bound"
	}
}
