package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestRunReportsRegressionAndMovedLayer(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	benchPath := write("BENCHMARK.json", `{"end_to_end":[{"name":"query_p99_ms","unit":"ms","better":"lower","bound":0.1}]}`)
	rec := func(p99, cube, parse float64) string {
		return `{"schema":"olapbench/1","workload":"groupby","end_to_end":{"query_p99_ms":{"value":` +
			ftoa(p99) + `,"unit":"ms"}},"per_layer":{"cube.base_values_ms":{"value":` + ftoa(cube) +
			`,"unit":"ms"},"sqlext.parse_us":{"value":` + ftoa(parse) + `,"unit":"us"}}}` + "\n"
	}
	before := write("before.jsonl", rec(100, 5, 10)+"not a record\n"+rec(102, 5, 10)+rec(98, 5, 10))
	after := write("after.jsonl", rec(130, 2, 11)+rec(131, 2, 11)+rec(129, 2, 11))
	var out bytes.Buffer
	if err := run(&out, benchPath, before, after); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"3 runs before, 3 after", "WORSE beyond bound", "self time moved most: cube.base_values_ms"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
