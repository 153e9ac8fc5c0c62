package main

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"testing"

	"mdjoin/internal/core"
	"mdjoin/internal/optimizer"
	"mdjoin/internal/sqlext"
	"mdjoin/internal/table"
)

// smallDataset is a few thousand generated rows with a few append
// batches: enough groups for every template, small enough to run every
// query in milliseconds.
func smallDataset(t *testing.T, batches int) *dataset {
	t.Helper()
	rows, err := genSales(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := &dataset{sales: rows, csv: salesCSV(rows)}
	for i := 0; i < batches; i++ {
		b, err := genSales(deltaRows, deltaSeed(7, i))
		if err != nil {
			t.Fatal(err)
		}
		d.deltas = append(d.deltas, b)
		d.payloads = append(d.payloads, salesCSV(b))
	}
	return d
}

func loadCSV(t *testing.T, csv []byte) *table.Table {
	t.Helper()
	tb, err := table.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestOracleMatchesSQLExt checks the oracle against the engine on every
// template, so a disagreement in a benchmark run points at the engine or
// at a change of semantics, not at a broken oracle.
func TestOracleMatchesSQLExt(t *testing.T) {
	d := smallDataset(t, 0)
	cat := optimizer.Catalog{"Sales": loadCSV(t, d.csv)}
	for _, ts := range [][]queryTemplate{groupbyTemplates, emfTemplates, {adhocTemplate}} {
		for _, r := range allRequests(ts) {
			name := ts[r.tmpl].name
			want, err := oracleAnswer(name, r.year, d.sales, d.sales)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sqlext.RunContext(context.Background(), r.text(ts), cat, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := answerFromTable(res, ts[r.tmpl].keys)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := compareAnswers(got, want); err != nil {
				t.Errorf("%s %d: %v", name, r.year, err)
			}
			if len(want) == 0 {
				t.Errorf("%s %d: empty answer tests nothing", name, r.year)
			}
		}
	}
}

// TestOracleViewsAfterAppends checks the view oracle (groups frozen at
// creation, aggregates over every appended row) against the in-process
// view replay after each append.
func TestOracleViewsAfterAppends(t *testing.T) {
	d := smallDataset(t, 3)
	l, err := newLibIngest(loadCSV(t, d.csv), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(d.payloads); k++ {
		if k > 0 {
			if err := l.appendBatch(d.payloads[k-1]); err != nil {
				t.Fatal(err)
			}
		}
		for v := range viewNames {
			want, err := oracleAnswer(viewTemplates[v].name, 0, d.sales, d.prefix(k))
			if err != nil {
				t.Fatal(err)
			}
			res, err := l.readView(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := answerFromTable(res, viewTemplates[v].keys)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareAnswers(got, want); err != nil {
				t.Errorf("view %s after %d appends: %v", viewNames[v], k, err)
			}
		}
	}
}

// TestCompareAnswersDetectsDifferences makes sure the comparison is not
// vacuous: a changed value, a NULL, a missing and an extra group all fail.
func TestCompareAnswersDetectsDifferences(t *testing.T) {
	want := answer{"a": {num(1)}, "b": {{null: true}}}
	cases := map[string]answer{
		"value":   {"a": {num(1.001)}, "b": {{null: true}}},
		"null":    {"a": {num(1)}, "b": {num(0)}},
		"missing": {"a": {num(1)}},
		"extra":   {"a": {num(1)}, "b": {{null: true}}, "c": {num(2)}},
	}
	for name, got := range cases {
		if compareAnswers(got, want) == nil {
			t.Errorf("%s: difference not detected", name)
		}
	}
	if err := compareAnswers(answer{"a": {num(1 + 1e-12)}, "b": {{null: true}}}, want); err != nil {
		t.Errorf("summation-order noise rejected: %v", err)
	}
}

func TestAnswerFromJSON(t *testing.T) {
	body := []byte(`{"columns":["prod","month","t"],"rows":[[1,"ALL",2.5],[null,3,null]],"row_count":2}`)
	got, err := answerFromJSON(body, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := answer{"1|ALL": {num(2.5)}, "NULL|3": {{null: true}}}
	if err := compareAnswers(got, want); err != nil {
		t.Fatal(err)
	}
	if n, ok := rowCount(body); !ok || n != 2 {
		t.Fatalf("rowCount = %d, %v", n, ok)
	}
}

func TestSalesCSVKeepsFloats(t *testing.T) {
	rows := []sale{{cust: 1, prod: 2, day: 3, month: 4, year: 1996, state: "NY", amount: 5}}
	tb := loadCSV(t, salesCSV(rows))
	if v := tb.Rows[0][6]; v.Kind() != table.KindFloat || v.AsFloat() != 5 {
		t.Fatalf("sale read back as %v", v)
	}
}

// TestSelfTimes pins the span arithmetic: self time is the duration
// minus the union of the children's intervals clipped to the parent, and
// self allocation subtracts the children's.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100, Alloc: 1000},
		{ID: 1, Parent: 0, Start: 10, End: 30, Alloc: 200},
		{ID: 2, Parent: 0, Start: 20, End: 50, Alloc: 100}, // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120, Alloc: 0},  // runs past its parent
		{ID: 4, Parent: 2, Start: 25, End: 35, Alloc: 50},
	}
	self, alloc := selfTimes(spans)
	wantSelf := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	wantAlloc := []int64{700, 200, 50, 0, 50}
	for i := range spans {
		if self[i] != wantSelf[i] || alloc[i] != wantAlloc[i] {
			t.Errorf("span %d: self %d alloc %d, want %d and %d", i, self[i], alloc[i], wantSelf[i], wantAlloc[i])
		}
	}
}

// TestTracerNesting checks that begin/end build the parent links and
// request ids the reduction relies on.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.startRequest("query", "q")
	root := tr.begin("request")
	child := tr.begin("sqlext.Parse")
	tr.end(child)
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[child].Req != 0 || tr.spans[root].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	var nilTracer *tracer
	nilTracer.startRequest("query", "q")
	nilTracer.end(nilTracer.begin("x")) // a nil tracer records nothing and does not panic
}

// TestPercentileRule pins the sample rule: a percentile is reported only
// with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	if n := percentileSamples(0.99); n != 1000 {
		t.Errorf("p99 needs %d samples, want 1000", n)
	}
	if n := percentileSamples(0.5); n != 20 {
		t.Errorf("p50 needs %d samples, want 20", n)
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 999 samples reported")
	}
	xs = append(xs, 1000)
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, ok)
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Error("p50 of 19 samples reported")
	}
}

// TestTypical checks the geometric mean of per-kind medians.
func TestTypical(t *testing.T) {
	l := newLatencies(3)
	for _, v := range []float64{1, 1, 100} {
		l.add(0, v)
	}
	for _, v := range []float64{4, 4, 4} {
		l.add(1, v)
	}
	if got := l.typical(); math.Abs(got-2) > 1e-12 {
		t.Errorf("typical = %v, want 2 (kind 2 has no samples)", got)
	}
}

// TestRequestStreamRounds checks that every round sends each template
// once and that a seed replays the same sequence.
func TestRequestStreamRounds(t *testing.T) {
	a := newRequestStream(3, 0, groupbyTemplates)
	b := newRequestStream(3, 0, groupbyTemplates)
	for round := 0; round < 4; round++ {
		seen := map[int]bool{}
		for range groupbyTemplates {
			r := a.next()
			if r != b.next() {
				t.Fatal("same seed, different requests")
			}
			seen[r.tmpl] = true
		}
		if len(seen) != len(groupbyTemplates) {
			t.Fatalf("round %d sent %d distinct templates", round, len(seen))
		}
	}
}

// TestCheckSampleRange checks that a reader sample passes for any append
// count in its window and fails outside it.
func TestCheckSampleRange(t *testing.T) {
	d := smallDataset(t, 3)
	e, err := newIngestExpect(d)
	if err != nil {
		t.Fatal(err)
	}
	body := answerJSON(t, e.stateSums[2])
	if err := checkSample(sample{view: -1, lo: 1, hi: 3, body: body}, e); err != nil {
		t.Errorf("in window: %v", err)
	}
	if err := checkSample(sample{view: -1, lo: 0, hi: 1, body: body}, e); err == nil {
		t.Error("out of window: accepted")
	}
}

// answerJSON renders an ad-hoc answer the way mdserve does.
func answerJSON(t *testing.T, a answer) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(`{"columns":["state","t"],"rows":[`)
	first := true
	for k, cells := range a {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(`["` + k + `",`)
		b.WriteString(strconv.FormatFloat(cells[0].v, 'g', -1, 64))
		b.WriteByte(']')
	}
	b.WriteString(`],"row_count":` + itoa(int64(len(a))) + `}`)
	return b.Bytes()
}
