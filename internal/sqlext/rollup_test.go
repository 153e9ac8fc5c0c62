package sqlext

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mdjoin/internal/optimizer"
	"mdjoin/internal/table"
)

// rollupDetail is a relation built to stress the Theorem 4.5 roll-up:
// NULL dimension values, NULL measures, int64 measures near the int64
// limits (sums wrap, averages must not), and float measures, over more
// than one chunk.
func rollupDetail() *table.Table {
	rng := rand.New(rand.NewSource(41))
	b := table.NewBuilder(table.SchemaOf("a", "b", "c", "year", "m", "big", "f"))
	for i := 0; i < 2*table.ChunkSize+37; i++ {
		r := table.Row{
			table.Int(int64(rng.Intn(4))),
			table.Str([]string{"NY", "NJ", "CT"}[rng.Intn(3)]),
			table.Int(int64(rng.Intn(3))),
			table.Int(int64(1996 + rng.Intn(2))),
			table.Int(int64(rng.Intn(100))),
			table.Int(math.MaxInt64 - int64(rng.Intn(1000))),
			table.Float(rng.Float64() * 100),
		}
		if rng.Intn(9) == 0 {
			r[0] = table.Null()
		}
		if rng.Intn(11) == 0 {
			r[1] = table.Null()
		}
		if rng.Intn(7) == 0 {
			r[4] = table.Null()
		}
		if rng.Intn(13) == 0 {
			r[6] = table.Null()
		}
		b.Append(r)
	}
	return b.Table()
}

// approxSameOrder is floatTolerantEqual without the sort: the two results
// must agree row by row in their own order.
func approxSameOrder(a, b *table.Table, tol float64) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Rows {
		ra := table.MustFromRows(a.Schema, a.Rows[i:i+1])
		rb := table.MustFromRows(b.Schema, b.Rows[i:i+1])
		if err := floatTolerantEqual(ra, rb, tol); err != nil {
			return fmt.Errorf("row %d: %v", i, err)
		}
	}
	return nil
}

// TestRollupMatchesCubeEqualityPlan runs every re-aggregable aggregate
// through the roll-up and through the single =^ MD-join it replaces.
func TestRollupMatchesCubeEqualityPlan(t *testing.T) {
	cat := optimizer.Catalog{"T": rollupDetail()}
	aggs := "sum(m) as s, count(*) as n, count(m) as nm, min(m) as lo, max(f) as hi, " +
		"avg(m) as am, avg(f) as af, sum(big) as sb, avg(big) as ab, min(b) as mb"
	groupings := []string{
		"cube(a, b, c)",
		"cube(b)",
		"rollup(c, a)",
		"rollup(a, b, c)",
		"grouping sets ((a, b), (c), ())",
		"unpivot(a, c)",
	}
	for _, g := range groupings {
		for _, where := range []string{"", " where year = 1997", " where year = 1996 and c > 0"} {
			src := fmt.Sprintf("select %s, %s from T%s analyze by %s", dimsOf(g), aggs, where, g)
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			plan, err := Translate(q)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			rolled, single := optimizer.Optimize(plan), optimizer.OptimizeRules(plan)
			if optimizer.Format(rolled) == optimizer.Format(single) {
				t.Fatalf("%s: the roll-up did not fire:\n%s", src, optimizer.Format(rolled))
			}
			got, err := rolled.Execute(cat)
			if err != nil {
				t.Fatalf("%s: rolled up: %v", src, err)
			}
			want, err := single.Execute(cat)
			if err != nil {
				t.Fatalf("%s: =^ plan: %v", src, err)
			}
			if err := approxSameOrder(got, want, 1e-9); err != nil {
				t.Fatalf("%s: %v\nrolled-up plan:\n%s", src, err, optimizer.Format(rolled))
			}
		}
	}
}

// dimsOf lists the distinct dimensions named in an analyze-by clause.
func dimsOf(g string) string {
	var out []string
	for _, d := range []string{"a", "b", "c"} {
		if strings.Contains(g, d+",") || strings.Contains(g, d+")") {
			out = append(out, d)
		}
	}
	return strings.Join(out, ", ")
}

// TestRollupKeepsCubeEqualityPlan pins the queries the roll-up must leave
// on the single =^ MD-join: holistic aggregates, which cannot
// re-aggregate, order-sensitive first/last, which the roll-up would feed
// in the wrong order, and cube queries with grouping variables, whose phases
// read the cube cells or range over other tuples than the cell's own. (A
// lone variable whose θ is exactly the cube's group θ is a plain cube
// and may roll up.)
func TestRollupKeepsCubeEqualityPlan(t *testing.T) {
	for _, src := range []string{
		"select prod, month, median(sale) as med from Sales analyze by cube(prod, month)",
		"select state, count_distinct(cust) as nc, sum(sale) as s from Sales analyze by rollup(state)",
		"select prod, first(sale) as f, last(sale) as l from Sales analyze by cube(prod)",
		"select prod, month, sum(sale) as s, count(X.*) as big from Sales analyze by cube(prod, month) such that X : X.prod = prod and X.month = month and X.sale > 500",
		"select state, avg(X.sale) as ax from Sales analyze by rollup(state) such that X : X.state = state and X.sale > 100",
	} {
		text, err := Explain(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if strings.Contains(text, "BaseValues group(") {
			t.Fatalf("%s: rolled up, want the =^ plan:\n%s", src, text)
		}
	}
	text, err := Explain("select prod, month, sum(sale) as s from Sales analyze by cube(prod, month)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "BaseValues group(prod, month)") {
		t.Fatalf("a distributive cube was not rolled up:\n%s", text)
	}
}
