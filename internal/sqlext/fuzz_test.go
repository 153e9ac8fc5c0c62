package sqlext

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mdjoin/internal/optimizer"
	"mdjoin/internal/table"
	"mdjoin/internal/workload"
)

// This file fuzzes the whole pipeline: randomly generated dialect queries
// are executed twice — once through the full optimizer with the indexed,
// pushdown-enabled executor, and once with rewrites skipped and every
// MD-join forced to the verbatim Algorithm 3.1 nested loop. The result
// relations must be identical — up to float summation order where the
// Theorem 4.5 roll-up re-aggregated a cube's sums from its finest cuboid.
// This is the end-to-end analogue of the per-theorem property tests in
// internal/core.

// queryGen builds random but well-formed dialect queries over the Sales
// schema.
type queryGen struct {
	rng *rand.Rand
}

var genDims = []string{"cust", "prod", "month", "state"}
var genMeasures = []string{"sale", "month", "prod"}
var genAggs = []string{"sum", "count", "avg", "min", "max"}

func (g *queryGen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

func (g *queryGen) dims(n int) []string {
	perm := g.rng.Perm(len(genDims))
	out := make([]string, 0, n)
	for _, i := range perm[:n] {
		out = append(out, genDims[i])
	}
	return out
}

// aggCall renders an aggregate call over an optional grouping variable.
func (g *queryGen) aggCall(gv string) (callExpr, alias string) {
	fn := g.pick(genAggs)
	if fn == "count" {
		if gv != "" {
			return fmt.Sprintf("count(%s.*)", gv), fmt.Sprintf("n_%s", strings.ToLower(gv))
		}
		return "count(*)", "n"
	}
	arg := g.pick(genMeasures)
	if gv != "" {
		return fmt.Sprintf("%s(%s.%s)", fn, gv, arg), fmt.Sprintf("%s_%s_%s", fn, strings.ToLower(gv), arg)
	}
	return fmt.Sprintf("%s(%s)", fn, arg), fmt.Sprintf("%s_%s", fn, arg)
}

// gvCondition renders a SUCH THAT condition for variable gv over base
// dims.
func (g *queryGen) gvCondition(gv string, dims []string) string {
	var conj []string
	for _, d := range dims {
		switch g.rng.Intn(3) {
		case 0:
			conj = append(conj, fmt.Sprintf("%s.%s = %s", gv, d, d))
		case 1:
			if d == "month" {
				off := g.rng.Intn(3) - 1
				if off == 0 {
					conj = append(conj, fmt.Sprintf("%s.month = month", gv))
				} else if off > 0 {
					conj = append(conj, fmt.Sprintf("%s.month = month + %d", gv, off))
				} else {
					conj = append(conj, fmt.Sprintf("%s.month = month - %d", gv, -off))
				}
			} else {
				conj = append(conj, fmt.Sprintf("%s.%s = %s", gv, d, d))
			}
		default:
			// Skip this dim: the variable ranges wider than the group.
		}
	}
	// Guarantee at least one conjunct so attribution works.
	if len(conj) == 0 {
		conj = append(conj, fmt.Sprintf("%s.%s = %s", gv, dims[0], dims[0]))
	}
	// Optional detail-only restriction.
	switch g.rng.Intn(3) {
	case 0:
		conj = append(conj, fmt.Sprintf("%s.state = 'NY'", gv))
	case 1:
		conj = append(conj, fmt.Sprintf("%s.sale > %d", gv, g.rng.Intn(500)))
	}
	return strings.Join(conj, " and ")
}

// generate builds one random query.
func (g *queryGen) generate() string {
	nd := 1 + g.rng.Intn(2)
	dims := g.dims(nd)

	var selects []string
	selects = append(selects, dims...)

	// Plain aggregates.
	na := 1 + g.rng.Intn(2)
	seen := map[string]bool{}
	for i := 0; i < na; i++ {
		call, alias := g.aggCall("")
		if seen[alias] {
			continue
		}
		seen[alias] = true
		selects = append(selects, fmt.Sprintf("%s as %s", call, alias))
	}

	// Grouping variables.
	gvNames := []string{}
	nGV := g.rng.Intn(3)
	for i := 0; i < nGV; i++ {
		gvNames = append(gvNames, string(rune('X'+i)))
	}
	for _, gv := range gvNames {
		call, alias := g.aggCall(gv)
		if seen[alias] {
			continue
		}
		seen[alias] = true
		selects = append(selects, fmt.Sprintf("%s as %s", call, alias))
	}

	q := "select " + strings.Join(selects, ", ") + " from Sales"
	if g.rng.Intn(2) == 0 {
		q += fmt.Sprintf(" where year = %d", 1996+g.rng.Intn(2))
	}

	switch g.rng.Intn(3) {
	case 0:
		q += " group by " + strings.Join(dims, ", ")
	case 1:
		q += " analyze by cube(" + strings.Join(dims, ", ") + ")"
	default:
		q += " analyze by rollup(" + strings.Join(dims, ", ") + ")"
	}
	if len(gvNames) > 0 {
		var conds []string
		for _, gv := range gvNames {
			conds = append(conds, gv+" : "+g.gvCondition(gv, dims))
		}
		q += " such that " + strings.Join(conds, ", ")
	}
	return q
}

func TestFuzzOptimizedMatchesNaive(t *testing.T) {
	detail := workload.Sales(workload.SalesConfig{
		Rows: 400, Customers: 6, Products: 4, Years: 2, FirstYear: 1996, States: 3, Seed: 71,
	})
	cat := optimizer.Catalog{"Sales": detail}
	g := &queryGen{rng: rand.New(rand.NewSource(72))}

	trials := 60
	if testing.Short() {
		trials = 15
	}
	rolled := 0
	for trial := 0; trial < trials; trial++ {
		src := g.generate()
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated query failed to parse: %v\n%s", trial, err, src)
		}
		plan, err := Translate(q)
		if err != nil {
			t.Fatalf("trial %d: translate: %v\n%s", trial, err, src)
		}
		optimized := optimizer.Optimize(plan)
		fast, err := optimized.Execute(cat)
		if err != nil {
			t.Fatalf("trial %d: optimized execution: %v\n%s", trial, err, src)
		}
		naive := optimizer.ApplyNaive(plan)
		slow, err := naive.Execute(cat)
		if err != nil {
			t.Fatalf("trial %d: naive execution: %v\n%s", trial, err, src)
		}
		if optimizer.Format(optimized) != optimizer.Format(optimizer.OptimizeRules(plan)) {
			// Rolled up: sums of the float measures re-associate.
			rolled++
			if err := floatTolerantEqual(fast, slow, 1e-9); err != nil {
				t.Fatalf("trial %d: rolled-up and naive disagree: %v\nquery: %s\nplan:\n%s",
					trial, err, src, optimizer.Format(optimized))
			}
			continue
		}
		if d := fast.Diff(slow); d != "" {
			t.Fatalf("trial %d: optimized and naive disagree: %s\nquery: %s\nplan:\n%s",
				trial, d, src, optimizer.Format(optimized))
		}
	}
	if rolled == 0 {
		t.Fatalf("no trial of %d exercised the Theorem 4.5 roll-up", trials)
	}
}

// approxEqualTables compares two result relations as multisets with a
// relative tolerance on numeric cells (float summation order differs
// across execution strategies).
func approxEqualTables(a, b *table.Table, tol float64) error {
	return equalSorted(a, b, func(va, vb table.Value) bool {
		if va.IsNumeric() && vb.IsNumeric() {
			return within(va.AsFloat(), vb.AsFloat(), tol)
		}
		return va.Equal(vb)
	})
}

// floatTolerantEqual is Table.Diff with a relative tolerance only on
// cells that are floats on both sides: the Theorem 4.5 roll-up
// re-associates float sums, while counts, integer sums, min and max come
// out exact and must compare exactly.
func floatTolerantEqual(a, b *table.Table, tol float64) error {
	return equalSorted(a, b, func(va, vb table.Value) bool {
		if va.Kind() == table.KindFloat && vb.Kind() == table.KindFloat {
			return within(va.AsFloat(), vb.AsFloat(), tol)
		}
		return va.Equal(vb)
	})
}

// equalSorted compares two relations as multisets, cell by cell with eq.
func equalSorted(a, b *table.Table, eq func(va, vb table.Value) bool) error {
	if !a.Schema.EqualNames(b.Schema) {
		return fmt.Errorf("schemas differ: %v vs %v", a.Schema.Names(), b.Schema.Names())
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	as := a.Clone().SortAll()
	bs := b.Clone().SortAll()
	for i := range as.Rows {
		for j := range as.Rows[i] {
			if va, vb := as.Rows[i][j], bs.Rows[i][j]; !eq(va, vb) {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, va, vb)
			}
		}
	}
	return nil
}

// within reports whether x and y differ by at most tol relative to
// max(|x|, 1).
func within(x, y, tol float64) bool {
	return math.Abs(x-y) <= tol*math.Max(math.Abs(x), 1)
}

func TestFuzzParallelStrategies(t *testing.T) {
	detail := workload.Sales(workload.SalesConfig{
		Rows: 300, Customers: 5, Products: 3, Years: 2, FirstYear: 1996, States: 3, Seed: 73,
	})
	cat := optimizer.Catalog{"Sales": detail}
	g := &queryGen{rng: rand.New(rand.NewSource(74))}

	for trial := 0; trial < 25; trial++ {
		src := g.generate()
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := optimizer.Optimize(plan).Execute(cat)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		for name, cfg := range map[string]optimizer.PhysicalConfig{
			"workers":  {Workers: 3},
			"budgeted": {MemoryBudgetBytes: 4096},
		} {
			got, err := optimizer.ApplyPhysical(optimizer.Optimize(plan), cfg).Execute(cat)
			if err != nil {
				t.Fatalf("trial %d %s: %v\n%s", trial, name, err, src)
			}
			// Parallel state merging reorders float additions; compare
			// with a relative tolerance.
			if err := approxEqualTables(want, got, 1e-9); err != nil {
				t.Fatalf("trial %d %s: %v\nquery: %s", trial, name, err, src)
			}
		}
	}
}
