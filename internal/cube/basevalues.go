// Package cube implements the data-cube side of the reproduction: the
// base-values builders the paper's "analyze by" clause enumerates (group
// by, cube by, rollup, grouping sets, unpivot), the cuboid lattice, the
// roll-up computation of Theorem 4.5, the PIPESORT pipelined-path
// construction the paper expresses algebraically in Section 4.4 (Figure 2),
// and the Ross–Srivastava Partitioned-Cube strategy.
//
// Every builder returns a base-values table over the full dimension list;
// rolled-up dimensions hold the ALL marker, so the cube of Figure 1 is a
// single relation and an MD-join against it uses cube equality (=^) in θ.
package cube

import (
	"fmt"
	"strings"

	"mdjoin/internal/engine"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// DistinctBase builds the plain group-by base-values table: the distinct
// combinations of the dimensions present in the data ("select distinct ...
// from R" — Example 3.1).
func DistinctBase(t *table.Table, dims ...string) (*table.Table, error) {
	return engine.DistinctOn(t, dims...)
}

// CubeBase builds the full data-cube base-values table over the given
// dimensions: one row per element of every one of the 2^n group-bys, with
// ALL marking rolled-up dimensions (Example 2.1 / [GBLP96]).
func CubeBase(t *table.Table, dims ...string) (*table.Table, error) {
	sets := make([][]string, 0, 1<<len(dims))
	for mask := 0; mask < 1<<len(dims); mask++ {
		sets = append(sets, subset(dims, uint(mask)))
	}
	return GroupingSetsBase(t, dims, sets)
}

// RollupBase builds the rollup base-values table: the prefixes
// (d₁..d_n), (d₁..d_{n-1}), ..., () — the SQL99 ROLLUP grouping.
func RollupBase(t *table.Table, dims ...string) (*table.Table, error) {
	sets := make([][]string, 0, len(dims)+1)
	for k := len(dims); k >= 0; k-- {
		sets = append(sets, dims[:k])
	}
	return GroupingSetsBase(t, dims, sets)
}

// UnpivotBase builds the marginal-distribution base-values table of the
// unpivot operator [GFC98]: one grouping set per single dimension, the
// input decision-tree algorithms consume (Example 2.1's grouping-sets
// query).
func UnpivotBase(t *table.Table, dims ...string) (*table.Table, error) {
	sets := make([][]string, len(dims))
	for i, d := range dims {
		sets[i] = []string{d}
	}
	return GroupingSetsBase(t, dims, sets)
}

// GroupingSetsBase builds the base-values table for an explicit list of
// grouping sets (SQL99 GROUPING SETS): the union over sets S of the
// distinct S-projections of t, padded with ALL outside S. Duplicate sets
// are deduplicated.
func GroupingSetsBase(t *table.Table, dims []string, sets [][]string) (*table.Table, error) {
	dimIdx := make([]int, len(dims))
	for i, d := range dims {
		j := t.Schema.ColIndex(d)
		if j < 0 {
			return nil, fmt.Errorf("cube: dimension %q not in schema %v", d, t.Schema.Names())
		}
		dimIdx[i] = j
	}
	// Distinct full-dimension combinations (the finest cuboid), computed
	// once by the grouping kernel; every grouping set projects from it.
	full := table.Distinct(t, dimIdx, table.SchemaOf(dims...))

	// Builder-built: cube base-values tables double as detail inputs when
	// MD-joins chain (Theorem 4.5 roll-ups), so carrying the columnar
	// mirror lets those scans skip the transpose.
	out := table.NewBuilder(full.Schema)
	seenSet := map[uint]bool{}
	for _, s := range sets {
		mask, err := maskOf(dims, s)
		if err != nil {
			return nil, err
		}
		if seenSet[mask] {
			continue
		}
		seenSet[mask] = true
		appendMaskRows(out, full, mask)
	}
	return out.Table(), nil
}

// appendMaskRows appends the distinct mask-projection of the full
// combination table in first-occurrence order, padding non-mask
// dimensions with ALL. The full mask is full itself, already distinct.
func appendMaskRows(out *table.Builder, full *table.Table, mask uint) {
	var keys []int
	for i := 0; i < full.Schema.Len(); i++ {
		if mask&(1<<uint(i)) != 0 {
			keys = append(keys, i)
		}
	}
	if len(keys) == full.Schema.Len() {
		for _, r := range full.Rows {
			out.Append(r)
		}
		return
	}
	table.NewGrouper(out, keys).AddTable(full, keys)
}

// subset returns the dims selected by the bit mask (bit i ↔ dims[i]).
func subset(dims []string, mask uint) []string {
	var out []string
	for i, d := range dims {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, d)
		}
	}
	return out
}

// maskOf converts a grouping set to its bit mask over dims.
func maskOf(dims []string, set []string) (uint, error) {
	var mask uint
	for _, s := range set {
		found := false
		for i, d := range dims {
			if strings.EqualFold(d, s) {
				mask |= 1 << uint(i)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("cube: grouping set column %q not among dimensions %v", s, dims)
		}
	}
	return mask, nil
}

// Theta builds the MD-join θ-condition relating a cube-structured
// base-values table to a detail relation: the conjunction over dims of
// R.dim =^ B.dim (cube equality, so ALL cells receive every tuple). The
// detail side is qualified with "R"; the base side is unqualified, as in
// the paper's examples.
func Theta(dims ...string) expr.Expr {
	var conj []expr.Expr
	for _, d := range dims {
		conj = append(conj, expr.CubeEq(expr.QC("R", d), expr.C(d)))
	}
	return expr.And(conj...)
}
