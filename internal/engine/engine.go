// Package engine implements the classic relational operators the paper
// treats as the surrounding algebra: selection, projection (with DISTINCT),
// renaming, union, joins (inner, left outer), sorting, and grouped
// aggregation (hash- and sort-based).
//
// The engine serves three roles in the reproduction: it is the substrate
// from which base-values tables are built (select distinct ... — Examples
// 3.1/3.3), it executes the "standard relational algebra" formulations the
// paper contrasts the MD-join against (internal/baseline builds multi-block
// plans from it), and it provides the equijoin used by Theorem 4.4's split
// transformation.
package engine

import (
	"fmt"
	"strings"

	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// Select returns the rows of t satisfying pred (SQL truth: NULL is false)
// as a table carrying its columnar mirror, so a filtered detail relation
// still scans without a transpose. The predicate runs column-at-a-time
// over t's chunks — t's own mirror when it has one, else a transpose of
// just the columns pred reads. A nil predicate returns a shallow copy of
// t.
func Select(t *table.Table, pred expr.Expr) (*table.Table, error) {
	if pred == nil {
		out := table.New(t.Schema)
		out.Rows = append(out.Rows, t.Rows...)
		return out, nil
	}
	b := expr.NewBinding()
	slot := b.AddRel(t.Schema, "r", "detail")
	out := table.NewBuilder(t.Schema)
	cc, err := expr.CompileChunk(pred, b, slot)
	if err != nil {
		return nil, err
	}
	chunks := t.CachedChunks(table.ChunkSize)
	var scratch *table.Chunk
	var sel []int32
	for ci, off := 0, 0; off < len(t.Rows); ci, off = ci+1, off+table.ChunkSize {
		rows := t.Rows[off:min(off+table.ChunkSize, len(t.Rows))]
		if chunks != nil && chunks[ci].Len() == len(rows) {
			sel = cc.FilterChunk(chunks[ci], expr.IdentitySel(sel, len(rows)))
			out.AppendSelected(chunks[ci], rows, sel)
			continue
		}
		if scratch == nil {
			scratch = table.NewChunk(t.Schema)
		}
		scratch.LoadRows(rows, cc.Ordinals())
		sel = cc.FilterChunk(scratch, expr.IdentitySel(sel, len(rows)))
		for _, si := range sel {
			out.Append(rows[si])
		}
	}
	return out.Table(), nil
}

// ProjCol is one projected column: an expression and its output name. A
// bare column reference keeps its own name when As is empty.
type ProjCol struct {
	Expr expr.Expr
	As   string
}

// Name returns the output column name.
func (p ProjCol) Name() string {
	if p.As != "" {
		return p.As
	}
	if c, ok := p.Expr.(*expr.Col); ok {
		return c.Name
	}
	return p.Expr.String()
}

// Cols builds ProjCols from bare column names.
func Cols(names ...string) []ProjCol {
	out := make([]ProjCol, len(names))
	for i, n := range names {
		out[i] = ProjCol{Expr: expr.C(n)}
	}
	return out
}

// Project evaluates the projection list over every row. With distinct set,
// duplicate output rows are removed (set projection — how the paper's
// "select distinct cust from Sales" base-values tables arise) by the
// table.Index grouping kernel, keeping first occurrences in order. A
// distinct projection of bare columns evaluates no expression: it groups
// t's own columns.
func Project(t *table.Table, cols []ProjCol, distinct bool) (*table.Table, error) {
	b := expr.NewBinding()
	b.AddRel(t.Schema, "r", "detail")
	compiled := make([]*expr.Compiled, len(cols))
	outCols := make([]table.Field, len(cols))
	for i, p := range cols {
		c, err := expr.Compile(p.Expr, b)
		if err != nil {
			return nil, err
		}
		compiled[i] = c
		outCols[i] = table.Field{Name: p.Name()}
	}
	schema := table.NewSchema(outCols...)
	if ords := bareColumns(t.Schema, cols); ords != nil && distinct {
		return table.Distinct(t, ords, schema), nil
	}
	out := table.New(schema)
	frame := make([]table.Row, 1)
	for _, r := range t.Rows {
		frame[0] = r
		row := make(table.Row, len(compiled))
		for i, c := range compiled {
			row[i] = c.Eval(frame)
		}
		out.Append(row)
	}
	if distinct {
		ords := make([]int, len(cols))
		for i := range ords {
			ords[i] = i
		}
		return table.Distinct(out, ords, schema), nil
	}
	return out, nil
}

// bareColumns returns the ordinals in s of a projection list made only of
// unqualified column references, or nil.
func bareColumns(s *table.Schema, cols []ProjCol) []int {
	ords := make([]int, len(cols))
	for i, p := range cols {
		c, ok := p.Expr.(*expr.Col)
		if !ok || c.Qual != "" {
			return nil
		}
		if ords[i] = s.ColIndex(c.Name); ords[i] < 0 {
			return nil
		}
	}
	return ords
}

// Distinct removes duplicate rows over the full schema.
func Distinct(t *table.Table) (*table.Table, error) {
	return Project(t, Cols(t.Schema.Names()...), true)
}

// DistinctOn projects t to the named columns and removes duplicates — the
// standard base-values constructor ("select distinct a, b from R").
func DistinctOn(t *table.Table, cols ...string) (*table.Table, error) {
	return Project(t, Cols(cols...), true)
}

// Rename returns a view of t with columns renamed via the mapping (old →
// new); unmapped columns keep their names. The paper's footnote 3 notes
// each MD-join application should rename the detail table — Rename is that
// operator.
func Rename(t *table.Table, mapping map[string]string) *table.Table {
	cols := make([]table.Field, t.Schema.Len())
	for i, c := range t.Schema.Cols {
		name := c.Name
		for old, new := range mapping {
			if strings.EqualFold(old, c.Name) {
				name = new
			}
		}
		cols[i] = table.Field{Name: name, Type: c.Type}
	}
	return &table.Table{Schema: table.NewSchema(cols...), Rows: t.Rows}
}

// Union concatenates tables with identical schemas (UNION ALL — relations
// are multisets, the semantics Theorem 4.1 relies on, since the Bᵢ
// partition B and the fragment results are disjoint).
func Union(ts ...*table.Table) (*table.Table, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("engine: union of zero tables")
	}
	out := table.New(ts[0].Schema)
	for _, t := range ts {
		if !t.Schema.EqualNames(ts[0].Schema) {
			return nil, fmt.Errorf("engine: union schema mismatch: %v vs %v",
				ts[0].Schema.Names(), t.Schema.Names())
		}
		out.Rows = append(out.Rows, t.Rows...)
	}
	return out, nil
}

// JoinKind selects the join variant.
type JoinKind uint8

const (
	// InnerJoin keeps matching pairs only.
	InnerJoin JoinKind = iota
	// LeftOuterJoin keeps every left row, padding right columns with NULL
	// when no match exists — the operator the paper's Example 2.2
	// discussion says standard SQL needs four of.
	LeftOuterJoin
)

// Join joins l and r on the predicate. Column names are disambiguated by
// qualifying with the given relation aliases (laliase, ralias) when both
// sides share a name; the output schema concatenates left then right
// columns, prefixing collided right columns with ralias+"_".
//
// When the predicate contains equi-conjuncts (l.col = r.col), a hash join
// executes; otherwise it falls back to a nested loop. This mirrors what a
// "commercial DBMS" of the paper's era would pick and keeps the baseline
// comparator honest.
func Join(l, r *table.Table, lalias, ralias string, on expr.Expr, kind JoinKind) (*table.Table, error) {
	return JoinWithStats(l, r, lalias, ralias, on, kind, nil)
}

// JoinStats reports which strategy Join picked and its row counts — the
// runtime counters EXPLAIN ANALYZE attaches to a Join node (the static plan
// cannot tell hash from nested-loop, exactly the blindness the MD-join
// tier label fixes on the core side).
type JoinStats struct {
	// Hash reports the equi-conjunct hash path; false means nested loop.
	Hash bool `json:"hash"`
	// BuildRows/ProbeRows are the hash-side build input and the outer probe
	// input (outer and inner rows for a nested loop).
	BuildRows int `json:"build_rows"`
	ProbeRows int `json:"probe_rows"`
	// Output counts emitted rows (including outer-join NULL padding).
	Output int `json:"output"`
}

// JoinWithStats is Join recording its strategy and row counts into st
// (nil disables collection).
func JoinWithStats(l, r *table.Table, lalias, ralias string, on expr.Expr, kind JoinKind, st *JoinStats) (*table.Table, error) {
	bind := expr.NewBinding()
	lslot := bind.AddRel(l.Schema, lalias)
	rslot := bind.AddRel(r.Schema, ralias)

	// Output schema: left columns as-is, right columns prefixed on clash.
	cols := make([]table.Field, 0, l.Schema.Len()+r.Schema.Len())
	cols = append(cols, l.Schema.Cols...)
	for _, c := range r.Schema.Cols {
		name := c.Name
		if l.Schema.Has(name) {
			name = ralias + "_" + name
		}
		// Guard against double collision.
		for hasCol(cols, name) {
			name = name + "_"
		}
		cols = append(cols, table.Field{Name: name, Type: c.Type})
	}
	out := table.New(table.NewSchema(cols...))

	var pred *expr.Compiled
	if on != nil {
		c, err := expr.Compile(on, bind)
		if err != nil {
			return nil, err
		}
		pred = c
	}

	// Detect hashable equi conjuncts: l.col = r.col (either orientation).
	lk, rk, residual := equiKeys(on, bind, lslot, rslot)

	emit := func(lr, rr table.Row) {
		row := make(table.Row, 0, len(cols))
		row = append(row, lr...)
		if rr == nil {
			for range r.Schema.Cols {
				row = append(row, table.Null())
			}
		} else {
			row = append(row, rr...)
		}
		out.Append(row)
	}

	frame := make([]table.Row, 2)
	if st != nil {
		st.Hash = len(lk) > 0
		st.BuildRows = r.Len()
		st.ProbeRows = l.Len()
	}
	if len(lk) > 0 {
		// Hash join on the right side.
		idx := table.BuildIndexOrdinals(r, rk)
		var resPred *expr.Compiled
		if residual != nil {
			c, err := expr.Compile(residual, bind)
			if err != nil {
				return nil, err
			}
			resPred = c
		}
		key := make([]table.Value, len(lk))
		for _, lr := range l.Rows {
			for i, c := range lk {
				key[i] = lr[c]
			}
			matched := false
			for _, ri := range idx.Probe(key) {
				rr := r.Rows[ri]
				if resPred != nil {
					frame[0], frame[1] = lr, rr
					if !resPred.Truth(frame) {
						continue
					}
				}
				matched = true
				emit(lr, rr)
			}
			if !matched && kind == LeftOuterJoin {
				emit(lr, nil)
			}
		}
		if st != nil {
			st.Output = out.Len()
		}
		return out, nil
	}

	// Nested loop.
	for _, lr := range l.Rows {
		matched := false
		for _, rr := range r.Rows {
			if pred != nil {
				frame[0], frame[1] = lr, rr
				if !pred.Truth(frame) {
					continue
				}
			}
			matched = true
			emit(lr, rr)
		}
		if !matched && kind == LeftOuterJoin {
			emit(lr, nil)
		}
	}
	if st != nil {
		st.Output = out.Len()
	}
	return out, nil
}

func hasCol(cols []table.Field, name string) bool {
	for _, c := range cols {
		if strings.EqualFold(c.Name, name) {
			return true
		}
	}
	return false
}

// equiKeys extracts parallel (left ordinals, right ordinals) for conjuncts
// of the form l.col = r.col; the remaining conjuncts are returned as the
// residual predicate.
func equiKeys(on expr.Expr, bind *expr.Binding, lslot, rslot int) (lk, rk []int, residual expr.Expr) {
	var rest []expr.Expr
	for _, cj := range expr.SplitConjuncts(on) {
		if lo, ro, ok := colEqCol(cj, bind, lslot, rslot); ok {
			lk = append(lk, lo)
			rk = append(rk, ro)
			continue
		}
		rest = append(rest, cj)
	}
	return lk, rk, expr.And(rest...)
}

// colEqCol recognizes "col = col" conjuncts across the two slots.
func colEqCol(e expr.Expr, bind *expr.Binding, lslot, rslot int) (lo, ro int, ok bool) {
	bin, isBin := e.(*expr.Binary)
	if !isBin || bin.Op != expr.OpEq {
		return 0, 0, false
	}
	rs, err := expr.Refs(e, bind)
	if err != nil {
		return 0, 0, false
	}
	lc, rc := rs.SlotCols(lslot), rs.SlotCols(rslot)
	if len(lc) != 1 || len(rc) != 1 {
		return 0, 0, false
	}
	// Verify both operand sides are bare columns.
	if _, isCol := bin.L.(*expr.Col); !isCol {
		return 0, 0, false
	}
	if _, isCol := bin.R.(*expr.Col); !isCol {
		return 0, 0, false
	}
	return lc[0], rc[0], true
}
