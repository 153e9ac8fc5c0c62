// Package optimizer represents relational-algebra-with-MD-join expressions
// as plan trees and optimizes them with the paper's algebraic
// transformations: Theorem 4.2 / Observation 4.1 pushdowns, Theorem 4.3
// series combining, Theorem 4.1 partitioning, and Section 4.5 index
// selection. The rules are cost-annotated so the driver can pick between
// rewritten alternatives; every rewrite preserves the result relation
// (property-tested in rules_test.go).
package optimizer

import (
	"fmt"
	"sort"
	"strings"

	"mdjoin/internal/agg"
	"mdjoin/internal/core"
	"mdjoin/internal/cube"
	"mdjoin/internal/engine"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// Plan is a node of a logical/physical plan tree. Execute materializes the
// node's relation against a catalog of named tables.
type Plan interface {
	// Children returns the node's inputs.
	Children() []Plan
	// Execute materializes the node.
	Execute(cat Catalog) (*table.Table, error)
	// Describe renders one line for plan printouts.
	Describe() string
}

// Catalog resolves relation names to tables.
type Catalog map[string]*table.Table

// Lookup resolves a name case-insensitively.
func (c Catalog) Lookup(name string) (*table.Table, error) {
	if t, ok := c[name]; ok {
		return t, nil
	}
	for k, t := range c {
		if strings.EqualFold(k, name) {
			return t, nil
		}
	}
	return nil, fmt.Errorf("optimizer: unknown relation %q", name)
}

// ----------------------------------------------------------------- leaves

// Scan reads a named relation from the catalog.
type Scan struct {
	Name string
}

func (s *Scan) Children() []Plan { return nil }
func (s *Scan) Describe() string { return "Scan " + s.Name }
func (s *Scan) Execute(cat Catalog) (*table.Table, error) {
	return cat.Lookup(s.Name)
}

// Literal wraps an already materialized table (e.g. a user-supplied
// base-values table, Example 2.4's precomputed data points).
type Literal struct {
	Table *table.Table
	Label string
}

func (l *Literal) Children() []Plan { return nil }
func (l *Literal) Describe() string {
	if l.Label != "" {
		return "Literal " + l.Label
	}
	return fmt.Sprintf("Literal %d rows", l.Table.Len())
}
func (l *Literal) Execute(Catalog) (*table.Table, error) { return l.Table, nil }

// ------------------------------------------------------ classic operators

// Select filters its input.
type Select struct {
	Input Plan
	Pred  expr.Expr
}

func (s *Select) Children() []Plan { return []Plan{s.Input} }
func (s *Select) Describe() string { return "Select " + s.Pred.String() }
func (s *Select) Execute(cat Catalog) (*table.Table, error) {
	in, err := s.Input.Execute(cat)
	if err != nil {
		return nil, err
	}
	return engine.Select(in, s.Pred)
}

// Project evaluates a projection list, optionally DISTINCT.
type Project struct {
	Input    Plan
	Cols     []engine.ProjCol
	Distinct bool
}

func (p *Project) Children() []Plan { return []Plan{p.Input} }
func (p *Project) Describe() string {
	names := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		names[i] = c.Name()
	}
	d := "Project"
	if p.Distinct {
		d += " DISTINCT"
	}
	return d + " " + strings.Join(names, ", ")
}
func (p *Project) Execute(cat Catalog) (*table.Table, error) {
	in, err := p.Input.Execute(cat)
	if err != nil {
		return nil, err
	}
	return engine.Project(in, p.Cols, p.Distinct)
}

// Union concatenates same-schema inputs (multiset union — Theorem 4.1's ∪).
type Union struct {
	Inputs []Plan
}

func (u *Union) Children() []Plan { return u.Inputs }
func (u *Union) Describe() string { return fmt.Sprintf("Union of %d", len(u.Inputs)) }
func (u *Union) Execute(cat Catalog) (*table.Table, error) {
	ts := make([]*table.Table, len(u.Inputs))
	for i, in := range u.Inputs {
		t, err := in.Execute(cat)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return engine.Union(ts...)
}

// GroupBy is the classic grouped aggregation (used by baseline plans and
// by base-values construction).
type GroupBy struct {
	Input Plan
	Keys  []string
	Aggs  []agg.Spec
}

func (g *GroupBy) Children() []Plan { return []Plan{g.Input} }
func (g *GroupBy) Describe() string {
	return "GroupBy " + strings.Join(g.Keys, ", ")
}
func (g *GroupBy) Execute(cat Catalog) (*table.Table, error) {
	in, err := g.Input.Execute(cat)
	if err != nil {
		return nil, err
	}
	return engine.GroupBy(in, g.Keys, g.Aggs)
}

// Join is the classic equi/θ join.
type Join struct {
	Left, Right    Plan
	LAlias, RAlias string
	On             expr.Expr
	Kind           engine.JoinKind
	// Stats, when set, receives the strategy and row counts of the next
	// Execute (EXPLAIN ANALYZE instrumentation).
	Stats *engine.JoinStats
}

func (j *Join) Children() []Plan { return []Plan{j.Left, j.Right} }
func (j *Join) Describe() string {
	k := "Join"
	if j.Kind == engine.LeftOuterJoin {
		k = "LeftOuterJoin"
	}
	if j.On != nil {
		return k + " on " + j.On.String()
	}
	return k
}
func (j *Join) Execute(cat Catalog) (*table.Table, error) {
	l, err := j.Left.Execute(cat)
	if err != nil {
		return nil, err
	}
	r, err := j.Right.Execute(cat)
	if err != nil {
		return nil, err
	}
	return engine.JoinWithStats(l, r, j.LAlias, j.RAlias, j.On, j.Kind, j.Stats)
}

// ----------------------------------------------------- base-values nodes

// BaseValues builds a base-values table from a detail relation with one of
// the grouping operations of the paper's "analyze by" clause.
type BaseValues struct {
	Input Plan
	Op    string // "group", "cube", "rollup", "groupingsets", "unpivot"
	Dims  []string
	Sets  [][]string // for groupingsets
}

func (b *BaseValues) Children() []Plan { return []Plan{b.Input} }
func (b *BaseValues) Describe() string {
	return fmt.Sprintf("BaseValues %s(%s)", b.Op, strings.Join(b.Dims, ", "))
}
func (b *BaseValues) Execute(cat Catalog) (*table.Table, error) {
	in, err := b.Input.Execute(cat)
	if err != nil {
		return nil, err
	}
	switch strings.ToLower(b.Op) {
	case "group", "groupby", "group by", "distinct":
		return cube.DistinctBase(in, b.Dims...)
	case "cube", "cubeby", "cube by":
		return cube.CubeBase(in, b.Dims...)
	case "rollup":
		return cube.RollupBase(in, b.Dims...)
	case "unpivot":
		return cube.UnpivotBase(in, b.Dims...)
	case "groupingsets", "grouping sets":
		return cube.GroupingSetsBase(in, b.Dims, b.Sets)
	default:
		return nil, fmt.Errorf("optimizer: unknown base-values operation %q", b.Op)
	}
}

// -------------------------------------------------------- MD-join nodes

// MDJoin is the operator node: a generalized MD-join of Base against
// Detail with one or more phases. Opt carries the physical strategy
// (partitioning, parallelism, index/pushdown switches).
type MDJoin struct {
	Base   Plan
	Detail Plan
	// DetailName registers an extra θ qualifier (e.g. "Sales").
	DetailName string
	Phases     []core.Phase
	Opt        core.Options
}

func (m *MDJoin) Children() []Plan { return []Plan{m.Base, m.Detail} }
func (m *MDJoin) Describe() string {
	var parts []string
	for _, p := range m.Phases {
		var aggs []string
		for _, a := range p.Aggs {
			aggs = append(aggs, a.String())
		}
		theta := "true"
		if p.Theta != nil {
			theta = p.Theta.String()
		}
		parts = append(parts, fmt.Sprintf("[%s | %s]", strings.Join(aggs, ", "), theta))
	}
	d := "MDJoin " + strings.Join(parts, " ")
	if m.Opt.MaxBaseRows > 0 {
		d += fmt.Sprintf(" maxBase=%d", m.Opt.MaxBaseRows)
	}
	if m.Opt.Parallelism > 1 {
		d += fmt.Sprintf(" parallel=%d", m.Opt.Parallelism)
	}
	return d
}
func (m *MDJoin) Execute(cat Catalog) (*table.Table, error) {
	b, err := m.Base.Execute(cat)
	if err != nil {
		return nil, err
	}
	r, err := m.Detail.Execute(cat)
	if err != nil {
		return nil, err
	}
	opt := m.Opt
	if opt.RAlias == "" {
		opt.RAlias = m.DetailName
	}
	if _, catalogDetail := m.Detail.(*Scan); opt.Shared != nil && catalogDetail {
		// Cross-query shared scans: compile here, let the coordinator
		// batch this evaluation with concurrent queries over the same
		// detail table (same merged machinery, same results and Stats).
		// Groups are keyed by detail-table identity, so only a catalog
		// relation can be shared: a detail this plan computes (a pushed
		// selection, a roll-up's finest cuboid) is private to the query
		// and would only wait out the collection window.
		return opt.Shared.Eval(b, r, m.Phases, opt)
	}
	return core.Eval(b, r, m.Phases, opt)
}

// SortKey is one ordering term of a Sort node.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Sort orders its input by the key expressions (ORDER BY).
type Sort struct {
	Input Plan
	Keys  []SortKey
}

func (s *Sort) Children() []Plan { return []Plan{s.Input} }
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}
func (s *Sort) Execute(cat Catalog) (*table.Table, error) {
	in, err := s.Input.Execute(cat)
	if err != nil {
		return nil, err
	}
	bind := expr.NewBinding()
	bind.AddRel(in.Schema, "r", "detail")
	keys := make([]*expr.Compiled, len(s.Keys))
	for i, k := range s.Keys {
		c, err := expr.Compile(k.Expr, bind)
		if err != nil {
			return nil, err
		}
		keys[i] = c
	}
	out := &table.Table{Schema: in.Schema, Rows: append([]table.Row(nil), in.Rows...)}
	frameA, frameB := make([]table.Row, 1), make([]table.Row, 1)
	sort.SliceStable(out.Rows, func(a, b int) bool {
		frameA[0], frameB[0] = out.Rows[a], out.Rows[b]
		for i, k := range keys {
			cmp := k.Eval(frameA).Compare(k.Eval(frameB))
			if s.Keys[i].Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return out, nil
}

// Limit truncates its input to the first N rows (LIMIT).
type Limit struct {
	Input Plan
	N     int
}

func (l *Limit) Children() []Plan { return []Plan{l.Input} }
func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.N) }
func (l *Limit) Execute(cat Catalog) (*table.Table, error) {
	in, err := l.Input.Execute(cat)
	if err != nil {
		return nil, err
	}
	out := table.New(in.Schema)
	n := l.N
	if n > in.Len() {
		n = in.Len()
	}
	out.Rows = append(out.Rows, in.Rows[:n]...)
	return out, nil
}

// ------------------------------------------------------------- utilities

// Format renders a plan tree with indentation.
func Format(p Plan) string {
	var b strings.Builder
	var rec func(Plan, int)
	rec = func(n Plan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			rec(c, depth+1)
		}
	}
	rec(p, 0)
	return b.String()
}

// Walk visits every node of the tree in pre-order.
func Walk(p Plan, f func(Plan)) {
	f(p)
	for _, c := range p.Children() {
		Walk(c, f)
	}
}
