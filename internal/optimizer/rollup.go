package optimizer

import (
	"fmt"
	"strings"

	"mdjoin/internal/agg"
	"mdjoin/internal/core"
	"mdjoin/internal/cube"
	"mdjoin/internal/engine"
	"mdjoin/internal/expr"
)

// Theorem 4.5 roll-up for cube-structured MD-joins: the "super-aggregates
// from the core GROUP BY" strategy of Gray et al., in the paper's
// algebra. A single =^ MD-join against a cube base probes every detail
// tuple once per ALL pattern of the base (2^k for a k-dimensional cube).
// When every aggregate re-aggregates, the same result comes from
// aggregating the detail once into the finest cuboid F and rolling F up:
//
//	MD(B_cube, R, l, ∧ R.d =^ d)
//	  = MD(B_cube, MD(B_fine, R, l', ∧ R.d =^ d), l'', ∧ F.d =^ d)
//
// B_fine = distinct π_D(R) holds no ALL marker, so the inner MD-join costs
// one probe per tuple; the 2^k-pattern probes move to the outer MD-join,
// whose detail F has one row per distinct dimension combination. The
// inner θ keeps =^, so a NULL dimension value still matches NULL.
//
// l' computes each aggregate per fine group and l'' re-aggregates it
// (sum by sum, count by sum, min by min, max by max). avg(x) is carried
// as sum(x * 1.0) and count(x * 1.0) — float sums, so int64 inputs cannot
// wrap, counting exactly the numeric inputs avg itself averages — and
// recombined by a projection over the result.
//
// Every cell of B_cube rolls up at least one fine group because both are
// built from the same detail relation, so no re-aggregated count meets an
// empty input. Holistic aggregates (median, count_distinct, ...) and the
// order-sensitive first/last keep the single =^ MD-join, as do queries
// with grouping variables (more than one MD-join or phase), whose
// dependent phases read the cube cells.

// RollupCubes rewrites the plan's MD-join by the Theorem 4.5 roll-up when
// it is the plan's only MD-join and is eligible (see above); otherwise it
// returns p unchanged. The input tree is never mutated.
func RollupCubes(p Plan) Plan {
	mds := CollectMDJoins(p)
	if len(mds) != 1 {
		return p
	}
	r, ok := rollupCube(mds[0])
	if !ok {
		return p
	}
	return ReplacePlanNode(p, mds[0], r)
}

// rollupReagg maps each aggregate the roll-up carries to its Theorem 4.5
// re-aggregation. It is a list, not agg.Func.Reaggregate: first and last
// re-aggregate under partition-then-concatenate, but the roll-up feeds
// the fine groups in first-occurrence order, not in the order of their
// first non-NULL inputs, so they would pick the wrong value.
var rollupReagg = map[string]string{"sum": "sum", "count": "sum", "min": "min", "max": "max"}

// cubeBaseOps are the base-values operations whose B carries ALL cells.
var cubeBaseOps = map[string]bool{
	"cube": true, "cubeby": true, "cube by": true, "rollup": true,
	"unpivot": true, "groupingsets": true, "grouping sets": true,
}

// rollupCube builds the roll-up of one MD-join node, reporting false when
// the node is not eligible.
func rollupCube(m *MDJoin) (Plan, bool) {
	bv, ok := m.Base.(*BaseValues)
	if !ok || len(m.Phases) != 1 || len(bv.Dims) == 0 || !cubeBaseOps[strings.ToLower(bv.Op)] {
		return nil, false
	}
	quals := detailQuals(m)
	ph := m.Phases[0]
	if !cubeThetaOn(ph.Theta, bv.Dims, quals) || !sameRelation(bv.Input, m.Detail) {
		return nil, false
	}
	var fine, outer []agg.Spec
	var avgs map[string][2]string // avg output → hidden sum, count columns
	for i, s := range ph.Aggs {
		if s.Arg != nil && !refsOnlyDetail(s.Arg, quals) {
			return nil, false // an argument reading B differs per cuboid
		}
		name := s.OutName()
		fn := strings.ToLower(s.Func)
		if re, ok := rollupReagg[fn]; ok {
			fine = append(fine, agg.Spec{Func: fn, Arg: s.Arg, As: name})
			outer = append(outer, agg.Spec{Func: re, Arg: expr.QC("R", name), As: name})
			continue
		}
		if fn != "avg" || s.Arg == nil {
			return nil, false
		}
		if avgs == nil {
			avgs = map[string][2]string{}
		}
		sum, cnt := fmt.Sprintf("__avg%d_sum", i), fmt.Sprintf("__avg%d_cnt", i)
		avgs[name] = [2]string{sum, cnt}
		num := expr.Mul(s.Arg, expr.F(1))
		fine = append(fine,
			agg.Spec{Func: "sum", Arg: num, As: sum},
			agg.Spec{Func: "count", Arg: num, As: cnt})
		outer = append(outer,
			agg.Spec{Func: "sum", Arg: expr.QC("R", sum), As: sum},
			agg.Spec{Func: "sum", Arg: expr.QC("R", cnt), As: cnt})
	}
	inner := &MDJoin{
		Base:       &BaseValues{Input: m.Detail, Op: "group", Dims: bv.Dims},
		Detail:     m.Detail,
		DetailName: m.DetailName,
		Phases:     []core.Phase{{Aggs: fine, Theta: ph.Theta}},
		Opt:        m.Opt,
	}
	var out Plan = &MDJoin{
		Base:   m.Base,
		Detail: inner,
		Phases: []core.Phase{{Aggs: outer, Theta: cube.Theta(bv.Dims...)}},
		Opt:    m.Opt,
	}
	if avgs != nil {
		cols := engine.Cols(bv.Dims...)
		for _, s := range ph.Aggs {
			name := s.OutName()
			e := expr.C(name)
			if parts, ok := avgs[name]; ok {
				e = expr.Div(expr.C(parts[0]), expr.C(parts[1]))
			}
			cols = append(cols, engine.ProjCol{Expr: e, As: name})
		}
		out = &Project{Input: out, Cols: cols}
	}
	return out, true
}

// cubeThetaOn reports whether θ is exactly the cube-equality conjunction
// R.d =^ d over the dimensions, each once, in any order and orientation.
func cubeThetaOn(theta expr.Expr, dims []string, quals []string) bool {
	conj := expr.SplitConjuncts(theta)
	if len(conj) != len(dims) {
		return false
	}
	seen := map[string]bool{}
	for _, cj := range conj {
		bin, ok := cj.(*expr.Binary)
		if !ok || bin.Op != expr.OpCubeEq {
			return false
		}
		l, lok := bin.L.(*expr.Col)
		r, rok := bin.R.(*expr.Col)
		if !lok || !rok {
			return false
		}
		if l.Qual == "" {
			l, r = r, l
		}
		if r.Qual != "" || !isDetailQual(l.Qual, quals) || !strings.EqualFold(l.Name, r.Name) {
			return false
		}
		seen[strings.ToLower(r.Name)] = true
	}
	for _, d := range dims {
		if !seen[strings.ToLower(d)] {
			return false
		}
	}
	return true
}

// sameRelation reports whether two plans compute the same relation:
// structurally equal, with Select predicates compared as conjunct sets
// (selection pushdown may reorder the conjuncts of a WHERE).
func sameRelation(a, b Plan) bool {
	sa, aok := a.(*Select)
	sb, bok := b.(*Select)
	if aok != bok {
		return false
	}
	if !aok {
		return samePlan(a, b)
	}
	return sameConjuncts(sa.Pred, sb.Pred) && sameRelation(sa.Input, sb.Input)
}

func sameConjuncts(a, b expr.Expr) bool {
	ca, cb := expr.SplitConjuncts(a), expr.SplitConjuncts(b)
	if len(ca) != len(cb) {
		return false
	}
	set := map[string]int{}
	for _, c := range ca {
		set[c.String()]++
	}
	for _, c := range cb {
		if set[c.String()] == 0 {
			return false
		}
		set[c.String()]--
	}
	return true
}
