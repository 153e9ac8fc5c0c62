// Package core implements the MD-join operator of Chatziantoniou & Johnson
// (ICDE 2001) and its execution strategies.
//
// The MD-join MD(B, R, l, θ) produces one output row per row b of the
// base-values relation B, carrying b's attributes plus one column per
// aggregate f(c) ∈ l evaluated over RNG(b, R, θ) = {r ∈ R | θ(b, r)}
// (Definition 3.1). Its row count equals |B| — an outer-join-like
// semantics: base rows with empty ranges still appear, with count 0 and
// NULL for the other aggregates.
//
// The executor realizes Algorithm 3.1 — scan the detail relation once and
// fold each tuple into the aggregate states of its relative set Rel(t) ⊆ B
// — augmented with the paper's Section 4 optimizations:
//
//   - Section 4.5 indexing: equi conjuncts of θ ("B.col = expr(R)") build a
//     hash index on B so Rel(t) is found by probing instead of a nested
//     loop.
//   - Theorem 4.2 pushdown: conjuncts referencing only R pre-filter the
//     detail scan.
//   - Generalized MD-join (Section 4.3): a vector of (l, θ) phases shares a
//     single detail scan.
//   - Theorem 4.1: partitioned evaluation bounds resident base rows
//     (m scans of R), and both base- and detail-partitioned parallelism.
//
// Three interchangeable inner loops drive the detail scan. The default is
// the columnar chunk executor (chunk.go): R is processed in fixed-size
// batches viewed as table.Chunk columns — typed arrays plus NULL/ALL
// bitmaps, either prebuilt by table.Builder or transposed on the fly — and
// per-phase R-only conjuncts, index-key expressions, and aggregate
// arguments all run through typed kernels before a fused probe-and-feed
// loop updates arena-backed aggregate states through a flat
// open-addressing index. Options.DisableColumnar keeps the same batch
// structure but row-major: boxed table.Value vectors per batch (batch.go),
// the PR 2 executor. The tuple-at-a-time interpreter below is kept
// verbatim as the Algorithm 3.1 reference, selectable via
// Options.DisableBatch, so equivalence tests and benches can diff all
// three.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mdjoin/internal/agg"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// Phase is one (aggregate-list, θ) pair of a generalized MD-join. The
// plain MD-join of Definition 3.1 is a single phase.
type Phase struct {
	Aggs  []agg.Spec
	Theta expr.Expr
}

// Options tune the execution strategy. The zero value gives the fully
// optimized single-pass evaluation (vectorized batches, index on, pushdown
// on, sequential).
type Options struct {
	// BAlias and RAlias add extra qualifiers under which θ may reference
	// the base and detail relations (besides the defaults "B" and "R") —
	// typically the real table name, e.g. "Sales", so θ can be written
	// exactly as in the paper: Sales.cust = cust.
	BAlias string
	RAlias string

	// DisableIndex forces the verbatim nested-loop Algorithm 3.1 even when
	// θ has equi conjuncts; used by benches to measure the Section 4.5
	// indexing payoff.
	DisableIndex bool

	// DisablePushdown keeps R-only conjuncts in the per-pair check instead
	// of pre-filtering the scan (Theorem 4.2 off).
	DisablePushdown bool

	// DisableBatch forces the tuple-at-a-time interpreter instead of the
	// vectorized batch executor: each detail tuple is dispatched through
	// every phase individually and the base index (if any) is the
	// map-backed reference implementation. Combined with DisableIndex this
	// is the verbatim Algorithm 3.1 nested loop. Equivalence tests diff
	// the batched paths against it; benches use it as the scalar baseline.
	DisableBatch bool

	// DisableColumnar keeps the row-batch executor: batches stay row-major
	// []table.Row and predicates, keys, and aggregate arguments evaluate
	// through the boxed value kernels instead of the typed columnar chunk
	// kernels. Ignored when DisableBatch already selected the scalar
	// interpreter. Equivalence tests diff all three executor paths.
	DisableColumnar bool

	// MaxBaseRows, when positive, bounds how many base rows are resident
	// at once; B is split into ceil(|B|/MaxBaseRows) contiguous partitions
	// and R is scanned once per partition (Theorem 4.1's in-memory
	// evaluation trade: m scans for bounded memory).
	//
	// Partitioning composes with Parallelism and DetailParallelism: each
	// partition pass evaluates with the requested parallel strategy.
	// Base parallelism splits the (already bounded) partition further, so
	// the MaxBaseRows residency bound still holds; detail parallelism
	// multiplies a partition's aggregate-state memory by the worker count,
	// which the MemoryBudgetBytes estimate does not model — size budgets
	// for the combined footprint when mixing the two.
	MaxBaseRows int

	// MemoryBudgetBytes, when positive and MaxBaseRows is zero, derives
	// MaxBaseRows from an estimate of the per-base-row working-set size
	// (row values, aggregate states, index entries) — the way an engine
	// would apply Theorem 4.1 given its buffer allocation. A budget
	// smaller than one row's footprint still admits one row per pass.
	MemoryBudgetBytes int

	// Parallelism, when > 1, partitions B across that many goroutines,
	// each scanning R independently (Theorem 4.1's intra-operator
	// parallelism). Mutually exclusive with DetailParallelism.
	Parallelism int

	// DetailParallelism, when > 1, partitions R across that many
	// goroutines and merges per-partition aggregate states — the
	// alternative parallelization enabled by mergeable aggregates.
	// Workers pull morsels (a few chunks of R) from a shared atomic
	// cursor, so skewed pushdown selectivity or straggling workers
	// cannot idle the rest of the pool.
	DetailParallelism int

	// StaticDetailSplit restores the pre-morsel detail parallelism: R is
	// split into p contiguous ranges up front, one per worker. Kept as
	// the reference scheduler the skew benchmarks diff the morsel queue
	// against; production callers should leave it false.
	StaticDetailSplit bool

	// Stats, when non-nil, receives the execution metrics tree (flat
	// counters plus per-phase tier/index/pushdown/kernel detail). A nil
	// Stats costs the hot path nothing beyond a pointer check — see the
	// overhead contract in stats.go.
	Stats *Stats

	// Ctx, when non-nil, is polled during detail scans (once per batch on
	// the vectorized path, every cancelCheckInterval tuples on the scalar
	// path); cancellation aborts the evaluation with ctx.Err(). This is
	// what lets a distributed site abandon work whose caller has timed out
	// instead of scanning to completion. Under a merged multi-query scan
	// the poll is per bundle: cancellation evicts this caller's phases
	// without aborting the shared scan.
	Ctx context.Context

	// Shared, when non-nil, routes mergeable evaluations through the
	// cross-query shared-scan coordinator (shared.go): bundles arriving
	// within its window that target the same detail table run as one
	// merged scan. Plan nodes (optimizer.MDJoin) honor it; calling
	// Eval/EvalSource directly bypasses it.
	Shared *SharedExecutor
}

// cancelCheckInterval bounds how many detail tuples are processed between
// Ctx polls on the scalar path: frequent enough that a cancelled scan
// stops promptly, rare enough that the check is invisible in the profile.
// The batch executor polls once per batch, which is the same cadence.
const cancelCheckInterval = 1024

// ctxErr reports the context's error if it has been cancelled; a nil
// context never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// MDJoin evaluates the plain MD-join MD(b, r, aggs, theta) with default
// options: this is the operator of Definition 3.1.
func MDJoin(b, r *table.Table, aggs []agg.Spec, theta expr.Expr) (*table.Table, error) {
	return Eval(b, r, []Phase{{Aggs: aggs, Theta: theta}}, Options{})
}

// Eval evaluates a generalized MD-join MD(b, r, (l₁..l_k), (θ₁..θ_k)): all
// phases share the detail scan(s), appending their aggregate columns to B
// in phase order. It is a thin wrapper over the three-stage bundle API:
// compile one bundle, run it (a one-bundle merged scan on the plan-sharing
// strategies — see bundle.go).
func Eval(b, r *table.Table, phases []Phase, opt Options) (*table.Table, error) {
	bu, err := Compile(b, r, phases, opt)
	if err != nil {
		return nil, err
	}
	return bu.Run()
}

// baseRowsForBudget estimates how many base rows fit in the given byte
// budget: each resident row carries its values, one aggregate state per
// spec per phase, and a hash-index entry. The estimate is deliberately
// coarse (holistic aggregate states grow with data); at least one row is
// always admitted so evaluation can proceed.
func baseRowsForBudget(b *table.Table, phases []Phase, budget int) int {
	const (
		valueBytes = 48 // table.Value struct
		stateBytes = 64 // typical small aggregate state + header
		indexBytes = 24 // bucket slot + ordinal
	)
	perRow := b.Schema.Len()*valueBytes + indexBytes
	for _, p := range phases {
		perRow += len(p.Aggs) * stateBytes
	}
	n := budget / perRow
	if n < 1 {
		n = 1
	}
	return n
}

// probeIndex is the common surface of the two base-index layouts: the flat
// open-addressing table.Index (vectorized path) and the map-backed
// table.MapIndex (scalar reference path).
type probeIndex interface {
	ProbeAppend(dst []int, key []table.Value) []int
}

// phasePlan is one phase compiled against the (B, R) schemas: the
// read-only product of analysis and compilation, safe to share across the
// workers of a parallel evaluation. All mutable per-evaluation state lives
// in compiledPhase.
type phasePlan struct {
	// pi is the phase's ordinal, addressing its PhaseStats leaf.
	pi    int
	specs []*agg.Compiled
	// analysis of θ
	analysis *expr.ThetaAnalysis
	// compiled predicate pieces
	rOnly    *expr.Compiled // conjunction of R-only conjuncts (nil if none)
	bOnly    *expr.Compiled // conjunction of B-only conjuncts
	residual *expr.Compiled // conjunction of residual conjuncts
	equiKeys []*expr.Compiled
	// cubePos lists positions in equiKeys that use cube equality (=^):
	// for those, the probe expands over {value, ALL} so base rows holding
	// the ALL marker receive every matching tuple. cubeAt is the parallel
	// per-position flag.
	cubePos []int
	cubeAt  []bool
	// cubeMasks lists, ascending, the ALL-substitution masks (bit p ↔
	// equi-key position p, one of cubePos) that some base row carries. A
	// probe under mask m can only hit rows holding ALL exactly at m's
	// positions, so these are the only probes worth making: up to 2^k for
	// a cube base, just mask 0 — one probe per tuple — for a base without
	// ALL markers.
	cubeMasks []uint64
	// index over B's equi columns (nil → nested loop). Flat when the
	// batch executor drives the scan, map-backed for the scalar reference.
	index probeIndex
	// scalar is true when Options.DisableBatch selected the
	// tuple-at-a-time interpreter.
	scalar bool
	// columnar is true when the chunk executor should drive this phase
	// (batching on, DisableColumnar off); newPhaseExecs then compiles the
	// per-worker chunkPhase from bind/rslot.
	columnar bool
	bind     *expr.Binding
	rslot    int
	// bAlive[i] == false when the B-only conjuncts exclude row i forever.
	bAlive []bool
}

// compiledPhase is a phasePlan plus the mutable execution state one worker
// owns: arena-backed aggregate states and reusable scratch vectors.
type compiledPhase struct {
	*phasePlan
	// per-B-row aggregate states: states.At(bi, j) is row bi's
	// accumulator for spec j, arena-allocated in one block per phase.
	states *agg.Arena
	// scratch buffers reused across tuples and batches (each worker owns
	// its compiledPhases, so no synchronization is needed)
	probeBuf []int
	savedBuf []table.Value
	keyBuf   []table.Value
	// batch-executor scratch: the selection vector and one column vector
	// per equi-key expression
	sel     []int32
	keyCols [][]table.Value
	// chunk holds this worker's compiled columnar programs when the phase
	// runs on the chunk executor; nil selects the boxed row-batch path.
	chunk *chunkPhase
}

// outSchema derives the generalized MD-join's output schema: B's columns
// followed by every phase's aggregate columns. Duplicate aggregate output
// names across phases are an error (surfaced by Schema.Append's panic is
// avoided — we validate here).
func outSchema(b *table.Table, phases []Phase) (*table.Schema, error) {
	schema := b.Schema
	for pi, p := range phases {
		for _, s := range p.Aggs {
			if schema.Has(s.OutName()) {
				return nil, fmt.Errorf("core: phase %d aggregate output %q collides with an existing column", pi, s.OutName())
			}
			schema = schema.Append(table.Field{Name: s.OutName()})
		}
	}
	return schema, nil
}

// compilePhases compiles every phase against the base/detail schemas and
// builds the read-only plans: predicates, key expressions, the base index,
// and the B-only liveness bitmap. The result is shared by all workers of
// a parallel evaluation; call newPhaseExecs once per worker for the
// mutable part.
func compilePhases(b *table.Table, rSchema *table.Schema, phases []Phase, opt Options) ([]*phasePlan, error) {
	if opt.Stats != nil {
		opt.Stats.ensurePhases(len(phases))
	}
	out := make([]*phasePlan, len(phases))
	for pi, p := range phases {
		bind := expr.NewBinding()
		bquals := []string{"b", "base"}
		if opt.BAlias != "" {
			bquals = append(bquals, opt.BAlias)
		}
		rquals := []string{"r", "detail"}
		if opt.RAlias != "" {
			rquals = append(rquals, opt.RAlias)
		}
		bslot := bind.AddRel(b.Schema, bquals...)
		rslot := bind.AddRel(rSchema, rquals...)

		ta, err := expr.AnalyzeTheta(p.Theta, bind, bslot, rslot)
		if err != nil {
			return nil, fmt.Errorf("core: phase %d θ analysis: %w", pi, err)
		}
		pp := &phasePlan{
			pi:       pi,
			analysis: ta,
			scalar:   opt.DisableBatch,
			columnar: !opt.DisableBatch && !opt.DisableColumnar,
			bind:     bind,
			rslot:    rslot,
		}

		pp.specs, err = agg.CompileSpecs(p.Aggs, bind)
		if err != nil {
			return nil, fmt.Errorf("core: phase %d: %w", pi, err)
		}

		compileAnd := func(es []expr.Expr) (*expr.Compiled, error) {
			if len(es) == 0 {
				return nil, nil
			}
			return expr.Compile(expr.And(es...), bind)
		}
		if !opt.DisablePushdown {
			if pp.rOnly, err = compileAnd(ta.ROnly); err != nil {
				return nil, err
			}
			residual := ta.Residual
			if opt.DisableIndex {
				// Index off: equi conjuncts degrade to residual checks.
				for _, c := range ta.Conjuncts {
					if c.Class == expr.ClassEqui || c.Class == expr.ClassCubeEqui {
						residual = append(residual, c.Expr)
					}
				}
			}
			if pp.residual, err = compileAnd(residual); err != nil {
				return nil, err
			}
		} else {
			// Pushdown off: R-only conjuncts are evaluated per pair too.
			residual := append(append([]expr.Expr{}, ta.Residual...), ta.ROnly...)
			if opt.DisableIndex {
				for _, c := range ta.Conjuncts {
					if c.Class == expr.ClassEqui || c.Class == expr.ClassCubeEqui {
						residual = append(residual, c.Expr)
					}
				}
			}
			if pp.residual, err = compileAnd(residual); err != nil {
				return nil, err
			}
		}
		if pp.bOnly, err = compileAnd(ta.BOnly); err != nil {
			return nil, err
		}

		if !opt.DisableIndex && len(ta.EquiBCols) > 0 {
			if opt.DisableBatch {
				pp.index = table.BuildMapIndex(b, ta.EquiBCols)
			} else {
				pp.index = table.BuildIndexOrdinals(b, ta.EquiBCols)
			}
			pp.equiKeys = make([]*expr.Compiled, len(ta.EquiRSides))
			for i, e := range ta.EquiRSides {
				c, err := expr.Compile(e, bind)
				if err != nil {
					return nil, err
				}
				pp.equiKeys[i] = c
				if ta.EquiIsCube[i] {
					pp.cubePos = append(pp.cubePos, i)
				}
			}
			pp.cubeAt = make([]bool, len(ta.EquiIsCube))
			copy(pp.cubeAt, ta.EquiIsCube)
			if len(pp.cubePos) > 0 {
				pp.cubeMasks = presentMasks(b, ta.EquiBCols, pp.cubePos)
			}
			if opt.Stats != nil {
				opt.Stats.IndexUsed = true
				opt.Stats.phase(pi).IndexUsed = true
			}
		}

		// Pre-evaluate B-only conjuncts once per base row.
		pp.bAlive = make([]bool, b.Len())
		frame := make([]table.Row, 2)
		for i, br := range b.Rows {
			if pp.bOnly == nil {
				pp.bAlive[i] = true
				continue
			}
			frame[0] = br
			pp.bAlive[i] = pp.bOnly.Truth(frame)
		}
		out[pi] = pp
	}
	return out, nil
}

// presentMasks collects the distinct ALL-substitution masks of b's rows
// over the cube-equality key columns (see phasePlan.cubeMasks).
func presentMasks(b *table.Table, bcols, cubePos []int) []uint64 {
	seen := map[uint64]bool{}
	last := uint64(math.MaxUint64)
	for _, r := range b.Rows {
		var m uint64
		for _, p := range cubePos {
			if r[bcols[p]].IsAll() {
				m |= 1 << uint(p)
			}
		}
		if m != last { // grouping sets are contiguous: skip the map mostly
			seen[m], last = true, m
		}
	}
	out := make([]uint64, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// newPhaseExecs attaches fresh per-worker execution state (arena-backed
// aggregate states, scratch buffers) to shared phase plans.
func newPhaseExecs(plans []*phasePlan, nBase int) []*compiledPhase {
	out := make([]*compiledPhase, len(plans))
	for i, pp := range plans {
		cp := &compiledPhase{
			phasePlan: pp,
			states:    agg.NewArena(pp.specs, nBase),
		}
		if pp.columnar {
			// nil on (unreachable) chunk-compile failure, which quietly
			// falls back to the boxed row-batch path for this phase.
			cp.chunk = newChunkPhase(pp)
		}
		out[i] = cp
	}
	return out
}

// recordArenas adds the workers' aggregate-state footprint to the tree.
func recordArenas(stats *Stats, cps []*compiledPhase) {
	if stats == nil {
		return
	}
	for _, cp := range cps {
		stats.ArenaBytes += cp.states.SizeBytes()
	}
}

// recordTiers notes which executor will drive each phase's scan: the
// scalar interpreter, the boxed row-batch path, or — when the phase's
// chunk programs compiled — the columnar chunk executor.
func recordTiers(stats *Stats, cps []*compiledPhase) {
	if stats == nil {
		return
	}
	for _, cp := range cps {
		ph := stats.phase(cp.pi)
		switch {
		case cp.scalar:
			ph.Tier = TierScalar
		case cp.chunk != nil:
			ph.Tier = TierColumnar
		default:
			ph.Tier = TierRowBatch
		}
	}
}

// scanDetail performs the detail scan over a materialized table, updating
// every phase's states. The vectorized batch executor drives the scan
// unless the phases were compiled with DisableBatch. A cancelled ctx
// aborts the scan between tuples (scalar) or batches (vectorized).
func scanDetail(ctx context.Context, b, r *table.Table, cps []*compiledPhase, stats *Stats) error {
	recordTiers(stats, cps)
	if len(cps) > 0 && !cps[0].scalar {
		return scanDetailBatched(ctx, b, r, cps, stats)
	}
	frame := make([]table.Row, 2)
	var key []table.Value
	for i, t := range r.Rows {
		if i%cancelCheckInterval == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		key = processTuple(b, cps, frame, key, t, stats)
	}
	return nil
}

// processTuple folds one detail tuple into every phase; it returns the
// (possibly grown) probe-key buffer for reuse. This is the verbatim
// tuple-at-a-time interpreter kept as the Algorithm 3.1 reference.
func processTuple(b *table.Table, cps []*compiledPhase, frame []table.Row, key []table.Value, t table.Row, stats *Stats) []table.Value {
	{
		if stats != nil {
			stats.TuplesScanned++
		}
		frame[1] = t
		for _, cp := range cps {
			// Theorem 4.2: R-only conjuncts gate the tuple before any
			// base-row work.
			if cp.rOnly != nil {
				frame[0] = nil
				ok := cp.rOnly.Truth(frame)
				if stats != nil {
					ph := stats.phase(cp.pi)
					ph.PushdownIn++
					if ok {
						ph.PushdownOut++
					}
				}
				if !ok {
					continue
				}
			}
			if cp.index != nil {
				// Section 4.5: probe the B index with the tuple's key.
				if cap(key) < len(cp.equiKeys) {
					key = make([]table.Value, len(cp.equiKeys))
				}
				key = key[:len(cp.equiKeys)]
				degenerate, dead := false, false
				for i, ke := range cp.equiKeys {
					key[i] = ke.Eval(frame)
					if key[i].IsAll() {
						// A detail-side ALL matches every base value
						// under =^; fall back to the full loop for this
						// tuple (cannot arise from ordinary detail data).
						degenerate = true
					}
					if key[i].IsNull() && !cp.cubeAt[i] {
						// Strict equality with NULL is never true: no
						// base row can match this tuple in this phase.
						dead = true
					}
				}
				if dead {
					continue
				}
				if !degenerate {
					if len(cp.cubePos) == 0 {
						// Plain equality: one probe, no key rewriting.
						cp.probeBuf = cp.index.ProbeAppend(cp.probeBuf[:0], key)
						if stats != nil {
							ph := stats.phase(cp.pi)
							ph.IndexProbes++
							ph.IndexHits += len(cp.probeBuf)
						}
						for _, bi := range cp.probeBuf {
							if !cp.bAlive[bi] {
								continue
							}
							updatePair(cp, b.Rows[bi], bi, frame, stats)
						}
						continue
					}
					probeCube(cp, b, key, frame, stats)
					continue
				}
			}
			// Verbatim Algorithm 3.1: loop over all rows of B.
			for bi, br := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				updatePair(cp, br, bi, frame, stats)
			}
		}
	}
	return key
}

// probeCube probes the base index once per cube-equality combination
// present in B: each =^ key position is tried with the tuple's value or
// with the ALL marker, so a tuple updates its (up to 2^k) cube cells in
// one pass — the paper's single-scan evaluation of a cube-structured
// base-values table.
func probeCube(cp *compiledPhase, b *table.Table, key []table.Value, frame []table.Row, stats *Stats) {
	k := len(cp.cubePos)
	if cap(cp.savedBuf) < k {
		cp.savedBuf = make([]table.Value, k)
	}
	saved := cp.savedBuf[:k]
	for i, p := range cp.cubePos {
		saved[i] = key[p]
	}
	for _, mask := range cp.cubeMasks {
		for i, p := range cp.cubePos {
			if mask&(1<<uint(p)) != 0 {
				key[p] = table.All()
			} else {
				key[p] = saved[i]
			}
		}
		cp.probeBuf = cp.index.ProbeAppend(cp.probeBuf[:0], key)
		if stats != nil {
			ph := stats.phase(cp.pi)
			ph.IndexProbes++
			ph.IndexHits += len(cp.probeBuf)
		}
		for _, bi := range cp.probeBuf {
			if !cp.bAlive[bi] {
				continue
			}
			updatePair(cp, b.Rows[bi], bi, frame, stats)
		}
	}
	// Restore the key buffer for the next phase.
	for i, p := range cp.cubePos {
		key[p] = saved[i]
	}
}

// updatePair checks the residual θ conjuncts for one (b, r) pair and feeds
// the aggregates on success.
func updatePair(cp *compiledPhase, brow table.Row, bi int, frame []table.Row, stats *Stats) {
	frame[0] = brow
	if stats != nil {
		stats.PairsTested++
		stats.phase(cp.pi).PairsTested++
	}
	if cp.residual != nil && !cp.residual.Truth(frame) {
		return
	}
	if stats != nil {
		stats.PairsMatched++
		stats.phase(cp.pi).PairsMatched++
	}
	row := cp.states.Row(bi)
	for j, c := range cp.specs {
		c.Feed(row[j], frame)
	}
}

// assemble emits the output table: B's rows extended with each phase's
// aggregate results. All output rows are carved out of one backing array —
// |B|·width values in a single allocation instead of one per row — sized
// exactly, so the appends below never reallocate and every row is a
// full-capacity three-index slice (an append to one row can never spill
// into the next).
func assemble(schema *table.Schema, b *table.Table, cps []*compiledPhase) *table.Table {
	out := table.New(schema)
	w := schema.Len()
	out.Rows = make([]table.Row, 0, b.Len())
	backing := make([]table.Value, 0, b.Len()*w)
	for bi, br := range b.Rows {
		start := len(backing)
		backing = append(backing, br...)
		for _, cp := range cps {
			for _, st := range cp.states.Row(bi) {
				backing = append(backing, st.Result())
			}
		}
		out.Rows = append(out.Rows, table.Row(backing[start:len(backing):len(backing)]))
	}
	return out
}
