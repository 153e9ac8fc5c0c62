// Incremental MD-join maintenance: compile MD(B, R, l, θ) once into a
// live materialization, then fold detail deltas into it as they arrive
// instead of rescanning R.
//
// The trick is that nothing about the MD-join's inner loop cares whether
// the detail tuples come from one scan or many: every probe-and-feed
// touches only the compiled phase plans (read-only, built over B) and the
// per-(row, spec) aggregate arenas (mergeable, and for count/sum/avg
// invertible). Append therefore drives the exact vectorized pipeline of
// the batch executor — pushdown filters, typed equi-key kernels, the flat
// index prober — over each delta batch. The Incremental keeps one
// persistent batch driver, so the scratch chunk's dictionaries (and with
// them the prober's memoized dict-translation tables, see table.Prober)
// extend incrementally across appends: a string key seen in batch 1 is a
// cached code translation in batch 1000.
//
// Three maintenance modes:
//
//   - Append-only (the default): states only ever grow; Snapshot is a
//     pure assemble over the live arenas, O(|B|) with no R work at all.
//   - Windowed with subtraction: when every aggregate is invertible
//     (agg.Subtractor — count, sum, avg), expired buckets are replayed
//     through the same pipeline into a scratch arena and subtracted
//     (Arena.Unmerge) from the live one. The window costs one retained
//     copy of each in-window delta row.
//   - Windowed, partitioned: non-invertible aggregates (min, median, ...)
//     get one arena per window bucket; Snapshot merges the surviving
//     buckets and eviction just drops one — re-aggregation over buckets
//     instead of rows, the classic paired-down subtraction substitute.
//
// Roll-up maintenance (Theorem 4.5) rides on the same delta flow: a
// Rollup holds a coarser cuboid's states and, on every append, folds the
// *finer materialization's delta results* — not R — through each
// function's re-aggregate (count→sum, sum→sum, min→min). Distributivity
// makes the sum of per-delta re-aggregations equal the re-aggregation of
// the total, so the coarse cuboid stays exact without ever touching the
// detail relation.
package core

import (
	"fmt"
	"sync"

	"mdjoin/internal/agg"
	"mdjoin/internal/engine"
	"mdjoin/internal/table"
)

// IncrementalConfig selects the maintenance mode of an Incremental.
type IncrementalConfig struct {
	// WindowBuckets, when positive, keeps the materialization windowed:
	// appended rows land in the current bucket, Advance seals it and
	// starts a new one, and only the most recent WindowBuckets buckets
	// (including the current one) contribute to Snapshot. 0 means
	// append-only: every row ever appended stays in the result.
	WindowBuckets int

	// DisableSubtraction forces the window-partitioned arenas even when
	// every aggregate is invertible. Eviction then re-aggregates over the
	// surviving buckets instead of subtracting the expired one — the
	// differential tests diff the two paths against each other.
	DisableSubtraction bool
}

// bucket is one window generation: the rows it contributed (retained only
// in subtraction mode, for the eviction replay) or its own sealed arenas
// (partitioned mode).
type bucket struct {
	rows   []table.Row
	arenas []*agg.Arena
	n      int
}

// Incremental is a live MD-join materialization. Build one with
// NewIncremental, feed it with Append (and Advance, when windowed), read
// it with Snapshot. All methods are safe for concurrent use; Append,
// Advance, and Snapshot serialize on an internal mutex, so writers never
// observe a half-applied delta and readers always see a batch boundary.
//
// A context cancellation that lands mid-append leaves the materialization
// between batches of a delta; the Incremental then poisons itself — every
// later call returns the interrupting error — rather than serve a state
// that corresponds to no prefix of the appended stream.
type Incremental struct {
	mu      sync.Mutex
	base    *table.Table
	rSchema *table.Schema
	schema  *table.Schema
	opt     Options
	cfg     IncrementalConfig

	plans  []*phasePlan
	cps    []*compiledPhase
	driver *batchDriver
	scalar bool

	// subtract is true when the window evicts by replay-and-unmerge;
	// false selects partitioned buckets (or no window at all).
	subtract bool
	buckets  []*bucket // sealed, oldest first; windowed mode only
	cur      *bucket   // the open bucket; windowed mode only

	rollups []*Rollup

	live  int   // rows currently contributing to Snapshot
	total int64 // rows ever appended
	err   error // poisoned after a mid-append interruption

	// scalar-tier scratch (persistent so the per-tuple path allocates
	// nothing per append)
	frame []table.Row
	key   []table.Value
}

// NewIncremental compiles MD(b, R, l, θ) into a live materialization with
// an empty detail relation: θ analysis, pushdown compilation, the flat
// index over b, and the B-only liveness bitmap all happen once, here.
//
// Execution is strictly sequential — parallel options are rejected — and
// the whole base relation stays resident: Options.MaxBaseRows and
// MemoryBudgetBytes do not partition an Incremental (partitioned
// evaluation trades memory for rescans of R, and an Incremental never
// rescans). Callers that need memory accounting read SizeBytes.
func NewIncremental(b *table.Table, rSchema *table.Schema, phases []Phase, opt Options, cfg IncrementalConfig) (*Incremental, error) {
	if b == nil || rSchema == nil {
		return nil, fmt.Errorf("core: incremental needs a base table and a detail schema")
	}
	if opt.Parallelism > 1 || opt.DetailParallelism > 1 {
		return nil, fmt.Errorf("core: incremental evaluation is sequential; parallel options are not supported")
	}
	if opt.MaxBaseRows > 0 {
		return nil, fmt.Errorf("core: incremental evaluation keeps all base rows resident; MaxBaseRows is not supported")
	}
	if cfg.WindowBuckets < 0 {
		return nil, fmt.Errorf("core: negative WindowBuckets %d", cfg.WindowBuckets)
	}
	if err := ctxErr(opt.Ctx); err != nil {
		return nil, err
	}
	schema, err := outSchema(b, phases)
	if err != nil {
		return nil, err
	}
	plans, err := compilePhases(b, rSchema, phases, opt)
	if err != nil {
		return nil, err
	}
	cps := newPhaseExecs(plans, b.Len())
	recordTiers(opt.Stats, cps)
	recordArenas(opt.Stats, cps)
	inc := &Incremental{
		base:    b,
		rSchema: rSchema,
		schema:  schema,
		opt:     opt,
		cfg:     cfg,
		plans:   plans,
		cps:     cps,
		driver:  newBatchDriver(rSchema, cps),
		scalar:  opt.DisableBatch,
		frame:   make([]table.Row, 2),
	}
	if cfg.WindowBuckets > 0 {
		inc.cur = &bucket{}
		inc.subtract = !cfg.DisableSubtraction
		for _, cp := range cps {
			for _, c := range cp.specs {
				if !agg.IsSubtractable(c.Fn) {
					inc.subtract = false
				}
			}
		}
	}
	return inc, nil
}

// Schema returns the output schema: the base columns followed by every
// phase's aggregate columns.
func (inc *Incremental) Schema() *table.Schema { return inc.schema }

// Rows reports how many appended detail rows currently contribute to the
// result (the live window, or everything in append-only mode).
func (inc *Incremental) Rows() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.live
}

// Total reports how many detail rows were ever appended.
func (inc *Incremental) Total() int64 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.total
}

// Append folds a batch of new detail tuples into the materialization
// through the compiled probe pipeline. Rows are validated against the
// detail schema before any state changes; a width mismatch is rejected
// with the materialization untouched. The Incremental aliases the given
// rows only in windowed-subtraction mode (they are retained until their
// bucket expires); callers must not mutate them after a successful
// Append.
func (inc *Incremental) Append(rows []table.Row) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.err != nil {
		return inc.err
	}
	for i, r := range rows {
		// Validation happens before any state changes, so cancellation
		// here fails fast with no poisoning — nothing was applied.
		if i&1023 == 0 {
			if err := ctxErr(inc.opt.Ctx); err != nil {
				return err
			}
		}
		if len(r) != inc.rSchema.Len() {
			return fmt.Errorf("core: incremental append row %d has %d values, schema has %d", i, len(r), inc.rSchema.Len())
		}
	}
	// An empty delta skips the loop's poll; an already-cancelled context
	// still fails fast before the fold below.
	if err := ctxErr(inc.opt.Ctx); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}

	// Roll-up maintenance needs this append's delta isolated: swap fresh
	// arenas in, feed, then merge the delta back and fold its results
	// into every attached roll-up.
	var live []*agg.Arena
	if len(inc.rollups) > 0 {
		live = inc.detachArenas()
		inc.installArenas(inc.freshArenas())
	}
	if err := inc.feed(rows); err != nil {
		// Mid-append cancellation: some batches of this delta applied,
		// some did not. No consistent prefix corresponds to the current
		// states, so poison the materialization.
		inc.err = err
		return err
	}
	if live != nil {
		delta := inc.detachArenas()
		inc.installArenas(live)
		for i, a := range live {
			a.Merge(delta[i])
		}
		for _, ru := range inc.rollups {
			ru.fold(delta)
		}
	}
	if inc.cur != nil {
		inc.cur.n += len(rows)
		if inc.subtract {
			inc.cur.rows = append(inc.cur.rows, rows...)
		}
	}
	inc.live += len(rows)
	inc.total += int64(len(rows))
	return nil
}

// feed runs the delta through the compiled pipeline: the persistent batch
// driver on the vectorized tiers (reusing its scratch chunk, whose
// dictionaries — and the prober's translation memos keyed on them — grow
// append-only across calls), or the tuple-at-a-time interpreter under
// DisableBatch. The context is polled at batch cadence, same as a scan.
func (inc *Incremental) feed(rows []table.Row) error {
	stats := inc.opt.Stats
	if inc.scalar {
		for i, t := range rows {
			// The i == 0 poll is the caller's (Append checks before any
			// state changes), so a cancellation can only interrupt a
			// partially-applied delta, never a pristine one.
			if i > 0 && i%cancelCheckInterval == 0 {
				if err := ctxErr(inc.opt.Ctx); err != nil {
					return err
				}
			}
			inc.key = processTuple(inc.base, inc.cps, inc.frame, inc.key, t, stats)
		}
		return nil
	}
	for start := 0; start < len(rows); start += batchSize {
		if start > 0 {
			if err := ctxErr(inc.opt.Ctx); err != nil {
				return err
			}
		}
		end := start + batchSize
		if end > len(rows) {
			end = len(rows)
		}
		inc.driver.processBatch(inc.base, inc.cps, rows[start:end], nil, stats)
	}
	return nil
}

// Advance seals the current window bucket and starts a new one, evicting
// buckets that fall out of the window. In subtraction mode the expired
// bucket's rows are replayed through the pipeline into a scratch arena
// and subtracted from the live states; in partitioned mode the bucket's
// arenas are simply dropped. Advance on a non-windowed Incremental is an
// error.
func (inc *Incremental) Advance() error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.err != nil {
		return inc.err
	}
	if inc.cur == nil {
		return fmt.Errorf("core: Advance on a non-windowed incremental (WindowBuckets is 0)")
	}
	if err := ctxErr(inc.opt.Ctx); err != nil {
		return err
	}
	sealed := inc.cur
	if !inc.subtract {
		sealed.arenas = inc.detachArenas()
		inc.installArenas(inc.freshArenas())
	}
	inc.buckets = append(inc.buckets, sealed)
	inc.cur = &bucket{}
	for len(inc.buckets) > inc.cfg.WindowBuckets-1 {
		victim := inc.buckets[0]
		inc.buckets = inc.buckets[1:]
		if inc.subtract {
			if err := inc.unmergeRows(victim.rows); err != nil {
				inc.err = err
				return err
			}
		}
		inc.live -= victim.n
	}
	return nil
}

// unmergeRows replays expired rows through the pipeline into scratch
// arenas and subtracts the result from the live states — the delta
// inverse, reusing the whole probe pipeline (and its memoized dictionary
// translations) instead of duplicating it with a sign flipped.
func (inc *Incremental) unmergeRows(rows []table.Row) error {
	if len(rows) == 0 {
		return nil
	}
	live := inc.detachArenas()
	inc.installArenas(inc.freshArenas())
	err := inc.feed(rows)
	scratch := inc.detachArenas()
	inc.installArenas(live)
	if err != nil {
		return err
	}
	for i, a := range live {
		a.Unmerge(scratch[i])
	}
	return nil
}

// Snapshot assembles the current result table — one row per base row,
// aggregates over every detail tuple in the live window — without
// touching R. The returned table is freshly allocated and immune to later
// appends. Cost is O(|B| × specs) in append-only and subtraction modes;
// partitioned windows additionally merge the surviving buckets' arenas
// first.
func (inc *Incremental) Snapshot() (*table.Table, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.err != nil {
		return nil, inc.err
	}
	if err := ctxErr(inc.opt.Ctx); err != nil {
		return nil, err
	}
	return inc.assembleLive(), nil
}

// SnapshotRows is Snapshot plus the number of live detail rows the
// snapshot aggregates (Rows), both read under one lock, so an Append
// racing the call cannot make the count run ahead of the result.
func (inc *Incremental) SnapshotRows() (*table.Table, int, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.err != nil {
		return nil, 0, inc.err
	}
	if err := ctxErr(inc.opt.Ctx); err != nil {
		return nil, 0, err
	}
	return inc.assembleLive(), inc.live, nil
}

// assembleLive builds the result table of the live window; the caller
// holds mu and has checked the poison.
func (inc *Incremental) assembleLive() *table.Table {
	if inc.cur == nil || inc.subtract {
		return assemble(inc.schema, inc.base, inc.cps)
	}
	// Partitioned window: re-aggregate the surviving buckets (oldest
	// first, so order-sensitive states see arrival order) plus the open
	// bucket into fresh arenas, and assemble from shallow phase copies.
	tmp := make([]*compiledPhase, len(inc.cps))
	for i, cp := range inc.cps {
		merged := agg.NewArena(cp.specs, inc.base.Len())
		for _, bk := range inc.buckets {
			merged.Merge(bk.arenas[i])
		}
		merged.Merge(cp.states)
		shallow := *cp
		shallow.states = merged
		tmp[i] = &shallow
	}
	return assemble(inc.schema, inc.base, tmp)
}

// SizeBytes estimates the materialization's resident footprint: live and
// sealed arenas plus retained window rows. This is what mdserve's
// per-view accounting charges against the view budget.
func (inc *Incremental) SizeBytes() int64 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.err != nil {
		// A poisoned materialization serves nothing, so it charges
		// nothing; walking half-applied arenas would also misreport.
		return 0
	}
	const valueBytes = 48 // table.Value struct, as in baseRowsForBudget
	rowBytes := int64(inc.rSchema.Len()) * valueBytes
	var total int64
	for _, cp := range inc.cps {
		total += cp.states.SizeBytes()
	}
	add := func(bk *bucket) {
		total += int64(len(bk.rows)) * rowBytes
		for _, a := range bk.arenas {
			total += a.SizeBytes()
		}
	}
	for _, bk := range inc.buckets {
		add(bk)
	}
	if inc.cur != nil {
		add(inc.cur)
	}
	for _, ru := range inc.rollups {
		total += ru.sizeBytes()
	}
	return total
}

func (inc *Incremental) detachArenas() []*agg.Arena {
	out := make([]*agg.Arena, len(inc.cps))
	for i, cp := range inc.cps {
		out[i] = cp.states
	}
	return out
}

func (inc *Incremental) installArenas(as []*agg.Arena) {
	for i, cp := range inc.cps {
		cp.states = as[i]
	}
}

func (inc *Incremental) freshArenas() []*agg.Arena {
	out := make([]*agg.Arena, len(inc.cps))
	for i, cp := range inc.cps {
		out[i] = agg.NewArena(cp.specs, inc.base.Len())
	}
	return out
}

// ------------------------------------------------------------- roll-ups

// Rollup maintains a coarser cuboid from the finer materialization's
// deltas — Theorem 4.5 run incrementally. Every aggregate of the finer
// MD-join must be distributive (Func.Reaggregate reports its l → l'
// mapping: count→sum, sum→sum, min→min, max→max); the coarse states
// absorb each append's per-base-row delta results, never the detail rows.
type Rollup struct {
	inc    *Incremental
	base   *table.Table // distinct projection of the finer base over dims
	schema *table.Schema
	groups []int      // finer base row → coarse row
	reaggs []agg.Func // flattened across phases, in output order
	states [][]agg.State
}

// Rollup attaches a coarser cuboid over the given base dimensions to an
// append-only Incremental. The coarse base is the distinct projection of
// the finer base over dims, so equivalence with a direct coarse MD-join
// holds whenever the finer base covers every dim combination appearing in
// the appended detail (the usual cuboid-lattice setting, where both bases
// come from the same dimension hierarchy).
//
// Windowed materializations cannot carry roll-ups: an eviction is a
// deletion, and re-aggregated results are not invertible (a departed
// minimum is unrecoverable from coarse states).
func (inc *Incremental) Rollup(dims ...string) (*Rollup, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.err != nil {
		return nil, inc.err
	}
	if inc.cur != nil {
		return nil, fmt.Errorf("core: roll-up maintenance requires an append-only incremental (WindowBuckets is 0)")
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("core: roll-up needs at least one dimension")
	}
	var reaggs []agg.Func
	var outs []string
	for pi, cp := range inc.cps {
		for _, c := range cp.specs {
			f, ok := c.Fn.Reaggregate()
			if !ok {
				return nil, fmt.Errorf("core: phase %d aggregate %s does not re-aggregate (Theorem 4.5 needs distributive functions)", pi, c.Fn.Name())
			}
			reaggs = append(reaggs, f)
			outs = append(outs, c.Spec.OutName())
		}
	}
	coarse, err := engine.DistinctOn(inc.base, dims...)
	if err != nil {
		return nil, err
	}
	schema := coarse.Schema
	for _, name := range outs {
		if schema.Has(name) {
			return nil, fmt.Errorf("core: roll-up aggregate output %q collides with dimension column", name)
		}
		schema = schema.Append(table.Field{Name: name})
	}
	dimOrds := make([]int, len(dims))
	for i, d := range dims {
		dimOrds[i] = inc.base.Schema.ColIndex(d)
	}
	index := make(map[string]int, coarse.Len())
	for ci, cr := range coarse.Rows {
		if ci&1023 == 0 {
			if err := ctxErr(inc.opt.Ctx); err != nil {
				return nil, err
			}
		}
		index[rollupKey(cr)] = ci
	}
	groups := make([]int, inc.base.Len())
	keyRow := make(table.Row, len(dims))
	for bi, br := range inc.base.Rows {
		if bi&1023 == 0 {
			if err := ctxErr(inc.opt.Ctx); err != nil {
				return nil, err
			}
		}
		for i, o := range dimOrds {
			keyRow[i] = br[o]
		}
		groups[bi] = index[rollupKey(keyRow)]
	}
	states := make([][]agg.State, coarse.Len())
	for ci := range states {
		row := make([]agg.State, len(reaggs))
		for j, f := range reaggs {
			row[j] = f.NewState()
		}
		states[ci] = row
	}
	ru := &Rollup{inc: inc, base: coarse, schema: schema, groups: groups, reaggs: reaggs, states: states}
	// Seed with everything appended so far: the cumulative arenas are one
	// big delta, and distributivity makes one big fold equal many small
	// ones.
	ru.fold(inc.detachArenas())
	inc.rollups = append(inc.rollups, ru)
	return ru, nil
}

// rollupKey renders a dimension tuple into a collision-safe map key: each
// value is prefixed by its kind, so Int(1) and Str("1") stay distinct.
func rollupKey(r table.Row) string {
	var b []byte
	for _, v := range r {
		b = append(b, byte('0'+int(v.Kind())))
		b = append(b, v.String()...)
		b = append(b, 0)
	}
	return string(b)
}

// fold absorbs one finer delta (per-phase arenas over the finer base)
// into the coarse states through the re-aggregate functions. Empty delta
// states contribute NULL results, which every re-aggregate state ignores;
// count contributes Int(0), which its sum absorbs harmlessly.
func (ru *Rollup) fold(delta []*agg.Arena) {
	for bi, ci := range ru.groups {
		row := ru.states[ci]
		j := 0
		for _, a := range delta {
			for s := 0; s < a.Specs(); s++ {
				row[j].Add(a.At(bi, s).Result())
				j++
			}
		}
	}
}

// Snapshot assembles the coarse cuboid: one row per distinct dimension
// combination, re-aggregated results alongside.
func (ru *Rollup) Snapshot() (*table.Table, error) {
	ru.inc.mu.Lock()
	defer ru.inc.mu.Unlock()
	if ru.inc.err != nil {
		return nil, ru.inc.err
	}
	out := table.New(ru.schema)
	w := ru.schema.Len()
	out.Rows = make([]table.Row, 0, ru.base.Len())
	backing := make([]table.Value, 0, ru.base.Len()*w)
	for ci, cr := range ru.base.Rows {
		start := len(backing)
		backing = append(backing, cr...)
		for _, st := range ru.states[ci] {
			backing = append(backing, st.Result())
		}
		out.Rows = append(out.Rows, table.Row(backing[start:len(backing):len(backing)]))
	}
	return out, nil
}

func (ru *Rollup) sizeBytes() int64 {
	// Coarse states are individually allocated; charge the same flat
	// estimate Arena.SizeBytes uses (header + small struct) per state.
	n := int64(ru.base.Len()) * int64(len(ru.reaggs))
	return n * 48
}
