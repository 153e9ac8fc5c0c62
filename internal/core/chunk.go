package core

import (
	"mdjoin/internal/agg"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// Columnar chunk executor: the default inner loop of the detail scan.
//
// The boxed batch executor (batch.go) still moves row-major []table.Row
// batches and evaluates predicates value-at-a-time through boxed
// table.Value vectors. The chunk executor instead transposes each batch
// into a table.Chunk of typed columns — or, for detail tables built
// through table.Builder, reuses the table's cached columnar mirror with no
// transpose at all — and runs the per-phase pushdown filter, equi-key
// evaluation, and aggregate feeds through the typed kernels of
// internal/expr (FilterChunk/EvalChunk) and internal/agg (FoldInto/
// FoldColumn). Residual θ conjuncts reference both relations, so they
// still evaluate per pair over the row view.
//
// Structure is deliberately parallel to processPhaseBatch: the same
// selection-vector flow, the same dead/degenerate key handling, the same
// stats accounting, so the three executor paths (scalar, boxed batch,
// columnar) are interchangeable and diffable row for row and counter for
// counter.

// chunkPhase holds one worker's compiled columnar programs and scratch for
// one phase. The ChunkCompiled kernels own scratch output columns, so a
// chunkPhase is built per worker (newPhaseExecs), never shared.
type chunkPhase struct {
	rOnly *expr.ChunkCompiled   // pushdown filter (nil if none)
	keys  []*expr.ChunkCompiled // equi-key expressions (index path)
	// args[j] is spec j's argument compiled for the chunk, or nil when the
	// argument references B (or is count(*)) and must feed per pair.
	args []*expr.ChunkCompiled
	// feedable is true when every spec either has a chunk-compiled
	// argument or is count(*): the precondition for the bulk fold below.
	feedable bool
	// per-batch resolved columns and caller-owned scratch (value slices:
	// one allocation each, EvalChunk takes &keyScr[i])
	keyCols []*table.Column
	keyScr  []table.Column
	argCols []*table.Column
	argScr  []table.Column
	// prober vectorizes the probes against the flat index; masks are the
	// ALL-substitution key masks each live position probes under (the
	// single mask 0 for plain equality, the patterns present in B for
	// cube equality).
	prober *table.Prober
	masks  []uint64
	// union of detail-column ordinals all programs read; the batch driver
	// transposes only these.
	ords []int
}

// addOrd appends o to ords unless present. The unions here are a handful
// of ordinals, so a linear scan beats allocating a set.
func addOrd(ords []int, o int) []int {
	for _, have := range ords {
		if have == o {
			return ords
		}
	}
	return append(ords, o)
}

// newChunkPhase compiles the phase's predicate pieces against the chunked
// detail slot. It returns nil — and the phase falls back to the boxed
// batch path — if an index-key or pushdown expression cannot be
// chunk-compiled (by construction of the θ analysis they always can; the
// guard keeps the fallback airtight rather than load-bearing). A spec
// argument that cannot be chunk-compiled only disables the typed feed for
// that spec, not the whole phase.
func newChunkPhase(pp *phasePlan) *chunkPhase {
	cpk := &chunkPhase{ords: []int{}}
	addOrds := func(cc *expr.ChunkCompiled) {
		for _, o := range cc.Ordinals() {
			cpk.ords = addOrd(cpk.ords, o)
		}
	}
	if pp.rOnly != nil {
		cc, err := expr.CompileChunk(pp.rOnly.Source(), pp.bind, pp.rslot)
		if err != nil {
			return nil
		}
		cpk.rOnly = cc
		addOrds(cc)
	}
	if pp.index != nil {
		n := len(pp.equiKeys)
		cpk.keys = make([]*expr.ChunkCompiled, n)
		cpk.keyCols = make([]*table.Column, n)
		cpk.keyScr = make([]table.Column, n)
		for i, ke := range pp.equiKeys {
			cc, err := expr.CompileChunk(ke.Source(), pp.bind, pp.rslot)
			if err != nil {
				return nil
			}
			cpk.keys[i] = cc
			addOrds(cc)
		}
		// The chunk executor never runs the scalar tier, so the index is
		// the flat table.Index.
		ix := pp.index.(*table.Index)
		if len(pp.cubePos) == 0 {
			cpk.prober = table.NewProber(ix)
			cpk.masks = plainMask
		} else {
			cpk.prober = table.NewCubeProber(ix, pp.cubeAt)
			cpk.masks = pp.cubeMasks
		}
	}
	n := len(pp.specs)
	cpk.args = make([]*expr.ChunkCompiled, n)
	cpk.argCols = make([]*table.Column, n)
	cpk.argScr = make([]table.Column, n)
	cpk.feedable = true
	for j, c := range pp.specs {
		arg := c.Spec.Arg
		if arg == nil {
			continue // count(*): Feed's marker path, no argument column
		}
		cc, err := expr.CompileChunk(arg, pp.bind, pp.rslot)
		if err != nil {
			cpk.feedable = false // e.g. sum(B.x - R.y): per-pair boxed feed
			continue
		}
		cpk.args[j] = cc
		addOrds(cc)
	}
	return cpk
}

// batchDriver owns one worker's per-scan state: the evaluation frame, the
// scratch chunk that batches are transposed into, the union of ordinals
// worth transposing, and — when the detail table was built through
// table.Builder — its prebuilt chunks, consumed aligned with the batch
// loop so the scan skips the transpose entirely.
type batchDriver struct {
	frame    []table.Row
	columnar bool
	rSchema  *table.Schema
	// scratch is allocated lazily on the first batch with no prebuilt
	// chunk, so scans over Builder-built tables never pay for it.
	scratch  *table.Chunk
	ords     []int
	prebuilt []*table.Chunk
}

// newBatchDriver prepares a driver for one scan. columnar stays false when
// no phase runs columnar, making the driver a plain frame holder for the
// boxed batch path.
func newBatchDriver(rSchema *table.Schema, cps []*compiledPhase) *batchDriver {
	d := &batchDriver{frame: make([]table.Row, 2), rSchema: rSchema}
	for _, cp := range cps {
		if cp.chunk == nil {
			continue
		}
		d.columnar = true
		for _, o := range cp.chunk.ords {
			d.ords = addOrd(d.ords, o)
		}
	}
	if d.columnar && d.ords == nil {
		d.ords = []int{} // non-nil: transpose no columns, not all of them
	}
	return d
}

// processBatch folds one batch of detail tuples into every phase,
// providing columnar phases with a chunk view of the batch: the prebuilt
// chunk when the caller has one, otherwise a transpose of just the needed
// ordinals into the driver's scratch chunk.
func (d *batchDriver) processBatch(b *table.Table, cps []*compiledPhase, batch []table.Row, ch *table.Chunk, stats *Stats) {
	if stats != nil {
		stats.TuplesScanned += len(batch)
		stats.Batches++
		if ch != nil {
			stats.ChunksPrebuilt++
		}
	}
	if ch == nil && d.columnar {
		if d.scratch == nil {
			d.scratch = table.NewChunk(d.rSchema)
		}
		d.scratch.LoadRows(batch, d.ords)
		ch = d.scratch
		if stats != nil {
			stats.ChunksTransposed++
		}
	}
	for _, cp := range cps {
		if cp.chunk != nil && ch != nil {
			processPhaseChunk(b, cp, d.frame, batch, ch, stats)
		} else {
			processPhaseBatch(b, cp, d.frame, batch, stats)
		}
	}
}

// processPhaseChunk is processPhaseBatch over a columnar chunk: pushdown
// filters through FilterChunk, equi keys evaluate through EvalChunk into
// typed columns, aggregate arguments resolve once per batch, and the fused
// probe-and-feed loop gathers keys from the columns. Pair bookkeeping is
// identical to the boxed path so Stats stay bit-for-bit equal.
func processPhaseChunk(b *table.Table, cp *compiledPhase, frame []table.Row, batch []table.Row, ch *table.Chunk, stats *Stats) {
	cpk := cp.chunk
	frame[0], frame[1] = nil, nil
	cp.sel = expr.IdentitySel(cp.sel, len(batch))
	sel := cp.sel

	// Theorem 4.2: the R-only conjuncts gate the whole batch in one typed
	// pass, compacting the selection to the survivors.
	if cpk.rOnly != nil {
		in := len(sel)
		sel = cpk.rOnly.FilterChunk(ch, sel)
		if stats != nil {
			ph := stats.phase(cp.pi)
			ph.PushdownIn += in
			ph.PushdownOut += len(sel)
			countKernel(ph, cpk.rOnly, in)
		}
		if len(sel) == 0 {
			return
		}
	}

	// Resolve each chunkable aggregate argument once per batch. Plain
	// column references come back zero-copy; computed arguments evaluate
	// over the surviving selection (for selective phases this can touch
	// tuples that end up matching nothing — the price of batching, same as
	// the boxed path's key evaluation).
	for j, cc := range cpk.args {
		if cc == nil {
			cpk.argCols[j] = nil
			continue
		}
		cpk.argCols[j] = cc.EvalChunk(ch, sel, &cpk.argScr[j])
		if stats != nil {
			countKernel(stats.phase(cp.pi), cc, len(sel))
		}
	}

	tested, matched := 0, 0
	if cp.index == nil {
		if cp.residual == nil && cpk.feedable {
			// Bulk fold: with no residual, every surviving tuple matches
			// every live base row, so each state folds the whole argument
			// column (in sel order — the same feed order as the pair loop).
			nAlive := 0
			for bi := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				nAlive++
				row := cp.states.Row(bi)
				for j, c := range cp.specs {
					if col := cpk.argCols[j]; col != nil {
						agg.FoldColumn(row[j], col, sel)
					} else {
						for range sel {
							c.Feed(row[j], nil) // count(*): frame unused
						}
					}
				}
			}
			flushPhaseStats(stats, cp.pi, nAlive*len(sel), nAlive*len(sel), 0, 0)
			return
		}
		// Verbatim Algorithm 3.1 inner loop for the surviving tuples.
		for _, si := range sel {
			frame[1] = batch[si]
			for bi, br := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, br, bi, frame, int(si)) {
					matched++
				}
			}
		}
		frame[0], frame[1] = nil, nil
		flushPhaseStats(stats, cp.pi, tested, matched, 0, 0)
		return
	}

	// Section 4.5: evaluate every index-key expression once over the
	// selection into a typed column.
	for i, cc := range cpk.keys {
		cpk.keyCols[i] = cc.EvalChunk(ch, sel, &cpk.keyScr[i])
		if stats != nil {
			countKernel(stats.phase(cp.pi), cc, len(sel))
		}
	}
	probeChunkVectorized(b, cp, frame, batch, sel, stats)
}

// plainMask is the one probe of a plain-equality key: no ALL substituted.
var plainMask = []uint64{0}

// probeChunkVectorized is the probe pipeline: the prober hashes the key
// columns wholesale (typed vectors and dictionary codes, no boxed key per
// row), classifies each position, and the loop below only dispatches on
// the classification — probing the index through the fingerprint
// pre-filter for live positions, once per ALL pattern of a cube base, and
// feeding matches into the arena states. Pair, probe, and hit accounting
// is identical to the scalar reference path; the filter counters are
// vectorized-only diagnostics and stay out of Stats.Semantic.
func probeChunkVectorized(b *table.Table, cp *compiledPhase, frame []table.Row, batch []table.Row, sel []int32, stats *Stats) {
	cpk := cp.chunk
	pr := cpk.prober
	pr.Begin(len(batch))
	for kix, kc := range cpk.keyCols {
		pr.FoldKeyCol(kix, kc, sel)
	}
	tested, matched, probes, hits := 0, 0, 0, 0
	checked, skipped := 0, 0
	for _, si := range sel {
		i := int(si)
		switch pr.State(i) {
		case table.ProbeDead:
			// NULL key: strict equality with NULL is never true.
			continue
		case table.ProbeDegen:
			// Detail-side ALL matches every base value under =^; full loop.
			frame[1] = batch[si]
			for bi, br := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, br, bi, frame, i) {
					matched++
				}
			}
		case table.ProbeMiss:
			// Dictionary translation proved no base row matches: account
			// the probes (the scalar path probes and gets zero hits) but
			// never touch the index.
			probes += len(cpk.masks)
			skipped += len(cpk.masks)
		default: // ProbeLive
			frame[1] = batch[si]
			for _, km := range cpk.masks {
				var skip bool
				cp.probeBuf, skip = pr.ProbeAppend(cp.probeBuf[:0], i, km)
				probes++
				hits += len(cp.probeBuf)
				if skip {
					skipped++
				} else {
					checked++
				}
				for _, bi := range cp.probeBuf {
					if !cp.bAlive[bi] {
						continue
					}
					tested++
					if feedPair(cp, b.Rows[bi], bi, frame, i) {
						matched++
					}
				}
			}
		}
	}
	frame[0], frame[1] = nil, nil
	flushPhaseStats(stats, cp.pi, tested, matched, probes, hits)
	flushFilterStats(stats, cp.pi, checked, skipped)
}

// countKernel attributes one chunk-kernel run's elements to the typed or
// boxed counter — the tripwire for the whole-column boxed fallback, which
// silently costs an order of magnitude over the typed loops.
func countKernel(ph *PhaseStats, cc *expr.ChunkCompiled, n int) {
	if cc.ResultBoxed() {
		ph.BoxedElems += int64(n)
	} else {
		ph.TypedElems += int64(n)
	}
}
