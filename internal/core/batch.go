package core

import (
	"context"
	"io"

	"mdjoin/internal/agg"
	"mdjoin/internal/expr"
	"mdjoin/internal/table"
)

// Vectorized row-batch executor: the boxed middle tier of the detail scan
// (the columnar chunk executor in chunk.go is the default; this path runs
// under Options.DisableColumnar and for phases that fail chunk compilation).
//
// Instead of dispatching every detail tuple through every phase's compiled
// predicates one at a time, the scan slices R into fixed-size batches and,
// per phase, (1) filters the batch through the R-only conjuncts (Theorem
// 4.2) into a selection vector, (2) evaluates each index-key expression
// once over the survivors into a column vector, and (3) runs a fused
// probe-and-feed loop over the selection: gather the tuple's key from the
// column vectors, probe the flat base index, and fold the tuple into the
// arena-backed aggregate states of its relative set. Context-cancellation
// polls and Stats counter updates happen once per batch instead of once
// per tuple, so neither appears in the per-tuple profile.
//
// All scratch (selection vector, key column vectors, probe buffer) lives
// on the phase's compiledPhase and is reused across batches; steady-state
// scanning allocates nothing.

// batchSize is the number of detail tuples processed per batch: large
// enough to amortize per-batch work (selection reset, stats flush, ctx
// poll), small enough that the batch's column vectors stay cache-resident.
// It equals table.ChunkSize so a Builder-built detail table's cached
// chunks line up one-to-one with the scan's batches.
const batchSize = table.ChunkSize

// scanDetailBatched drives the batch executor over a materialized detail
// table. When the table carries a columnar mirror built at the right chunk
// size, each batch reuses its prebuilt chunk; otherwise columnar phases
// transpose the batch into the driver's scratch chunk. A cancelled ctx
// aborts the scan between batches.
func scanDetailBatched(ctx context.Context, b *table.Table, r *table.Table, cps []*compiledPhase, stats *Stats) error {
	d := newBatchDriver(r.Schema, cps)
	if d.columnar {
		d.prebuilt = r.CachedChunks(batchSize)
	}
	rows := r.Rows
	ci := 0
	for off := 0; off < len(rows); off += batchSize {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		end := off + batchSize
		if end > len(rows) {
			end = len(rows)
		}
		var ch *table.Chunk
		if d.prebuilt != nil {
			ch = d.prebuilt[ci]
			ci++
			if ch.Len() != end-off {
				ch = nil // misaligned mirror; transpose instead
			}
		}
		d.processBatch(b, cps, rows[off:end], ch, stats)
	}
	return nil
}

// scanIteratorBatched drives the batch executor over a streaming source
// iterator, buffering rows into fixed-size batches. Source iterators hand
// ownership of each returned row to the caller (table-backed iterators
// return stable references, CSV iterators allocate fresh rows), so
// buffering never sees a row mutated behind its back.
func scanIteratorBatched(ctx context.Context, b *table.Table, rSchema *table.Schema, it table.Iterator, cps []*compiledPhase, stats *Stats) error {
	d := newBatchDriver(rSchema, cps)
	buf := make([]table.Row, 0, batchSize)
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		buf = buf[:0]
		for len(buf) < batchSize {
			t, err := it.Next()
			if err == io.EOF {
				if len(buf) > 0 {
					d.processBatch(b, cps, buf, nil, stats)
				}
				return nil
			}
			if err != nil {
				return err
			}
			buf = append(buf, t)
		}
		d.processBatch(b, cps, buf, nil, stats)
	}
}

// processPhaseBatch runs one phase over one batch: R-only filter, batched
// key evaluation, then the fused probe-and-feed loop.
func processPhaseBatch(b *table.Table, cp *compiledPhase, frame []table.Row, batch []table.Row, stats *Stats) {
	frame[0], frame[1] = nil, nil
	cp.sel = expr.IdentitySel(cp.sel, len(batch))
	sel := cp.sel

	// Theorem 4.2: R-only conjuncts gate the whole batch before any
	// base-row work, compacting the selection to the survivors.
	if cp.rOnly != nil {
		in := len(sel)
		sel = cp.rOnly.FilterSlotBatch(frame, 1, batch, sel)
		if stats != nil {
			ph := stats.phase(cp.pi)
			ph.PushdownIn += in
			ph.PushdownOut += len(sel)
			ph.BoxedElems += int64(in) // row-batch kernels are all boxed
		}
		if len(sel) == 0 {
			return
		}
	}

	tested, matched := 0, 0
	if cp.index == nil {
		// Verbatim Algorithm 3.1 inner loop for the surviving tuples.
		for _, si := range sel {
			frame[1] = batch[si]
			for bi, br := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, br, bi, frame, -1) {
					matched++
				}
			}
		}
		frame[0], frame[1] = nil, nil
		flushPhaseStats(stats, cp.pi, tested, matched, 0, 0)
		return
	}

	// Section 4.5: evaluate every index-key expression once over the
	// selection into its column vector.
	nk := len(cp.equiKeys)
	if cap(cp.keyCols) < nk {
		cp.keyCols = make([][]table.Value, nk)
	}
	cp.keyCols = cp.keyCols[:nk]
	for i, ke := range cp.equiKeys {
		cp.keyCols[i] = ke.EvalSlotBatch(frame, 1, batch, sel, cp.keyCols[i])
	}
	if stats != nil {
		stats.phase(cp.pi).BoxedElems += int64(nk) * int64(len(sel))
	}
	if cap(cp.keyBuf) < nk {
		cp.keyBuf = make([]table.Value, nk)
	}
	key := cp.keyBuf[:nk]

	// Fused probe-and-feed loop: gather the key from the column vectors,
	// probe the flat index, fold matches into the arena states.
	probes, hits := 0, 0
	for _, si := range sel {
		degenerate, dead := false, false
		for i := range key {
			key[i] = cp.keyCols[i][si]
			if key[i].IsAll() {
				// A detail-side ALL matches every base value under =^;
				// fall back to the full loop for this tuple (cannot arise
				// from ordinary detail data).
				degenerate = true
			}
			if key[i].IsNull() && !cp.cubeAt[i] {
				// Strict equality with NULL is never true: no base row
				// can match this tuple in this phase.
				dead = true
			}
		}
		if dead {
			continue
		}
		frame[1] = batch[si]
		switch {
		case degenerate:
			for bi, br := range b.Rows {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, br, bi, frame, -1) {
					matched++
				}
			}
		case len(cp.cubePos) == 0:
			// Plain equality: one probe, no key rewriting.
			cp.probeBuf = cp.index.ProbeAppend(cp.probeBuf[:0], key)
			probes++
			hits += len(cp.probeBuf)
			for _, bi := range cp.probeBuf {
				if !cp.bAlive[bi] {
					continue
				}
				tested++
				if feedPair(cp, b.Rows[bi], bi, frame, -1) {
					matched++
				}
			}
		default:
			t, m, pr, h := probeCubeBatched(cp, b, key, frame, -1)
			tested += t
			matched += m
			probes += pr
			hits += h
		}
	}
	frame[0], frame[1] = nil, nil
	flushPhaseStats(stats, cp.pi, tested, matched, probes, hits)
}

// probeCubeBatched is probeCube with batch-local counters: one probe per
// cube-equality combination present in B, so a tuple updates its cube
// cells in one pass. si carries the tuple's chunk position through to
// feedPair (-1 on the boxed path).
func probeCubeBatched(cp *compiledPhase, b *table.Table, key []table.Value, frame []table.Row, si int) (tested, matched, probes, hits int) {
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
		probes++
		hits += len(cp.probeBuf)
		for _, bi := range cp.probeBuf {
			if !cp.bAlive[bi] {
				continue
			}
			tested++
			if feedPair(cp, b.Rows[bi], bi, frame, si) {
				matched++
			}
		}
	}
	for i, p := range cp.cubePos {
		key[p] = saved[i]
	}
	return tested, matched, probes, hits
}

// feedPair checks the residual θ conjuncts for one (b, r) pair and feeds
// the aggregates on success, reporting whether the pair matched. Unlike
// updatePair it leaves the stats counters to the caller's batch-local
// accumulators. si is the tuple's position in the current chunk: when
// non-negative, specs with a resolved argument column fold the typed
// payload at si instead of re-evaluating the argument per pair; -1 selects
// the boxed feed (row-batch path, or no chunk for this phase).
func feedPair(cp *compiledPhase, brow table.Row, bi int, frame []table.Row, si int) bool {
	frame[0] = brow
	if cp.residual != nil && !cp.residual.Truth(frame) {
		return false
	}
	row := cp.states.Row(bi)
	if si >= 0 {
		for j, c := range cp.specs {
			if col := cp.chunk.argCols[j]; col != nil {
				agg.FoldInto(row[j], col, si)
			} else {
				c.Feed(row[j], frame)
			}
		}
		return true
	}
	for j, c := range cp.specs {
		c.Feed(row[j], frame)
	}
	return true
}

// flushPhaseStats adds one phase-batch's pair and probe counters to the
// shared Stats — the amortization point of the overhead contract: the
// fused loops above count into locals unconditionally and pay the nil
// check once per batch.
func flushPhaseStats(stats *Stats, pi, tested, matched, probes, hits int) {
	if stats == nil {
		return
	}
	stats.PairsTested += tested
	stats.PairsMatched += matched
	ph := stats.phase(pi)
	ph.PairsTested += tested
	ph.PairsMatched += matched
	ph.IndexProbes += probes
	ph.IndexHits += hits
}

// flushFilterStats adds one batch's fingerprint pre-filter counters —
// same amortization contract as flushPhaseStats.
func flushFilterStats(stats *Stats, pi, checked, skipped int) {
	if stats == nil {
		return
	}
	ph := stats.phase(pi)
	ph.FilterChecked += checked
	ph.FilterSkipped += skipped
}
