package table

// Prober is the vectorized probe side of the flat Index: the columnar
// chunk executor hands it whole key columns, and it hashes them with the
// typed kernels of value.go — []int64 and []float64 payloads and
// dictionary codes are hashed directly, with no boxed Value materialized
// per row — folding multi-column keys into a reusable per-position hash
// vector. Alongside the hashes it tracks a per-position probe state that
// replicates the scalar reference path's key classification (NULL keys
// kill the tuple under strict equality, ALL keys degenerate to the full
// base loop), plus a third vectorized-only outcome: a position whose key
// provably matches no base row (a string absent from a dict-keyed
// column's dictionary, or a non-string key against an all-string column)
// is a miss — the caller still accounts the probe, but the index is never
// touched.
//
// ProbeAppend then resolves live positions against the index's 8-bit tag
// fingerprints first, so probes for absent keys usually finish without
// loading the full hash array — the pre-filter that pays off on
// low-hit-rate θs.
//
// A Prober belongs to one executor worker (it owns scratch). NewProber
// serves plain multi-column equality; NewCubeProber serves cube equality
// (=^), probing each position once per ALL pattern of the base.
type Prober struct {
	ix *Index
	// nullEq[k] marks key positions under cube equality (=^), where a
	// NULL key matches NULL base values instead of killing the tuple; nil
	// means strict equality everywhere.
	nullEq []bool
	// colHashes[k][i] keeps key column k's own hash at position i, so a
	// masked ProbeAppend can refold a key with ALL substituted (cube
	// probers only; nil otherwise).
	colHashes [][]uint64
	hashes    []uint64
	state     []ProbeState
	keyCols   []*Column    // column folded at each key position, for verify
	codes     [][]int32    // per dict-keyed position: translated index codes
	xlats     []dictMemo   // per dict-keyed position: R-dict → index-code table
	strHvs    []dictMemo64 // per value-keyed position: per-R-code string hashes
}

// ProbeState classifies one chunk position after all key columns folded.
// States combine by maximum, replicating the scalar precedence: a NULL in
// any key column kills the tuple outright, an ALL degenerates it to the
// full base loop regardless of other columns, and a miss only stands when
// every column is an ordinary live value.
type ProbeState uint8

const (
	// ProbeLive positions probe the index.
	ProbeLive ProbeState = iota
	// ProbeMiss positions count as a probe with zero hits without
	// touching the index (dictionary translation proved no base row can
	// match).
	ProbeMiss
	// ProbeDegen positions carry a detail-side ALL key and must take the
	// full base loop.
	ProbeDegen
	// ProbeDead positions carry a NULL key: strict equality with NULL is
	// never true, so the tuple matches nothing in this phase.
	ProbeDead
)

// dictMemo memoizes a per-dictionary-code translation for one source
// column: valid while the same column's append-only dictionary merely
// grows (scratch columns persist dictionaries across Reset).
type dictMemo struct {
	col   *Column
	ncode int
	tab   []int32
}

type dictMemo64 struct {
	col   *Column
	ncode int
	tab   []uint64
}

// NewProber builds a prober for the index.
func NewProber(ix *Index) *Prober {
	nk := len(ix.cols)
	return &Prober{
		ix:      ix,
		keyCols: make([]*Column, nk),
		codes:   make([][]int32, nk),
		xlats:   make([]dictMemo, nk),
		strHvs:  make([]dictMemo64, nk),
	}
}

// NewCubeProber builds a prober for a cube-equality θ (cubeAt[k] flags
// key k as =^): a NULL key at an =^ position probes for NULL base values
// rather than killing the tuple, and ProbeAppend's mask probes a
// position's key with the ALL marker substituted at chosen positions.
func NewCubeProber(ix *Index, cubeAt []bool) *Prober {
	p := NewProber(ix)
	p.nullEq = cubeAt
	p.colHashes = make([][]uint64, len(cubeAt))
	return p
}

// fold folds key column k's hash hv into position i's key hash.
func (p *Prober) fold(k, i int, hv uint64) {
	p.hashes[i] = combineHash(p.hashes[i], hv)
	if p.colHashes != nil {
		p.colHashes[k][i] = hv
	}
}

// Begin resets the prober for a chunk of n positions: every position
// starts live with the seed hash.
func (p *Prober) Begin(n int) {
	if cap(p.hashes) < n {
		p.hashes = make([]uint64, n)
		p.state = make([]ProbeState, n)
	}
	p.hashes = p.hashes[:n]
	p.state = p.state[:n]
	for i := range p.hashes {
		p.hashes[i] = fnvBasis
	}
	for i := range p.state {
		p.state[i] = ProbeLive
	}
	for k, hv := range p.colHashes {
		if cap(hv) < n {
			hv = make([]uint64, n)
		}
		p.colHashes[k] = hv[:n]
	}
}

// State returns position i's classification after the key columns folded.
func (p *Prober) State(i int) ProbeState { return p.state[i] }

// FoldKeyCol folds key column k (the R-side column vector for that key
// position) into the hash vector and probe states at the selected
// positions. Columns fold in key order, once each per chunk.
func (p *Prober) FoldKeyCol(k int, col *Column, sel []int32) {
	p.keyCols[k] = col
	hasSpec := col.HasSpecial()
	if hasSpec {
		nullEq := p.nullEq != nil && p.nullEq[k]
		dictKeyed := p.ix.dicts[k] != nil
		for _, si := range sel {
			i := int(si)
			switch {
			case col.IsNull(i) && !nullEq:
				p.state[i] = ProbeDead
			case col.IsNull(i) && dictKeyed:
				// An all-string base column holds no NULL to match.
				if p.state[i] < ProbeMiss {
					p.state[i] = ProbeMiss
				}
			case col.IsNull(i):
				p.fold(k, i, nullKeyHash)
			case col.IsAll(i) && p.state[i] < ProbeDegen:
				p.state[i] = ProbeDegen
			}
		}
	}
	if p.ix.dicts[k] != nil {
		p.foldDictKeyed(k, col, sel, hasSpec)
		return
	}
	switch {
	case col.IsBoxed():
		for _, si := range sel {
			i := int(si)
			if hasSpec && (col.IsNull(i) || col.IsAll(i)) {
				continue
			}
			p.fold(k, i, hashSingle(col.Value(i)))
		}
	case col.PayloadKind() == KindInt:
		ints := col.Ints()
		for _, si := range sel {
			i := int(si)
			if hasSpec && (col.IsNull(i) || col.IsAll(i)) {
				continue
			}
			p.fold(k, i, hashIntKey(ints[i]))
		}
	case col.PayloadKind() == KindFloat:
		floats := col.Floats()
		for _, si := range sel {
			i := int(si)
			if hasSpec && (col.IsNull(i) || col.IsAll(i)) {
				continue
			}
			p.fold(k, i, hashFloatKey(floats[i]))
		}
	case col.PayloadKind() == KindString:
		// Value-keyed index column fed from a dict-encoded detail column:
		// hash each distinct string once per dictionary, then fold by code.
		hv := p.strHvs[k].hashes(col)
		codes := col.Codes()
		for _, si := range sel {
			i := int(si)
			if hasSpec && (col.IsNull(i) || col.IsAll(i)) {
				continue
			}
			p.fold(k, i, hv[codes[i]])
		}
	case col.PayloadKind() == KindBool:
		for _, si := range sel {
			i := int(si)
			if hasSpec && (col.IsNull(i) || col.IsAll(i)) {
				continue
			}
			p.fold(k, i, hashBoolKey(col.BoolAt(i)))
		}
	}
	// PayloadKind KindNull (empty or all-special column): every selected
	// position was classified by the bitmaps above; nothing to hash.
}

// foldDictKeyed folds a column against a dict-keyed index column: detail
// dictionary codes translate to index codes through a memoized table —
// the dict→dict join path that never touches the string heap — and
// positions whose string is absent from the index dictionary become
// misses.
func (p *Prober) foldDictKeyed(k int, col *Column, sel []int32, hasSpec bool) {
	if cap(p.codes[k]) < col.Len() {
		p.codes[k] = make([]int32, col.Len())
	}
	codes := p.codes[k][:col.Len()]
	p.codes[k] = codes
	switch {
	case col.IsBoxed():
		dict := p.ix.dicts[k]
		for _, si := range sel {
			i := int(si)
			if hasSpec && (col.IsNull(i) || col.IsAll(i)) {
				continue
			}
			v := col.Value(i)
			if v.Kind() != KindString {
				if p.state[i] < ProbeMiss {
					p.state[i] = ProbeMiss
				}
				continue
			}
			bc, ok := dict[v.AsString()]
			if !ok {
				if p.state[i] < ProbeMiss {
					p.state[i] = ProbeMiss
				}
				continue
			}
			codes[i] = bc
			p.fold(k, i, hashCodeKey(bc))
		}
	case col.PayloadKind() == KindString:
		xl := p.dictXlat(k, col)
		rc := col.Codes()
		for _, si := range sel {
			i := int(si)
			if hasSpec && (col.IsNull(i) || col.IsAll(i)) {
				continue
			}
			bc := xl[rc[i]]
			if bc < 0 {
				if p.state[i] < ProbeMiss {
					p.state[i] = ProbeMiss
				}
				continue
			}
			codes[i] = bc
			p.fold(k, i, hashCodeKey(bc))
		}
	default:
		// Typed non-string payload against an all-string key column:
		// strings only equal strings, so every live position is a miss.
		for _, si := range sel {
			i := int(si)
			if p.state[i] < ProbeMiss {
				p.state[i] = ProbeMiss
			}
		}
	}
}

// dictXlat returns the R-dict → index-code translation for column col at
// key position k, memoized per column and extended incrementally as the
// column's append-only dictionary grows.
func (p *Prober) dictXlat(k int, col *Column) []int32 {
	m := &p.xlats[k]
	dict := col.Dict()
	if m.col != col {
		m.col, m.ncode, m.tab = col, 0, m.tab[:0]
	}
	if m.ncode < len(dict) {
		bdict := p.ix.dicts[k]
		for _, s := range dict[m.ncode:] {
			bc, ok := bdict[s]
			if !ok {
				bc = -1
			}
			m.tab = append(m.tab, bc)
		}
		m.ncode = len(dict)
	}
	return m.tab
}

// hashes returns col's per-code string hashes, with the same memoization
// as dictXlat: extended as the column's append-only dictionary grows.
func (m *dictMemo64) hashes(col *Column) []uint64 {
	dict := col.Dict()
	if m.col != col {
		m.col, m.ncode, m.tab = col, 0, m.tab[:0]
	}
	if m.ncode < len(dict) {
		for _, s := range dict[m.ncode:] {
			m.tab = append(m.tab, hashStringKey(s))
		}
		m.ncode = len(dict)
	}
	return m.tab
}

// ProbeAppend resolves a live position against the index, appending
// matching row ordinals to dst. km substitutes the ALL marker at the key
// positions whose bits it sets (bit k ↔ key k) — the probe for one ALL
// pattern of a cube base; 0 probes the position's own key. The walk
// consults the tag fingerprints first; skipped reports that the probe
// resolved empty on tags alone, without a single full-hash comparison —
// the fingerprint pre-filter's hit counter.
func (p *Prober) ProbeAppend(dst []int, pos int, km uint64) (_ []int, skipped bool) {
	h := p.hashes[pos]
	if km != 0 {
		h = fnvBasis
		for k, hvs := range p.colHashes {
			hv := hvs[pos]
			if km&(1<<uint(k)) != 0 {
				hv = allKeyHash
			}
			h = combineHash(h, hv)
		}
	}
	ix := p.ix
	tag := tagOf(h)
	s := mix64(h) & ix.mask
	compared := false
	for {
		t := ix.tags[s]
		if t == 0 {
			return dst, !compared
		}
		if t == tag {
			compared = true
			if ix.hash[s] == h {
				break
			}
		}
		s = (s + 1) & ix.mask
	}
	for ri := ix.head[s]; ri >= 0; ri = ix.next[ri] {
		if p.verify(int(ri), pos, km) {
			dst = append(dst, int(ri))
		}
	}
	return dst, false
}

// verify confirms a candidate row against the probed position: masked
// key positions must hold ALL, dict-keyed columns compare translated
// int32 codes, the rest compare values.
func (p *Prober) verify(ri, pos int, km uint64) bool {
	ix := p.ix
	r := ix.rows[ri]
	for k, c := range ix.cols {
		switch {
		case km&(1<<uint(k)) != 0:
			if !r[c].IsAll() {
				return false
			}
		case ix.dicts[k] != nil:
			if p.codes[k][pos] != ix.rowCodes[k][ri] {
				return false
			}
		case !equalAt(r[c], p.keyCols[k], pos):
			return false
		}
	}
	return true
}
