package table

import (
	"fmt"
	"slices"
)

// Grouping kernel: the insert-or-find side of Index. Every base-values
// table B is a set of distinct key combinations in first-occurrence order
// ("select distinct d₁..dₙ from R", and each grouping set of a cube), so
// B construction is one pass that folds the key columns of each chunk
// into per-position hashes with the typed kernels of value.go — the same
// hashIntKey/hashFloatKey/hashStringKey/combineHash the Prober uses, so
// no boxed Value is built per row to hash it — and then finds or inserts
// each position in an insert-mode Index over the groups collected so
// far. New groups go straight into a Builder, so B carries
// its own columnar mirror.
//
// Group equality is Value.Equal (NULL equals NULL, ALL equals ALL, and
// Int(1) equals Float(1.0)), the equality the boxed distinct used; the
// typed hash kernels agree with hashSingle for every value, so equal keys
// always share a slot whatever their column representation.

// Hashes of the two special markers as single-column keys, patched over
// the typed payload hashes at NULL/ALL positions.
var (
	nullKeyHash = hashSingle(Null())
	allKeyHash  = hashSingle(All())
)

// Grouper collects the distinct combinations of the key columns fed to
// it, in first-occurrence order, appending one row per new group to a
// Builder. Key column k lands at output ordinal place[k]; every other
// output position holds ALL — the rolled-up marker of a grouping set, so
// several Groupers (one per grouping set) can fill one cube B.
type Grouper struct {
	// ix is the insert-mode index: group ri is out row base+ri, and the
	// index keeps only the slot arrays and the chains.
	ix    *Index
	out   *Builder
	base  int
	n     int32 // groups so far
	place []int
	// per-chunk scratch
	keys   []*Column
	hashes []uint64
	hvs    []uint64
	strHvs []dictMemo64
	row    Row
}

// NewGrouper returns a grouper appending its groups to out, with key
// column k at output ordinal place[k].
func NewGrouper(out *Builder, place []int) *Grouper {
	w := out.schema.Len()
	for _, p := range place {
		if p < 0 || p >= w {
			panic(fmt.Sprintf("table: group key ordinal %d outside schema %v", p, out.schema.Names()))
		}
	}
	ix := &Index{}
	ix.allocSlots(16)
	return &Grouper{
		ix:     ix,
		out:    out,
		base:   out.Len(),
		place:  place,
		keys:   make([]*Column, len(place)),
		strHvs: make([]dictMemo64, len(place)),
		row:    make(Row, w),
	}
}

// Distinct returns the distinct combinations of t's columns cols, in
// first-occurrence order, as a table of the given schema (one field per
// key column) carrying its columnar mirror.
func Distinct(t *Table, cols []int, schema *Schema) *Table {
	b := NewBuilder(schema)
	place := make([]int, len(cols))
	for k := range place {
		place[k] = k
	}
	NewGrouper(b, place).AddTable(t, cols)
	return b.Table()
}

// AddTable folds every row of t, key k read from column cols[k]. A table
// with a columnar mirror is grouped chunk by chunk with no transpose;
// otherwise only the key columns are transposed, one chunk at a time.
func (g *Grouper) AddTable(t *Table, cols []int) {
	if chunks := t.CachedChunks(ChunkSize); chunks != nil {
		for _, ch := range chunks {
			g.AddChunk(ch, cols)
		}
		return
	}
	var ords []int
	for _, c := range cols {
		if !slices.Contains(ords, c) {
			ords = append(ords, c)
		}
	}
	if ords == nil {
		ords = []int{} // non-nil: transpose no columns, not all of them
	}
	scratch := NewChunk(t.Schema)
	for off := 0; off < len(t.Rows); off += ChunkSize {
		scratch.LoadRows(t.Rows[off:min(off+ChunkSize, len(t.Rows))], ords)
		g.AddChunk(scratch, cols)
	}
}

// AddChunk folds every position of the chunk, key k read from column
// cols[k]: hash the key columns wholesale, then find or insert each
// position's key.
func (g *Grouper) AddChunk(ch *Chunk, cols []int) {
	n := ch.Len()
	if cap(g.hashes) < n {
		g.hashes = make([]uint64, n)
		g.hvs = make([]uint64, n)
	}
	hashes := g.hashes[:n]
	for i := range hashes {
		hashes[i] = fnvBasis
	}
	for k, c := range cols {
		col := ch.Col(c)
		g.keys[k] = col
		g.foldKeyCol(k, col, hashes)
	}
	ix := g.ix
	for i, h := range hashes {
		m := mix64(h)
		tag := uint8(m >> 56)
		if tag == 0 {
			tag = 1
		}
		s := m & ix.mask
		found := false
		for {
			t := ix.tags[s]
			if t == 0 {
				break // empty slot: h is new
			}
			if t == tag && ix.hash[s] == h {
				for ri := ix.head[s]; ri >= 0; ri = ix.next[ri] {
					if g.match(g.out.rows[g.base+int(ri)], i) {
						found = true
						break
					}
				}
				break // h's chain: matched, or the new group joins it
			}
			s = (s + 1) & ix.mask
		}
		if !found {
			g.insert(s, h, tag, i)
		}
	}
}

// foldKeyCol folds key column k into the per-position hashes: typed
// payloads hash through the typed kernels (strings once per dictionary
// entry), NULL/ALL positions as the markers, boxed columns per value.
func (g *Grouper) foldKeyCol(k int, col *Column, hashes []uint64) {
	if col.IsBoxed() || col.PayloadKind() == KindNull {
		for i := range hashes {
			hashes[i] = combineHash(hashes[i], hashSingle(col.Value(i)))
		}
		return
	}
	hv := g.hvs[:len(hashes)]
	switch col.PayloadKind() {
	case KindInt:
		for i, x := range col.Ints()[:len(hv)] {
			hv[i] = hashIntKey(x)
		}
	case KindFloat:
		for i, x := range col.Floats()[:len(hv)] {
			hv[i] = hashFloatKey(x)
		}
	case KindString:
		strs := g.strHvs[k].hashes(col)
		for i, c := range col.Codes()[:len(hv)] {
			hv[i] = strs[c]
		}
	case KindBool:
		for i := range hv {
			hv[i] = hashBoolKey(col.BoolAt(i))
		}
	}
	if col.HasSpecial() {
		for i := range hv {
			if col.IsNull(i) {
				hv[i] = nullKeyHash
			} else if col.IsAll(i) {
				hv[i] = allKeyHash
			}
		}
	}
	for i, x := range hv {
		hashes[i] = combineHash(hashes[i], x)
	}
}

// match verifies a collected group against chunk position i.
func (g *Grouper) match(r Row, i int) bool {
	for k, col := range g.keys {
		if !equalAt(r[g.place[k]], col, i) {
			return false
		}
	}
	return true
}

// equalAt is v.Equal(col.Value(i)) without boxing the common same-kind
// typed cases.
func equalAt(v Value, col *Column, i int) bool {
	if !col.isBoxed && v.kind == col.kind && !(col.HasSpecial() && (col.IsNull(i) || col.IsAll(i))) {
		switch v.kind {
		case KindInt:
			return v.i == col.ints[i]
		case KindFloat:
			return v.f == col.floats[i]
		case KindString:
			return v.s == col.dict[col.codes[i]]
		}
	}
	return v.Equal(col.Value(i))
}

// insert appends chunk position i as a new group, chaining it at slot s
// (empty, or the slot already holding hash h), and keeps the load factor
// at or below 1/2.
func (g *Grouper) insert(s, h uint64, tag uint8, i int) {
	for j := range g.row {
		g.row[j] = All()
	}
	for k, col := range g.keys {
		g.row[g.place[k]] = col.Value(i)
	}
	g.out.Append(g.row)
	ix := g.ix
	if ix.tags[s] == 0 {
		ix.hash[s], ix.tags[s] = h, tag
	}
	ix.next = append(ix.next, ix.head[s])
	ix.head[s] = g.n
	g.n++
	if 2*int(g.n) > len(ix.head) {
		ix.growSlots()
	}
}

// allocSlots gives the index n empty slots (n a power of two).
func (ix *Index) allocSlots(n int) {
	ix.mask = uint64(n - 1)
	ix.hash = make([]uint64, n)
	ix.head = make([]int32, n)
	ix.tags = make([]uint8, n)
	for i := range ix.head {
		ix.head[i] = -1
	}
}

// growSlots doubles an insert-mode index's slot array, moving each
// occupied slot (hash, tag and chain head) to its new home; the chains
// themselves live in next and stay as they are.
func (ix *Index) growSlots() {
	hash, head, tags := ix.hash, ix.head, ix.tags
	ix.allocSlots(2 * len(head))
	for s, t := range tags {
		if t == 0 {
			continue
		}
		ns := ix.findSlot(hash[s])
		ix.hash[ns], ix.head[ns], ix.tags[ns] = hash[s], head[s], t
	}
}
