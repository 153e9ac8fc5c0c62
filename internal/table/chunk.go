package table

import (
	"fmt"
	"maps"
)

// ChunkSize is the default number of rows per columnar chunk. The batch
// executor in internal/core aliases this so that tables built through
// Builder hand their cached chunks straight to the scan without a
// transpose.
const ChunkSize = 1024

// Column is one typed vector of a Chunk: struct-of-arrays storage for a
// single attribute across the chunk's rows. The payload lives in a typed
// array chosen by the column's payload kind — []int64, []float64,
// dictionary-encoded strings ([]int32 codes into a string dictionary), or
// packed bools — while SQL NULL and the data-cube ALL placeholder are
// carried out-of-band in two validity bitmaps. A position with neither
// bit set holds a valid payload; the payload slot under a set bit is
// undefined and must not be read.
//
// A column whose values mix payload kinds (legal: Value is dynamically
// typed and relations are schema-flexible) demotes itself to a boxed
// []Value representation; IsBoxed reports this and kernels fall back to
// the generic boxed path.
type Column struct {
	kind    Kind // payload kind; KindNull until the first valid value
	n       int
	ints    []int64
	floats  []float64
	bools   Bitmap // packed bool payload
	dict    []string
	codes   []int32
	dictIdx map[string]int32 // builder state; persists across Reset
	isBoxed bool
	boxed   []Value
	nulls   Bitmap
	alls    Bitmap
	hasNull bool
	hasAll  bool
}

// Len returns the number of positions in the column.
func (c *Column) Len() int { return c.n }

// PayloadKind returns the kind of the typed payload array, or KindNull
// when the column is boxed, empty, or entirely NULL/ALL.
func (c *Column) PayloadKind() Kind {
	if c.isBoxed {
		return KindNull
	}
	return c.kind
}

// IsBoxed reports whether the column fell back to boxed []Value storage
// because its values mix payload kinds.
func (c *Column) IsBoxed() bool { return c.isBoxed }

// IsNull reports whether position i is SQL NULL.
func (c *Column) IsNull(i int) bool { return c.hasNull && c.nulls.Get(i) }

// IsAll reports whether position i is the cube ALL placeholder.
func (c *Column) IsAll(i int) bool { return c.hasAll && c.alls.Get(i) }

// HasSpecial reports whether any position is NULL or ALL; kernels hoist
// this to skip per-row validity checks on fully valid columns.
func (c *Column) HasSpecial() bool { return c.hasNull || c.hasAll }

// Ints returns the int64 payload array (PayloadKind KindInt only).
func (c *Column) Ints() []int64 { return c.ints }

// Floats returns the float64 payload array (PayloadKind KindFloat only).
func (c *Column) Floats() []float64 { return c.floats }

// BoolAt returns the packed bool payload at i (PayloadKind KindBool only).
func (c *Column) BoolAt(i int) bool { return c.bools.Get(i) }

// StrAt returns the decoded string payload at i (PayloadKind KindString
// only; undefined at NULL/ALL positions).
func (c *Column) StrAt(i int) string { return c.dict[c.codes[i]] }

// Dict returns the string dictionary (PayloadKind KindString only). The
// dictionary is append-only and persists across Reset, so codes from
// earlier fills of a reused scratch column stay decodable.
func (c *Column) Dict() []string { return c.dict }

// Codes returns the dictionary codes array (PayloadKind KindString only).
func (c *Column) Codes() []int32 { return c.codes }

// Boxed returns the boxed values, or nil when the column is typed.
func (c *Column) Boxed() []Value {
	if !c.isBoxed {
		return nil
	}
	return c.boxed
}

// Value boxes position i back into a Value; this is the row-view bridge
// used by the scalar reference path and by generic fallbacks.
func (c *Column) Value(i int) Value {
	if c.hasNull && c.nulls.Get(i) {
		return Value{}
	}
	if c.hasAll && c.alls.Get(i) {
		return All()
	}
	if c.isBoxed {
		return c.boxed[i]
	}
	switch c.kind {
	case KindInt:
		return Int(c.ints[i])
	case KindFloat:
		return Float(c.floats[i])
	case KindString:
		return Str(c.dict[c.codes[i]])
	case KindBool:
		return Bool(c.bools.Get(i))
	}
	return Value{}
}

// AppendValue appends v, adapting the representation: the first valid
// value fixes the payload kind, NULL/ALL only touch the bitmaps, and a
// kind mismatch demotes the whole column to boxed storage.
func (c *Column) AppendValue(v Value) {
	i := c.n
	c.n++
	c.nulls = c.nulls.grow(c.n)
	c.alls = c.alls.grow(c.n)
	if c.isBoxed {
		c.boxed = append(c.boxed, v)
		c.noteSpecial(i, v)
		return
	}
	if v.kind == KindNull || v.kind == KindAll {
		c.noteSpecial(i, v)
		c.appendZero()
		return
	}
	if c.kind == KindNull {
		// First valid value: fix the kind and backfill placeholder slots
		// for any leading NULL/ALL positions.
		c.kind = v.kind
		for j := 0; j < i; j++ {
			c.appendZero()
		}
	}
	if v.kind != c.kind {
		c.demote()
		c.boxed = append(c.boxed, v)
		return
	}
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, v.i)
	case KindFloat:
		c.floats = append(c.floats, v.f)
	case KindString:
		c.codes = append(c.codes, c.code(v.s))
	case KindBool:
		c.bools = c.bools.grow(c.n)
		if v.i != 0 {
			c.bools.Set(i)
		}
	}
}

// appendFrom appends src's values at the selected positions: a typed
// gather when both columns carry the same payload kind (strings re-coded
// into this column's dictionary once per distinct source code), else
// value by value.
func (c *Column) appendFrom(src *Column, sel []int32) {
	k := src.PayloadKind()
	if c.kind == KindNull && !c.isBoxed && k != KindNull {
		// First typed values: fix the kind and backfill placeholder slots
		// for any leading NULL/ALL positions.
		c.kind = k
		for j := 0; j < c.n; j++ {
			c.appendZero()
		}
	}
	if c.isBoxed || k == KindNull || c.kind != k {
		for _, si := range sel {
			c.AppendValue(src.Value(int(si)))
		}
		return
	}
	i0 := c.n
	c.n += len(sel)
	c.nulls = c.nulls.grow(c.n)
	c.alls = c.alls.grow(c.n)
	switch k {
	case KindInt:
		for _, si := range sel {
			c.ints = append(c.ints, src.ints[si])
		}
	case KindFloat:
		for _, si := range sel {
			c.floats = append(c.floats, src.floats[si])
		}
	case KindString:
		xl := make([]int32, len(src.dict))
		for _, si := range sel {
			sc := src.codes[si]
			if xl[sc] == 0 {
				xl[sc] = c.code(src.dict[sc]) + 1
			}
			c.codes = append(c.codes, xl[sc]-1)
		}
	case KindBool:
		c.bools = c.bools.grow(c.n)
		for j, si := range sel {
			if src.bools.Get(int(si)) {
				c.bools.Set(i0 + j)
			}
		}
	}
	if src.HasSpecial() {
		for j, si := range sel {
			if src.IsNull(int(si)) {
				c.nulls.Set(i0 + j)
				c.hasNull = true
			} else if src.IsAll(int(si)) {
				c.alls.Set(i0 + j)
				c.hasAll = true
			}
		}
	}
}

// appendZero extends the typed payload array with an undefined placeholder
// so it stays positional under a NULL/ALL bit.
func (c *Column) appendZero() {
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, 0)
	case KindFloat:
		c.floats = append(c.floats, 0)
	case KindString:
		c.codes = append(c.codes, 0)
	case KindBool:
		c.bools = c.bools.grow(c.n)
	}
}

// demote rebuilds the column as boxed []Value; values appended so far are
// boxed via Value (bitmaps already carry the specials).
func (c *Column) demote() {
	vals := make([]Value, c.n-1, c.n)
	for i := range vals {
		vals[i] = c.Value(i)
	}
	c.isBoxed = true
	c.boxed = vals
}

func (c *Column) code(s string) int32 {
	if c.dictIdx == nil {
		c.dictIdx = make(map[string]int32)
	}
	if id, ok := c.dictIdx[s]; ok {
		return id
	}
	id := int32(len(c.dict))
	c.dict = append(c.dict, s)
	c.dictIdx[s] = id
	return id
}

func (c *Column) noteSpecial(i int, v Value) {
	switch v.kind {
	case KindNull:
		c.nulls.Set(i)
		c.hasNull = true
	case KindAll:
		c.alls.Set(i)
		c.hasAll = true
	}
}

// Reset truncates the column to zero length, keeping allocated capacity
// and the string dictionary (codes are append-only across fills).
func (c *Column) Reset() {
	c.n = 0
	c.kind = KindNull
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	c.codes = c.codes[:0]
	c.bools = c.bools.reset()
	c.isBoxed = false
	c.boxed = c.boxed[:0]
	c.nulls = c.nulls.reset()
	c.alls = c.alls.reset()
	c.hasNull, c.hasAll = false, false
}

// ResetTyped prepares the column as a positional output vector of n slots
// with payload kind k (KindInt, KindFloat, or KindBool) and all validity
// bits clear. Kernels then write via SetInt/SetFloat/SetBool/SetNull;
// slots never written are undefined and must not be read.
func (c *Column) ResetTyped(k Kind, n int) {
	c.n = n
	c.kind = k
	c.isBoxed = false
	c.hasNull, c.hasAll = false, false
	c.nulls = c.nulls.reset().grow(n)
	c.alls = c.alls.reset().grow(n)
	switch k {
	case KindInt:
		c.ints = sliceTo(c.ints, n)
	case KindFloat:
		c.floats = sliceTo(c.floats, n)
	case KindBool:
		c.bools = c.bools.reset().grow(n)
	default:
		panic(fmt.Sprintf("table: ResetTyped does not support payload kind %v", k))
	}
}

// ResetBoxed prepares the column as a positional boxed output vector of n
// slots, written via SetValue.
func (c *Column) ResetBoxed(n int) {
	c.n = n
	c.kind = KindNull
	c.isBoxed = true
	c.hasNull, c.hasAll = false, false
	c.nulls = c.nulls.reset().grow(n)
	c.alls = c.alls.reset().grow(n)
	c.boxed = sliceTo(c.boxed, n)
}

// SetInt writes a valid int payload at slot i (after ResetTyped KindInt).
func (c *Column) SetInt(i int, v int64) { c.ints[i] = v }

// SetFloat writes a valid float payload at slot i (after ResetTyped KindFloat).
func (c *Column) SetFloat(i int, v float64) { c.floats[i] = v }

// SetBool writes a valid bool payload at slot i (after ResetTyped KindBool).
func (c *Column) SetBool(i int, v bool) {
	if v {
		c.bools.Set(i)
	} else {
		c.bools.Clear(i)
	}
}

// SetNull marks slot i as SQL NULL.
func (c *Column) SetNull(i int) {
	c.nulls.Set(i)
	c.hasNull = true
}

// SetValue writes any value at slot i of a boxed output vector (after
// ResetBoxed), maintaining the validity bitmaps.
func (c *Column) SetValue(i int, v Value) {
	c.boxed[i] = v
	c.noteSpecial(i, v)
}

func sliceTo[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Chunk is a fixed-size columnar slice of a relation: the schema plus one
// Column per attribute, all of equal length. Chunks are the unit the
// batch executor scans; the Row view bridges back to the row-at-a-time
// world for the scalar Algorithm 3.1 reference path and for residual
// predicates that need a per-tuple frame.
type Chunk struct {
	schema *Schema
	cols   []Column
	n      int
	// full is false when LoadRows populated only a subset of ordinals
	// (scratch chunks transpose just the columns the phase programs
	// reference); the Row view refuses to materialize such chunks.
	full bool
}

// NewChunk creates an empty chunk for the schema.
func NewChunk(schema *Schema) *Chunk {
	return &Chunk{schema: schema, cols: make([]Column, schema.Len()), full: true}
}

// Schema returns the chunk's schema.
func (c *Chunk) Schema() *Schema { return c.schema }

// Len returns the number of rows in the chunk.
func (c *Chunk) Len() int { return c.n }

// Col returns the column at ordinal j.
func (c *Chunk) Col(j int) *Column { return &c.cols[j] }

// AppendRow appends one row across all columns.
func (c *Chunk) AppendRow(r Row) {
	for j := range c.cols {
		c.cols[j].AppendValue(r[j])
	}
	c.n++
}

// LoadRows resets the chunk and transposes rows into it. A nil ords loads
// every column; otherwise only the listed ordinals are populated (the
// executor's scratch chunks transpose just the columns its compiled chunk
// programs reference) and the other columns are truncated to zero length
// so stale reads fail loudly.
func (c *Chunk) LoadRows(rows []Row, ords []int) {
	c.n = len(rows)
	for j := range c.cols {
		c.cols[j].Reset()
	}
	c.full = ords == nil
	if ords == nil {
		for j := range c.cols {
			col := &c.cols[j]
			for _, r := range rows {
				col.AppendValue(r[j])
			}
		}
		return
	}
	for _, j := range ords {
		col := &c.cols[j]
		for _, r := range rows {
			col.AppendValue(r[j])
		}
	}
}

// Value returns the value at (row ri, column ci).
func (c *Chunk) Value(ri, ci int) Value { return c.cols[ci].Value(ri) }

// Row materializes row ri into buf (reallocated as needed) — the row view
// adapter for the scalar reference path.
func (c *Chunk) Row(ri int, buf Row) Row {
	if !c.full {
		panic("table: Row view on a partially loaded chunk")
	}
	buf = buf[:0]
	for j := range c.cols {
		buf = append(buf, c.cols[j].Value(ri))
	}
	return buf
}

// Chunks returns the table's rows as a sequence of columnar chunks of at
// most size rows each. Tables built through Builder with size == ChunkSize
// return their cached columnar mirror without transposing; otherwise a
// fresh transpose is built (and deliberately not cached — Chunks may be
// called concurrently by parallel workers sharing one detail table).
func (t *Table) Chunks(size int) []*Chunk {
	if size <= 0 {
		size = ChunkSize
	}
	if cs := t.CachedChunks(size); cs != nil {
		return cs
	}
	out := make([]*Chunk, 0, (len(t.Rows)+size-1)/size)
	for off := 0; off < len(t.Rows); off += size {
		end := min(off+size, len(t.Rows))
		ch := NewChunk(t.Schema)
		ch.LoadRows(t.Rows[off:end], nil)
		out = append(out, ch)
	}
	return out
}

// CachedChunks returns the columnar mirror built by Builder, or nil when
// the table has none, the chunk size differs, or the mirror no longer
// covers the rows (e.g. after a `t.Rows = t.Rows[:n]` truncation). It
// never builds anything, so it is safe under concurrent readers.
func (t *Table) CachedChunks(size int) []*Chunk {
	if t.chunks == nil || t.chunkSize != size {
		return nil
	}
	total := 0
	for _, c := range t.chunks {
		total += c.n
	}
	if total != len(t.Rows) {
		return nil
	}
	return t.chunks
}

// Extend returns a new table holding t's rows followed by rows, leaving t
// untouched: the copy-on-write append of a live catalog, where in-flight
// queries keep reading t. The new table keeps a columnar mirror: it
// shares t's sealed (full) chunks and copies only t's partial tail chunk
// before appending, so extending costs O(ChunkSize + len(rows)) columnar
// work however long t is. A table without a mirror gets one built.
func (t *Table) Extend(rows []Row) *Table {
	b := NewBuilder(t.Schema)
	chunks := t.CachedChunks(ChunkSize)
	if len(chunks) == 0 {
		for _, r := range t.Rows {
			b.Append(r)
		}
	} else {
		b.rows = make([]Row, len(t.Rows), len(t.Rows)+len(rows))
		copy(b.rows, t.Rows)
		n := len(chunks)
		b.chunks = chunks[:n:n] // capped: sealing reallocates, t's list stays
		if last := chunks[n-1]; last.Len() < ChunkSize {
			b.chunks = chunks[: n-1 : n-1]
			b.cur = last.clone()
		}
	}
	for _, r := range rows {
		b.Append(r)
	}
	return b.Table()
}

// clone deep-copies the chunk, so appends to the copy leave it untouched.
func (c *Chunk) clone() *Chunk {
	out := &Chunk{schema: c.schema, cols: make([]Column, len(c.cols)), n: c.n, full: c.full}
	for j := range c.cols {
		out.cols[j] = c.cols[j].clone()
	}
	return out
}

// clone deep-copies the column, its builder dictionary included.
func (c *Column) clone() Column {
	d := *c
	d.ints = append([]int64(nil), c.ints...)
	d.floats = append([]float64(nil), c.floats...)
	d.bools = append(Bitmap(nil), c.bools...)
	d.dict = append([]string(nil), c.dict...)
	d.codes = append([]int32(nil), c.codes...)
	d.boxed = append([]Value(nil), c.boxed...)
	d.nulls = append(Bitmap(nil), c.nulls...)
	d.alls = append(Bitmap(nil), c.alls...)
	d.dictIdx = maps.Clone(c.dictIdx)
	return d
}

// AppendChunk appends every row of the chunk, materializing the row views
// into a single shared backing array (one allocation per chunk rather
// than one per row).
func (t *Table) AppendChunk(c *Chunk) {
	w := t.Schema.Len()
	if c.schema.Len() != w {
		panic(fmt.Sprintf("table: appending chunk with %d columns to schema %v with %d columns",
			c.schema.Len(), t.Schema.Names(), w))
	}
	backing := make([]Value, 0, c.Len()*w)
	for i := 0; i < c.Len(); i++ {
		start := len(backing)
		row := c.Row(i, backing[start:start:start+w])
		backing = backing[:start+w]
		t.Rows = append(t.Rows, row)
	}
	t.chunks = nil
}

// FromChunks materializes a table from columnar chunks; the inverse of
// Table.Chunks.
func FromChunks(schema *Schema, chunks []*Chunk) *Table {
	t := New(schema)
	for _, c := range chunks {
		t.AppendChunk(c)
	}
	return t
}

// Builder accumulates rows for a new table chunk-at-a-time: every
// ChunkSize rows share one backing value block (O(n/ChunkSize) allocations
// instead of O(n)), and the columnar mirror is built as rows arrive so the
// finished table answers Chunks(ChunkSize) with no transpose. All bulk
// construction sites (CSV load, workload generators, cube base-values,
// distributed fragment transfer) build through this.
type Builder struct {
	schema *Schema
	rows   []Row
	chunks []*Chunk
	cur    *Chunk
	block  []Value
}

// NewBuilder creates a builder for the schema.
func NewBuilder(schema *Schema) *Builder {
	return &Builder{schema: schema}
}

// Len returns the number of rows appended so far.
func (b *Builder) Len() int { return len(b.rows) }

// Append validates the row width and appends a copy of the row.
func (b *Builder) Append(r Row) {
	w := b.schema.Len()
	if len(r) != w {
		panic(fmt.Sprintf("table: appending row with %d values to schema %v with %d columns",
			len(r), b.schema.Names(), w))
	}
	b.next()
	if cap(b.block)-len(b.block) < w {
		b.block = make([]Value, 0, (ChunkSize-b.cur.Len())*w)
	}
	start := len(b.block)
	b.block = append(b.block, r...) // never reallocates: cap covers the chunk
	row := Row(b.block[start:len(b.block):len(b.block)])
	b.rows = append(b.rows, row)
	b.cur.AppendRow(row)
}

// AppendSelected appends rows[si] for each si in sel, where rows are the
// row views of chunk ch (every column loaded). The rows are shared, not
// copied — rows are immutable — and the mirror gathers the selected
// positions column-wise from ch's typed vectors, with no boxed Value per
// element: how a selection keeps its input's columnar form.
func (b *Builder) AppendSelected(ch *Chunk, rows []Row, sel []int32) {
	if ch.schema.Len() != b.schema.Len() || !ch.full {
		panic(fmt.Sprintf("table: gathering from a chunk of %v into schema %v", ch.schema.Names(), b.schema.Names()))
	}
	for len(sel) > 0 {
		b.next()
		part := sel[:min(len(sel), ChunkSize-b.cur.Len())]
		sel = sel[len(part):]
		for _, si := range part {
			b.rows = append(b.rows, rows[si])
		}
		for j := range b.cur.cols {
			b.cur.cols[j].appendFrom(&ch.cols[j], part)
		}
		b.cur.n += len(part)
	}
}

// next opens a fresh current chunk when there is none or it is full.
func (b *Builder) next() {
	if b.cur == nil || b.cur.Len() == ChunkSize {
		b.seal()
		b.cur = NewChunk(b.schema)
		b.block = nil
	}
}

func (b *Builder) seal() {
	if b.cur != nil && b.cur.Len() > 0 {
		b.chunks = append(b.chunks, b.cur)
	}
}

// Table seals the builder and returns the table with its columnar mirror
// attached. The builder must not be used afterwards.
func (b *Builder) Table() *Table {
	b.seal()
	b.cur = nil
	t := &Table{Schema: b.schema, Rows: b.rows, chunks: b.chunks, chunkSize: ChunkSize}
	if t.chunks == nil {
		t.chunks = []*Chunk{}
	}
	b.rows, b.chunks, b.block = nil, nil, nil
	return t
}
