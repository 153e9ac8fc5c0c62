package table

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveDistinct is the specification of the grouping kernel: a nested
// loop keeping the first occurrence of every key combination under
// Value.Equal, in input order.
func naiveDistinct(rows []Row, cols []int) []Row {
	var out []Row
	for _, r := range rows {
		dup := false
		for _, o := range out {
			same := true
			for k, c := range cols {
				if !o[k].Equal(r[c]) {
					same = false
					break
				}
			}
			if same {
				dup = true
				break
			}
		}
		if !dup {
			key := make(Row, len(cols))
			for k, c := range cols {
				key[k] = r[c]
			}
			out = append(out, key)
		}
	}
	return out
}

// sameValue is exact identity: equal and of the same kind, so a test
// notices when the kernel keeps Float(1.0) where Int(1) came first.
func sameValue(a, b Value) bool { return a.Kind() == b.Kind() && a.Equal(b) }

// checkMirror asserts tab's columnar mirror holds exactly its rows.
func checkMirror(t *testing.T, tab *Table) {
	t.Helper()
	cs := tab.CachedChunks(ChunkSize)
	if cs == nil {
		t.Fatalf("table of %d rows has no columnar mirror", tab.Len())
	}
	ri := 0
	for ci, ch := range cs {
		if ci < len(cs)-1 && ch.Len() != ChunkSize {
			t.Fatalf("chunk %d of %d holds %d rows; only the last may be partial", ci, len(cs), ch.Len())
		}
		for i := 0; i < ch.Len(); i++ {
			for j := range tab.Rows[ri] {
				if got, want := ch.Value(i, j), tab.Rows[ri][j]; !sameValue(got, want) {
					t.Fatalf("mirror row %d col %d = %v (%v), rows hold %v (%v)", ri, j, got, got.Kind(), want, want.Kind())
				}
			}
			ri++
		}
	}
	if ri != tab.Len() {
		t.Fatalf("mirror covers %d of %d rows", ri, tab.Len())
	}
}

// groupColumn draws one key column's values. flavor picks the column's
// shape: typed ints with 1 and 1.0 split across chunks, strings whose
// dictionary order differs per chunk, floats, specials-heavy, or boxed
// (mixed kinds within a chunk).
func groupColumn(rng *rand.Rand, flavor, n int) []Value {
	out := make([]Value, n)
	for i := range out {
		chunk := i / ChunkSize
		var v Value
		switch flavor {
		case 0: // int chunks and float chunks: Int(1) must group with Float(1.0)
			if chunk%2 == 0 {
				v = Int(int64(rng.Intn(4)))
			} else {
				v = Float(float64(rng.Intn(4)))
			}
		case 1: // strings, each chunk meeting them in a different order
			names := []string{"NY", "NJ", "CT", "PA"}
			v = Str(names[(rng.Intn(2)+chunk)%len(names)])
			if rng.Intn(3) == 0 {
				v = Str(names[rng.Intn(len(names))])
			}
		case 2:
			v = Float(float64(rng.Intn(5)) / 2)
		case 3: // typed with many specials
			switch rng.Intn(4) {
			case 0:
				v = Null()
			case 1:
				v = All()
			default:
				v = Int(int64(rng.Intn(3)))
			}
		default: // boxed: kinds mixed within every chunk
			switch rng.Intn(6) {
			case 0:
				v = Null()
			case 1:
				v = All()
			case 2:
				v = Str("1")
			case 3:
				v = Float(1)
			case 4:
				v = Bool(rng.Intn(2) == 0)
			default:
				v = Int(int64(rng.Intn(3)))
			}
		}
		out[i] = v
	}
	return out
}

func TestGrouperMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	sizes := []int{0, 1, 7, ChunkSize - 1, ChunkSize, ChunkSize + 1, 2*ChunkSize + 1}
	for trial := 0; trial < 60; trial++ {
		n := sizes[trial%len(sizes)]
		ncol := 1 + rng.Intn(3)
		cols := make([][]Value, ncol+1)
		var flavors []int
		for c := 0; c < ncol; c++ {
			f := rng.Intn(5)
			flavors = append(flavors, f)
			cols[c] = groupColumn(rng, f, n)
		}
		cols[ncol] = groupColumn(rng, 2, n) // a non-key column
		names := make([]string, ncol+1)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		schema := SchemaOf(names...)
		mirrored := NewBuilder(schema)
		plain := New(schema)
		for i := 0; i < n; i++ {
			r := make(Row, ncol+1)
			for c := range r {
				r[c] = cols[c][i]
			}
			mirrored.Append(r)
			plain.Append(r)
		}
		// Keys in reverse column order, so key k is not column k.
		keys := make([]int, ncol)
		for k := range keys {
			keys[k] = ncol - 1 - k
		}
		want := naiveDistinct(plain.Rows, keys)
		for name, in := range map[string]*Table{"mirrored": mirrored.Table(), "transposed": plain} {
			got := Distinct(in, keys, SchemaOf(names[:ncol]...))
			label := fmt.Sprintf("trial %d (%s, %d rows, flavors %v)", trial, name, n, flavors)
			if got.Len() != len(want) {
				t.Fatalf("%s: %d groups, nested loop finds %d", label, got.Len(), len(want))
			}
			for g := range want {
				for k := range want[g] {
					if !sameValue(got.Rows[g][k], want[g][k]) {
						t.Fatalf("%s: group %d key %d = %v, want first occurrence %v", label, g, k, got.Rows[g][k], want[g][k])
					}
				}
			}
			checkMirror(t, got)
		}
	}
}

func TestGrouperPadsWithAll(t *testing.T) {
	in := MustFromRows(SchemaOf("a", "b", "c"), []Row{
		{Int(1), Str("x"), Null()},
		{Float(1), Str("y"), Null()},
		{Int(2), Str("x"), All()},
		{Int(1), Str("z"), Null()},
	})
	b := NewBuilder(SchemaOf("a", "b", "c"))
	NewGrouper(b, []int{0, 2}).AddTable(in, []int{0, 2})
	NewGrouper(b, nil).AddTable(in, nil)
	got := b.Table()
	want := []Row{
		{Int(1), All(), Null()},
		{Int(2), All(), All()},
		{All(), All(), All()},
	}
	if got.Len() != len(want) {
		t.Fatalf("got %d rows %v, want %v", got.Len(), got.Rows, want)
	}
	for i := range want {
		for j := range want[i] {
			if !sameValue(got.Rows[i][j], want[i][j]) {
				t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want[i])
			}
		}
	}
	checkMirror(t, got)
}

func TestGroupIndexGrowsAcrossManyGroups(t *testing.T) {
	n := 5*ChunkSize + 3
	b := NewBuilder(SchemaOf("k", "v"))
	for i := 0; i < n; i++ {
		b.Append(Row{Int(int64(i % 3001)), Int(int64(i))})
	}
	got := Distinct(b.Table(), []int{0}, SchemaOf("k"))
	if got.Len() != 3001 {
		t.Fatalf("%d groups, want 3001", got.Len())
	}
	for i, r := range got.Rows {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("group %d is %v: first-occurrence order broken", i, r[0])
		}
	}
}

func TestExtendSharesSealedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	schema := SchemaOf("k", "s", "x")
	row := func(i int) Row {
		r := Row{Int(int64(i)), Str([]string{"a", "b", "c"}[rng.Intn(3)]), Float(rng.Float64())}
		if rng.Intn(10) == 0 {
			r[2] = Null()
		}
		return r
	}
	b := NewBuilder(schema)
	for i := 0; i < ChunkSize+476; i++ {
		b.Append(row(i))
	}
	old := b.Table()
	oldRows := append([]Row(nil), old.Rows...)
	oldChunks := append([]*Chunk(nil), old.CachedChunks(ChunkSize)...)
	oldTail := oldChunks[1].Len()

	var delta, delta2 []Row
	for i := 0; i < 700; i++ {
		delta = append(delta, row(10000+i))
		delta2 = append(delta2, row(20000+i))
	}
	next := old.Extend(delta)
	fork := old.Extend(delta2) // a second extension of the same snapshot

	for _, c := range []struct {
		name string
		tab  *Table
		tail []Row
	}{{"next", next, delta}, {"fork", fork, delta2}} {
		if c.tab.Len() != len(oldRows)+len(c.tail) {
			t.Fatalf("%s: %d rows, want %d", c.name, c.tab.Len(), len(oldRows)+len(c.tail))
		}
		for i, r := range append(append([]Row(nil), oldRows...), c.tail...) {
			if !c.tab.Rows[i].Equal(r) {
				t.Fatalf("%s: row %d = %v, want %v", c.name, i, c.tab.Rows[i], r)
			}
		}
		checkMirror(t, c.tab)
		if c.tab.CachedChunks(ChunkSize)[0] != oldChunks[0] {
			t.Fatalf("%s: the sealed first chunk was copied, not shared", c.name)
		}
	}
	// The old snapshot is untouched: same rows, same chunks, same tail.
	if old.Len() != len(oldRows) {
		t.Fatalf("old snapshot grew to %d rows", old.Len())
	}
	for i, r := range oldRows {
		if !old.Rows[i].Equal(r) {
			t.Fatalf("old row %d changed", i)
		}
	}
	cs := old.CachedChunks(ChunkSize)
	if len(cs) != len(oldChunks) || cs[1] != oldChunks[1] || cs[1].Len() != oldTail {
		t.Fatalf("old mirror changed: %d chunks, tail %d rows (was %d)", len(cs), cs[len(cs)-1].Len(), oldTail)
	}
	checkMirror(t, old)

	// A table without a mirror gets one.
	plain := MustFromRows(schema, oldRows)
	checkMirror(t, plain.Extend(delta))
}

func TestAppendSelectedGathersMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	schema := SchemaOf("a", "b", "c", "d")
	b := NewBuilder(schema)
	for i := 0; i < 3*ChunkSize+5; i++ {
		r := Row{
			Int(int64(rng.Intn(9))),
			Str([]string{"x", "y", "z", "w"}[(rng.Intn(2)+i/ChunkSize)%4]),
			Bool(rng.Intn(2) == 0),
			groupColumn(rng, 4, 1)[0], // boxed in every chunk
		}
		if rng.Intn(7) == 0 {
			r[rng.Intn(3)] = []Value{Null(), All()}[rng.Intn(2)]
		}
		b.Append(r)
	}
	in := b.Table()
	out := NewBuilder(schema)
	var want []Row
	for ci, ch := range in.CachedChunks(ChunkSize) {
		rows := in.Rows[ci*ChunkSize : ci*ChunkSize+ch.Len()]
		var sel []int32
		for i := range rows {
			if rng.Intn(3) != 0 {
				sel = append(sel, int32(i))
				want = append(want, rows[i])
			}
		}
		out.AppendSelected(ch, rows, sel)
		if ci == 1 {
			out.Append(rows[0]) // row-at-a-time appends interleave
			want = append(want, rows[0])
		}
	}
	got := out.Table()
	if got.Len() != len(want) {
		t.Fatalf("%d rows, want %d", got.Len(), len(want))
	}
	for i := range want {
		if !got.Rows[i].Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want[i])
		}
	}
	checkMirror(t, got)
}
