package table

import (
	"fmt"
	"math/rand"
	"testing"
)

// The Prober is a second implementation of the flat index's probe side;
// this file pins it against the boxed ProbeAppend reference on randomized
// base/detail pairs covering every fold path: dict→dict code translation
// (matched, mismatched, and disjoint dictionaries), typed int/float/bool
// vectors, boxed mixed-kind columns, and NULL/ALL detail keys (which the
// Prober classifies instead of probing).

// proberBase builds a base table whose key columns are either all strings
// (so the index dict-keys them) or mixed kinds (so it falls back to value
// keys), with the string pool drawn in random order so base dictionary
// codes disagree with detail dictionary codes.
func proberBase(rng *rand.Rand, allString bool, n int) *Table {
	pool := []string{"aa", "bb", "cc", "dd", "ee"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	t := New(SchemaOf("a", "b", "v"))
	mk := func() Value {
		if allString {
			return Str(pool[rng.Intn(len(pool))])
		}
		switch rng.Intn(6) {
		case 0:
			return Null()
		case 1:
			return All()
		case 2:
			return Int(int64(rng.Intn(6)))
		case 3:
			return Float(float64(rng.Intn(6)))
		case 4:
			return Str(pool[rng.Intn(len(pool))])
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	for i := 0; i < n; i++ {
		t.Append(Row{mk(), mk(), Int(int64(i))})
	}
	return t
}

// proberDetailValue draws a detail key: pool strings (some hit the base
// dictionary), absent strings (dictionary misses), numerics, bools, and
// the NULL/ALL specials.
func proberDetailValue(rng *rand.Rand, mode int) Value {
	switch mode {
	case 1: // strings only, absent ones included → typed dict column
		return Str([]string{"aa", "bb", "cc", "zz", "qq"}[rng.Intn(5)])
	case 2: // ints only → typed int column against possibly dict-keyed base
		return Int(int64(rng.Intn(8)))
	default: // everything → boxed column
		switch rng.Intn(8) {
		case 0:
			return Null()
		case 1:
			return All()
		case 2:
			return Int(int64(rng.Intn(6)))
		case 3:
			return Float(float64(rng.Intn(6)))
		case 4:
			return Bool(rng.Intn(2) == 0)
		case 5:
			return Str("zz") // never in the base dictionary
		default:
			return Str([]string{"aa", "bb", "cc", "dd", "ee"}[rng.Intn(5)])
		}
	}
}

// TestProberMatchesBoxedProbe is the differential oracle: fold a detail
// chunk through the Prober and compare every position's outcome with the
// boxed ProbeAppend reference. Live positions must return exactly the
// reference ordinals; miss positions must be provable misses (the boxed
// probe returns nothing); NULL/ALL positions must classify as dead/degen
// and never reach the index.
func TestProberMatchesBoxedProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		base := proberBase(rng, trial%2 == 0, 1+rng.Intn(40))
		cols := []int{0, 1}
		if trial%3 == 0 {
			cols = []int{0}
		}
		ix := BuildIndexOrdinals(base, cols)
		pr := NewProber(ix)

		mode := trial % 4 // 0,3: boxed mix; 1: string column; 2: int column
		ch := NewChunk(SchemaOf("a", "b"))
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			ch.AppendRow(Row{proberDetailValue(rng, mode), proberDetailValue(rng, mode)})
		}
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}

		pr.Begin(n)
		for k, c := range cols {
			pr.FoldKeyCol(k, ch.Col(c), sel)
		}

		key := make([]Value, len(cols))
		for i := 0; i < n; i++ {
			var hasNull, hasAll bool
			for j, c := range cols {
				key[j] = ch.Value(i, c)
				hasNull = hasNull || key[j].Kind() == KindNull
				hasAll = hasAll || key[j].Kind() == KindAll
			}
			label := fmt.Sprintf("trial %d pos %d key %v", trial, i, key)
			switch st := pr.State(i); {
			case hasNull:
				if st != ProbeDead {
					t.Fatalf("%s: want dead, got %v", label, st)
				}
			case hasAll:
				if st != ProbeDegen {
					t.Fatalf("%s: want degen, got %v", label, st)
				}
			case st == ProbeMiss:
				if got := ix.ProbeAppend(nil, key); len(got) != 0 {
					t.Fatalf("%s: classified miss but boxed probe found %v", label, got)
				}
			case st == ProbeLive:
				want := ix.ProbeAppend(nil, key)
				got, skipped := pr.ProbeAppend(nil, i, 0)
				if len(got) != len(want) {
					t.Fatalf("%s: prober %v vs boxed %v", label, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s: prober %v vs boxed %v", label, got, want)
					}
				}
				if skipped && len(want) != 0 {
					t.Fatalf("%s: fingerprint skipped a hit: %v", label, want)
				}
			default:
				t.Fatalf("%s: unexpected state %v", label, st)
			}
		}
	}
}

// TestProberDisjointDicts pins the translation edge the random oracle can
// sail past: a detail dictionary sharing no string with the base
// dictionary makes every position a miss without touching the index.
func TestProberDisjointDicts(t *testing.T) {
	base := New(SchemaOf("k", "v"))
	for i, s := range []string{"aa", "bb", "cc"} {
		base.Append(Row{Str(s), Int(int64(i))})
	}
	ix := BuildIndexOrdinals(base, []int{0})
	pr := NewProber(ix)

	ch := NewChunk(SchemaOf("k"))
	for i := 0; i < 10; i++ {
		ch.AppendRow(Row{Str([]string{"xx", "yy", "zz"}[i%3])})
	}
	if ch.Col(0).IsBoxed() {
		t.Fatal("fixture must produce a dict-encoded column")
	}
	sel := make([]int32, ch.Len())
	for i := range sel {
		sel[i] = int32(i)
	}
	pr.Begin(ch.Len())
	pr.FoldKeyCol(0, ch.Col(0), sel)
	for i := 0; i < ch.Len(); i++ {
		if pr.State(i) != ProbeMiss {
			t.Fatalf("pos %d: want miss for disjoint dictionaries, got %v", i, pr.State(i))
		}
	}
}

// TestProberScratchReuse pins the allocation discipline: after a warm-up
// chunk, re-folding and re-probing the same shape must not allocate — the
// hash vector, state vector, code vectors, and translation tables are all
// reused, and the memoized dictionary work is keyed by column identity.
func TestProberScratchReuse(t *testing.T) {
	base := New(SchemaOf("k", "m", "v"))
	for i := 0; i < 32; i++ {
		base.Append(Row{Str([]string{"aa", "bb", "cc", "dd"}[i%4]), Int(int64(i % 3)), Int(int64(i))})
	}
	ix := BuildIndexOrdinals(base, []int{0, 1})
	pr := NewProber(ix)

	ch := NewChunk(SchemaOf("k", "m"))
	for i := 0; i < 64; i++ {
		ch.AppendRow(Row{Str([]string{"aa", "bb", "zz"}[i%3]), Int(int64(i % 4))})
	}
	sel := make([]int32, ch.Len())
	for i := range sel {
		sel[i] = int32(i)
	}
	buf := make([]int, 0, 64)
	probe := func() {
		pr.Begin(ch.Len())
		pr.FoldKeyCol(0, ch.Col(0), sel)
		pr.FoldKeyCol(1, ch.Col(1), sel)
		for i := 0; i < ch.Len(); i++ {
			if pr.State(i) == ProbeLive {
				buf, _ = pr.ProbeAppend(buf[:0], i, 0)
			}
		}
	}
	probe() // warm-up sizes every scratch vector
	if allocs := testing.AllocsPerRun(20, probe); allocs != 0 {
		t.Fatalf("steady-state probe allocates %v times per chunk", allocs)
	}
}
