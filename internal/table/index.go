package table

import (
	"fmt"
	"math"
)

// Index is a hash index over a subset of a table's columns mapping key
// values to candidate row ordinals. It implements the base-values indexing
// of Section 4.5 of the paper: given a detail tuple, find the relative set
// Rel(t) of B rows in O(1) expected time instead of a nested loop.
//
// The layout is flat and cache-friendly, sized for the MD-join hot path
// where one index is probed once per detail tuple:
//
//   - a power-of-two open-addressing slot array, one slot per distinct key
//     hash, storing the full 64-bit hash inline so almost every probe is
//     resolved by comparing two machine words (no pointer chasing, no map
//     bucket walk);
//   - a parallel byte of 8-bit hash fingerprints (tags), zero meaning
//     empty — the pre-filter the vectorized Prober walks first, so probes
//     for absent keys usually finish without touching the hash array;
//   - a single []int32 ordinal arena (next), parallel to the table's rows,
//     threading each hash's ordinals into a chain — the whole index is
//     four flat allocations regardless of key distribution.
//
// Key columns whose base values are all strings are dictionary-encoded at
// build time (dicts/rowCodes): such columns hash and verify by int32 code,
// and the chunk executor joins dict-encoded detail columns against them
// via a code-translation table without touching the string heap.
//
// The key hash is built per column and folded with combineHash, so probe
// sides that already hold typed column vectors can hash them directly.
// Collisions (distinct keys with equal hashes, or equal-hash slots reached
// by linear probing) are verified against the actual row values.
type Index struct {
	// rows are the indexed rows (nil for a Grouper's insert-mode index,
	// whose groups live in its Builder).
	rows []Row
	cols []int
	mask uint64   // len(slotHash) - 1; len is a power of two
	hash []uint64 // per slot: the full key hash, valid when head >= 0
	head []int32  // per slot: first ordinal of the chain, -1 = empty
	next []int32  // per row ordinal: next ordinal with the same hash, -1 = end
	tags []uint8  // per slot: nonzero fingerprint of the slot hash, 0 = empty
	// dicts[k] maps key column k's strings to index-local codes when every
	// value in that column is a string (nil otherwise); rowCodes[k][ri] is
	// row ri's code in that dictionary.
	dicts    []map[string]int32
	rowCodes [][]int32
}

// BuildIndex indexes the table on the given column names.
func BuildIndex(t *Table, cols []string) *Index {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = t.Schema.MustColIndex(c)
	}
	return BuildIndexOrdinals(t, idx)
}

// BuildIndexOrdinals indexes the table on column ordinals.
func BuildIndexOrdinals(t *Table, cols []int) *Index {
	n := len(t.Rows)
	if n >= math.MaxInt32 {
		panic(fmt.Sprintf("table: cannot index %d rows (int32 ordinal arena)", n))
	}
	// ≥ 2n slots keeps the load factor at or below 1/2 (there are at most
	// n distinct hashes), so linear probe runs stay short.
	nslots := 8
	for nslots < 2*n {
		nslots <<= 1
	}
	ix := &Index{
		rows:     t.Rows,
		cols:     cols,
		mask:     uint64(nslots - 1),
		hash:     make([]uint64, nslots),
		head:     make([]int32, nslots),
		next:     make([]int32, n),
		tags:     make([]uint8, nslots),
		dicts:    make([]map[string]int32, len(cols)),
		rowCodes: make([][]int32, len(cols)),
	}
	for i := range ix.head {
		ix.head[i] = -1
	}
	ix.buildDicts()
	// One pass over the rows. Iterating in reverse and prepending to each
	// chain leaves every chain in ascending ordinal order, matching the
	// append-order semantics of the map-backed reference.
	for ri := n - 1; ri >= 0; ri-- {
		h := ix.rowHash(ri)
		s := ix.findSlot(h)
		if ix.head[s] < 0 {
			ix.hash[s] = h
			ix.tags[s] = tagOf(h)
		}
		ix.next[ri] = ix.head[s]
		ix.head[s] = int32(ri)
	}
	return ix
}

// buildDicts dictionary-encodes every key column whose values are all
// strings. Mixed-kind columns (or ones containing NULL/ALL) stay value
// hashed: string-vs-code equality is only safe when no cross-kind or
// special-marker equality can arise.
func (ix *Index) buildDicts() {
	for k, c := range ix.cols {
		allStr := true
		for _, r := range ix.rows {
			if r[c].kind != KindString {
				allStr = false
				break
			}
		}
		if !allStr {
			continue
		}
		dict := make(map[string]int32)
		codes := make([]int32, len(ix.rows))
		for ri, r := range ix.rows {
			s := r[c].s
			code, ok := dict[s]
			if !ok {
				code = int32(len(dict))
				dict[s] = code
			}
			codes[ri] = code
		}
		ix.dicts[k] = dict
		ix.rowCodes[k] = codes
	}
}

// rowHash computes row ri's key hash, column by column: dict-encoded key
// columns hash their code, the rest hash the value.
func (ix *Index) rowHash(ri int) uint64 {
	h := fnvBasis
	r := ix.rows[ri]
	for k, c := range ix.cols {
		var hv uint64
		if ix.dicts[k] != nil {
			hv = hashCodeKey(ix.rowCodes[k][ri])
		} else {
			hv = hashSingle(r[c])
		}
		h = combineHash(h, hv)
	}
	return h
}

// mix64 is a splitmix64-style finalizer spreading the FNV hash's entropy
// into the low bits the slot mask keeps.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// tagOf derives a slot's nonzero 8-bit fingerprint from the top byte of
// the mixed hash (the slot position uses the low bits, so tag and slot
// stay independent).
func tagOf(h uint64) uint8 {
	t := uint8(mix64(h) >> 56)
	if t == 0 {
		t = 1
	}
	return t
}

// findSlot locates the slot holding hash h, or the empty slot where h
// belongs. The load factor bound guarantees an empty slot exists.
func (ix *Index) findSlot(h uint64) uint64 {
	s := mix64(h) & ix.mask
	for ix.head[s] >= 0 && ix.hash[s] != h {
		s = (s + 1) & ix.mask
	}
	return s
}

// Cols returns the indexed column ordinals.
func (ix *Index) Cols() []int { return ix.cols }

// Probe returns the ordinals of rows whose indexed columns equal the given
// key values (len(key) == len(cols)). Hash collisions are verified.
func (ix *Index) Probe(key []Value) []int {
	return ix.ProbeAppend(nil, key)
}

// ProbeAppend appends matching row ordinals to dst and returns it —
// the allocation-free variant for scan loops (pass dst[:0] to reuse a
// buffer).
func (ix *Index) ProbeAppend(dst []int, key []Value) []int {
	h := fnvBasis
	for k, v := range key {
		if dict := ix.dicts[k]; dict != nil {
			// Dict-keyed column: the base values are all strings, so only
			// a string key already present in the dictionary can match.
			if v.kind != KindString {
				return dst
			}
			code, ok := dict[v.s]
			if !ok {
				return dst
			}
			h = combineHash(h, hashCodeKey(code))
			continue
		}
		h = combineHash(h, hashSingle(v))
	}
	s := ix.findSlot(h)
	for ri := ix.head[s]; ri >= 0; ri = ix.next[ri] {
		r := ix.rows[ri]
		match := true
		for i, c := range ix.cols {
			if !r[c].Equal(key[i]) {
				match = false
				break
			}
		}
		if match {
			dst = append(dst, int(ri))
		}
	}
	return dst
}

// MapIndex is the map[uint64][]int hash index the executors used before
// the flat Index existed. It is kept as the reference implementation: the
// verbatim tuple-at-a-time execution path (core.Options.DisableBatch)
// probes it, so equivalence tests and the E12 bench guard can diff the
// vectorized flat-index path against it.
type MapIndex struct {
	tab     *Table
	cols    []int
	buckets map[uint64][]int
}

// BuildMapIndex indexes the table on column ordinals using the map-backed
// layout.
func BuildMapIndex(t *Table, cols []int) *MapIndex {
	ix := &MapIndex{tab: t, cols: cols, buckets: make(map[uint64][]int, len(t.Rows))}
	for ri, r := range t.Rows {
		h := HashCols(r, cols)
		ix.buckets[h] = append(ix.buckets[h], ri)
	}
	return ix
}

// Cols returns the indexed column ordinals.
func (ix *MapIndex) Cols() []int { return ix.cols }

// Probe returns the ordinals of rows whose indexed columns equal the key.
func (ix *MapIndex) Probe(key []Value) []int {
	return ix.ProbeAppend(nil, key)
}

// ProbeAppend appends matching row ordinals to dst and returns it.
func (ix *MapIndex) ProbeAppend(dst []int, key []Value) []int {
	var h uint64 = 14695981039346656037
	for _, v := range key {
		h = hashValue(h, v)
	}
	for _, ri := range ix.buckets[h] {
		r := ix.tab.Rows[ri]
		match := true
		for i, c := range ix.cols {
			if !r[c].Equal(key[i]) {
				match = false
				break
			}
		}
		if match {
			dst = append(dst, ri)
		}
	}
	return dst
}
