package bitblast

import "slices"

// Hash64 returns a SplitMix64-based hash of a packed bit vector — the
// dedup key RowSet indexes rows by.
func Hash64(words []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, x := range words {
		h ^= x
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// RowSet is an insertion-ordered set of fixed-width packed bit rows: the
// solution pool of the core sampler and of the baseline samplers. Rows lie
// back to back in one slab beside their Hash64; an open-addressing index
// keyed by that hash maps a row to its insertion index, and equal hashes
// are resolved by comparing the rows' words, so a 64-bit collision never
// merges distinct rows. Inserting allocates only when the slab or the
// index grows.
type RowSet struct {
	words  int      // uint64 words per row
	slab   []uint64 // row i is slab[i*words : (i+1)*words]
	hashes []uint64 // Hash64 of each row
	index  []int32  // 1 + row index per slot, 0 = empty; power-of-two length, at most half full
}

// NewRowSet returns an empty set of width-bit rows with room for capacity
// rows before it grows.
func NewRowSet(width, capacity int) *RowSet {
	words := (width + 63) / 64
	return &RowSet{
		words:  words,
		slab:   make([]uint64, 0, capacity*words),
		hashes: make([]uint64, 0, capacity),
		index:  make([]int32, indexSize(capacity)),
	}
}

// indexSize is the smallest power-of-two index, at least 8 slots, that
// holds rows at most half full.
func indexSize(rows int) int {
	n := 8
	for n < 2*rows {
		n <<= 1
	}
	return n
}

// Len returns the number of rows in the set.
func (s *RowSet) Len() int { return len(s.hashes) }

// Row returns the i-th inserted row. The caller must not modify it.
func (s *RowSet) Row(i int) []uint64 { return s.slab[i*s.words : (i+1)*s.words : (i+1)*s.words] }

// Insert adds a copy of key, a row of the set's width whose bits past the
// width are zero, unless an equal row is present. It returns the row's
// index and whether it was added.
func (s *RowSet) Insert(key []uint64) (int, bool) { return s.insert(key, Hash64(key)) }

// insert is Insert with the hash given, so tests can force collisions.
func (s *RowSet) insert(key []uint64, h uint64) (int, bool) {
	mask := uint64(len(s.index) - 1)
	slot := h & mask
	for ; s.index[slot] != 0; slot = (slot + 1) & mask {
		i := int(s.index[slot]) - 1
		if s.hashes[i] == h && slices.Equal(s.Row(i), key) {
			return i, false
		}
	}
	i := len(s.hashes)
	s.slab = append(s.slab, key...)
	s.hashes = append(s.hashes, h)
	if 2*len(s.hashes) > len(s.index) {
		s.rehash(2 * len(s.index))
	} else {
		s.index[slot] = int32(i + 1)
	}
	return i, true
}

// rehash rebuilds the index at size slots from the stored hashes.
func (s *RowSet) rehash(size int) {
	s.index = make([]int32, size)
	mask := uint64(size - 1)
	for i, h := range s.hashes {
		slot := h & mask
		for s.index[slot] != 0 {
			slot = (slot + 1) & mask
		}
		s.index[slot] = int32(i + 1)
	}
}

// UnpackRow expands the low len(dst) bits of a packed row into dst and
// returns dst.
func UnpackRow(dst []bool, row []uint64) []bool {
	for i := range dst {
		dst[i] = row[i>>6]>>(uint(i)&63)&1 == 1
	}
	return dst
}
