package bitblast

import (
	"slices"
	"testing"
)

// TestRowSetForcedCollision: distinct rows inserted under one forced hash
// all stay distinct and findable, through the index growing beneath them,
// and re-inserting any of them reports the duplicate at its index.
func TestRowSetForcedCollision(t *testing.T) {
	const width, rows, h = 130, 100, 0x5EED
	s := NewRowSet(width, 0)
	key := func(i int) []uint64 { return []uint64{uint64(i), ^uint64(i), uint64(i) & 3} }
	for i := 0; i < rows; i++ {
		if got, added := s.insert(key(i), h); !added || got != i {
			t.Fatalf("insert %d under a shared hash = (%d, %v), want (%d, true)", i, got, added, i)
		}
	}
	if s.Len() != rows {
		t.Fatalf("Len = %d, want %d", s.Len(), rows)
	}
	for i := 0; i < rows; i++ {
		if !slices.Equal(s.Row(i), key(i)) {
			t.Fatalf("row %d = %x, want %x", i, s.Row(i), key(i))
		}
		if got, added := s.insert(key(i), h); added || got != i {
			t.Fatalf("re-insert %d = (%d, %v), want (%d, false)", i, got, added, i)
		}
	}
	if s.Len() != rows {
		t.Fatalf("Len after re-inserts = %d, want %d", s.Len(), rows)
	}
}
