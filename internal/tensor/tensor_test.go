package tensor

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeviceWorkers(t *testing.T) {
	if Sequential().Workers() != 1 {
		t.Error("Sequential must have 1 worker")
	}
	if Parallel().Workers() < 1 {
		t.Error("Parallel must have >= 1 worker")
	}
	if ParallelN(4).Workers() != 4 {
		t.Error("ParallelN(4) != 4")
	}
	if ParallelN(0).Workers() != 1 {
		t.Error("ParallelN(0) should clamp to 1")
	}
	if (Device{}).Workers() != 1 {
		t.Error("zero Device should act sequential")
	}
	if (Device{}).Name() != "sequential" {
		t.Error("zero Device name")
	}
}

func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, d := range []Device{Sequential(), ParallelN(3), ParallelN(7)} {
		n := 100
		hits := make([]int32, n)
		var ranges [][2]int
		// Collect ranges through a channel-free approach: mark hits.
		d.Run(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%s: index %d covered %d times", d.Name(), i, h)
			}
		}
		_ = ranges
	}
}

func TestRandomizeRowsDecorrelated(t *testing.T) {
	// Regression: with identical row-stride and per-draw increments, the
	// SplitMix64 streams degenerate to row r+1 being row r shifted by one
	// column. Batch rows are independent GD restarts — they must not be
	// shifted copies of each other.
	m := NewMatrix(8, 64)
	m.Randomize(Sequential(), 42, 0, 1)
	for r := 0; r+1 < m.Rows; r++ {
		shifted := 0
		for i := 0; i+1 < m.Cols; i++ {
			if m.At(r, i+1) == m.At(r+1, i) {
				shifted++
			}
		}
		if shifted > m.Cols/4 {
			t.Fatalf("row %d and %d look like shifted copies (%d/%d equal)", r, r+1, shifted, m.Cols-1)
		}
	}
}

func TestRunStripesOnePerWorker(t *testing.T) {
	// Run hands each worker at most one contiguous stripe, and the stripes
	// tile [0, n) in order.
	for _, d := range []Device{Sequential(), ParallelN(3), ParallelN(8)} {
		n := 100
		var mu sync.Mutex
		stripes := map[int]int{}
		d.Run(n, func(lo, hi int) {
			mu.Lock()
			stripes[lo] = hi
			mu.Unlock()
		})
		if len(stripes) > d.Workers() {
			t.Errorf("%s: %d stripes for %d workers", d.Name(), len(stripes), d.Workers())
		}
		for lo := 0; lo < n; {
			hi, ok := stripes[lo]
			if !ok || hi <= lo {
				t.Fatalf("%s: no stripe starts at %d", d.Name(), lo)
			}
			lo = hi
		}
	}
}

func TestRunTinyNInlines(t *testing.T) {
	// n below the striping threshold runs inline as one stripe.
	called := 0
	ParallelN(8).Run(3, func(lo, hi int) {
		called++
		if lo != 0 || hi != 3 {
			t.Errorf("inline path got (lo=%d, hi=%d)", lo, hi)
		}
	})
	if called != 1 {
		t.Error("inline path not taken exactly once")
	}
}

func TestRunEmptyAndSmall(t *testing.T) {
	count := 0
	ParallelN(8).Run(0, func(lo, hi int) { count += hi - lo })
	if count != 0 {
		t.Error("Run(0) visited elements")
	}
	ParallelN(8).Run(3, func(lo, hi int) { count += hi - lo })
	if count != 3 {
		t.Error("Run(3) wrong coverage")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At roundtrip failed")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Error("Row view wrong")
	}
	m.Fill(1.5)
	for _, v := range m.Data {
		if v != 1.5 {
			t.Error("Fill failed")
		}
	}
}

func TestRandomizeDeterministicAcrossDevices(t *testing.T) {
	a := NewMatrix(16, 5)
	b := NewMatrix(16, 5)
	a.Randomize(Sequential(), 42, -1, 1)
	b.Randomize(ParallelN(4), 42, -1, 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Randomize depends on device parallelism")
		}
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("value %v outside [-1,1)", v)
		}
	}
}

// TestUniform01Exhaustive: the int32 conversion gives the value the
// uint64 one does on every one of the 2^24 top-bit patterns, whatever the
// low bits hold.
func TestUniform01Exhaustive(t *testing.T) {
	for i := uint64(0); i < 1<<24; i++ {
		x := i<<40 | SplitMix64(i)>>24
		if got, want := Uniform01(x), float32(x>>40)*(1.0/(1<<24)); got != want {
			t.Fatalf("Uniform01(%#x) = %v, want %v", x, got, want)
		}
	}
}

func TestSigmoid(t *testing.T) {
	src := NewMatrix(1, 3)
	src.Data = []float32{0, 10, -10}
	dst := NewMatrix(1, 3)
	Sigmoid(Sequential(), dst, src)
	if math.Abs(float64(dst.Data[0])-0.5) > 1e-6 {
		t.Errorf("sigmoid(0) = %v", dst.Data[0])
	}
	if dst.Data[1] < 0.999 || dst.Data[2] > 0.001 {
		t.Errorf("sigmoid saturation wrong: %v", dst.Data)
	}
}

func TestHarden(t *testing.T) {
	src := NewMatrix(1, 4)
	src.Data = []float32{-1, 0.5, 0, 2}
	dst := make([]bool, 4)
	Harden(Sequential(), dst, src, 0)
	want := []bool{false, true, false, true}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("Harden[%d] = %v want %v", i, dst[i], want[i])
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := NewMatrix(1, 2)
	b := NewMatrix(2, 1)
	for name, fn := range map[string]func(){
		"sigmoid": func() { Sigmoid(Sequential(), a, b) },
		"harden":  func() { Harden(Sequential(), make([]bool, 1), a, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: parallel and sequential devices compute identical results.
func TestDeviceEquivalenceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rows := 1 + int(uint64(seed)%13)
		cols := 1 + int(uint64(seed/13)%7)
		v := NewMatrix(rows, cols)
		v.Randomize(Sequential(), seed, -3, 3)
		p1 := NewMatrix(rows, cols)
		p2 := NewMatrix(rows, cols)
		Sigmoid(Sequential(), p1, v)
		Sigmoid(ParallelN(5), p2, v)
		for i := range p1.Data {
			if p1.Data[i] != p2.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}
