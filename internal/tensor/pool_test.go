package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunWorkersCoversEachSlotOnce(t *testing.T) {
	for _, tc := range []struct {
		d    Device
		k    int
		want int
	}{
		{Sequential(), 4, 1},  // clamped to 1 worker
		{ParallelN(4), 4, 4},  // exact fit
		{ParallelN(4), 9, 4},  // clamped to device width
		{ParallelN(8), 3, 3},  // fewer slots than workers
		{ParallelN(4), 0, 0},  // nothing to do
		{ParallelN(4), -2, 0}, // nothing to do
		{Device{}, 5, 1},      // zero device acts sequential
	} {
		hits := make([]int32, 16)
		tc.d.RunWorkers(tc.k, func(w int) {
			atomic.AddInt32(&hits[w], 1)
		})
		for w, h := range hits {
			want := int32(0)
			if w < tc.want {
				want = 1
			}
			if h != want {
				t.Fatalf("%s RunWorkers(%d): slot %d ran %d times, want %d",
					tc.d.Name(), tc.k, w, h, want)
			}
		}
	}
}

func TestRunPooledReuseCoversRange(t *testing.T) {
	// Repeated dispatch through the persistent pool must keep exact
	// coverage (the helpers are reused, not respawned).
	d := ParallelN(4)
	n := 257
	hits := make([]int32, n)
	for iter := 0; iter < 50; iter++ {
		for i := range hits {
			hits[i] = 0
		}
		d.Run(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("iter %d: index %d covered %d times", iter, i, h)
			}
		}
	}
}

func TestRunWorkersZeroAllocSteadyState(t *testing.T) {
	// The scheduler ticks through RunWorkers on every phase; a per-call
	// goroutine spawn (the old implementation) allocates and would show up
	// in the sampler's steady-state alloc guard.
	d := ParallelN(4)
	sink := make([]int64, d.Workers())
	wfn := func(w int) { sink[w]++ }
	d.RunWorkers(4, wfn) // warm up: spawns the parked helpers
	if got := testing.AllocsPerRun(100, func() { d.RunWorkers(4, wfn) }); got != 0 {
		t.Errorf("RunWorkers steady state allocates %v/op, want 0", got)
	}
}

func TestConcurrentDispatchSharedDevice(t *testing.T) {
	// Two sessions sharing one Device value dispatch concurrently: the
	// loser of the pool TryLock falls back to per-call goroutines, so both
	// calls must still produce exact coverage.
	d := ParallelN(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 300
			hits := make([]int32, n)
			for iter := 0; iter < 20; iter++ {
				for i := range hits {
					hits[i] = 0
				}
				d.Run(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Errorf("index %d covered %d times", i, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestRunWorkersParallelism(t *testing.T) {
	// All k slots must be in flight at once (RunWorkers never merges
	// slots): each slot blocks until every other slot has started.
	d := ParallelN(4)
	var started sync.WaitGroup
	started.Add(4)
	d.RunWorkers(4, func(w int) {
		started.Done()
		started.Wait()
	})
}
