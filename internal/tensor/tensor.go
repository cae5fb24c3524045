// Package tensor provides the batched float32 compute substrate for the
// gradient-descent sampler. It stands in for the paper's PyTorch/V100
// stack: the property the paper exploits is that every batch row (every
// candidate sample) is an independent learning problem, so the forward and
// backward passes are data-parallel across rows. A Device abstracts how
// that parallelism is realized — Sequential models single-threaded CPU
// execution and Parallel models the data-parallel accelerator by striping
// the batch across a worker pool. The Fig. 4 GPU-vs-CPU ablation becomes a
// Parallel-vs-Sequential comparison on identical kernels (see DESIGN.md).
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Device executes batch-striped work. Multi-worker devices carry a lazily
// started persistent worker pool so steady-state dispatch costs two channel
// operations per helper and zero heap allocations (a per-call goroutine +
// WaitGroup would allocate on every tick).
type Device struct {
	workers int
	name    string
	pool    *workerPool
}

// Sequential returns the single-worker device (the "CPU" arm of the
// ablation).
func Sequential() Device { return Device{workers: 1, name: "sequential"} }

// Parallel returns a device with one worker per available CPU (the
// data-parallel "GPU stand-in" arm).
func Parallel() Device {
	d := ParallelN(runtime.GOMAXPROCS(0))
	d.name = "parallel"
	return d
}

// ParallelN returns a device with exactly n workers (n >= 1).
func ParallelN(n int) Device {
	if n < 1 {
		n = 1
	}
	return Device{workers: n, name: fmt.Sprintf("parallel-%d", n), pool: newWorkerPool(n)}
}

// workerPool parks workers-1 helper goroutines on per-helper job channels.
// The goroutines spawn on first dispatch (a device that never runs parallel
// work costs nothing) and exit when the pool becomes unreachable: the
// finalizer closes the job channels, so pools cannot leak goroutines past
// their device's lifetime. Dispatch holds mu; a concurrent dispatch on the
// same device (e.g. two sessions sharing one Device value) falls back to
// per-call goroutines rather than serializing behind the lock.
type workerPool struct {
	mu      sync.Mutex
	helpers int
	jobs    []chan poolJob
	done    chan struct{}
}

// poolJob is the unit of work sent to a parked helper: one worker slot of a
// RunWorkers call. Sent by value — dispatch allocates nothing.
type poolJob struct {
	fn     func(worker int)
	worker int
}

func newWorkerPool(workers int) *workerPool {
	if workers <= 1 {
		return nil
	}
	p := &workerPool{helpers: workers - 1}
	runtime.SetFinalizer(p, (*workerPool).shutdown)
	return p
}

func (p *workerPool) shutdown() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ch := range p.jobs {
		close(ch)
	}
	p.jobs = nil
}

// start spawns the parked helpers. Caller holds mu.
func (p *workerPool) start() {
	if p.jobs != nil {
		return
	}
	p.jobs = make([]chan poolJob, p.helpers)
	p.done = make(chan struct{}, p.helpers)
	for i := range p.jobs {
		ch := make(chan poolJob)
		p.jobs[i] = ch
		go poolHelper(ch, p.done)
	}
}

func poolHelper(jobs <-chan poolJob, done chan<- struct{}) {
	for j := range jobs {
		j.fn(j.worker)
		done <- struct{}{}
	}
}

// Workers returns the worker count.
func (d Device) Workers() int {
	if d.workers == 0 {
		return 1
	}
	return d.workers
}

// Name returns a short device label for reports.
func (d Device) Name() string {
	if d.name == "" {
		return "sequential"
	}
	return d.name
}

// Run partitions [0, n) into contiguous stripes and invokes fn(lo, hi) for
// each stripe, one RunWorkers slot per stripe. With one worker, or fewer
// than two rows per worker, it runs inline as one stripe (no goroutine
// overhead), so Sequential timing reflects a plain loop.
func (d Device) Run(n int, fn func(lo, hi int)) {
	w := d.Workers()
	if w == 1 || n < 2*w {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	d.RunWorkers((n+chunk-1)/chunk, func(i int) {
		fn(i*chunk, min((i+1)*chunk, n))
	})
}

// RunWorkers invokes fn(worker) exactly once for each worker index in
// [0, k), concurrently across the device's workers (k above Workers() is
// clamped). It never merges slots: callers that own work partitions keyed
// by worker index (e.g. the scheduler's tile ranges) get one invocation
// per slot even when each slot's work is small. Worker 0 runs on the
// calling goroutine.
func (d Device) RunWorkers(k int, fn func(worker int)) {
	if w := d.Workers(); k > w {
		k = w
	}
	if k <= 1 {
		if k == 1 {
			fn(0)
		}
		return
	}
	if p := d.pool; p != nil && p.mu.TryLock() {
		p.start()
		for i := 1; i < k; i++ {
			p.jobs[i-1] <- poolJob{fn: fn, worker: i}
		}
		fn(0)
		for i := 1; i < k; i++ {
			<-p.done
		}
		p.mu.Unlock()
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	fn(0)
	wg.Wait()
}

// Matrix is a dense row-major batch-by-cols float32 matrix. Row i is one
// batch element (one candidate sample).
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Randomize fills the matrix with uniform values in [lo, hi) using per-row
// deterministic streams derived from seed, so results are identical for
// any device parallelism. The streams are SplitMix64-based: seeding a
// math/rand source per row costs hundreds of nanoseconds (it warms a
// 607-word lagged-Fibonacci state), which dominated whole GD rounds on
// fast-converging instances, while SplitMix64 is two multiplies per draw.
func (m *Matrix) Randomize(d Device, seed int64, lo, hi float32) {
	d.Run(m.Rows, func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			// Scramble the row base through the finalizer and advance with
			// a different odd constant than the row stride: if the two were
			// equal, element (r, i) would depend only on r+i and every row
			// would be its neighbor shifted by one column.
			state := SplitMix64(uint64(seed) + uint64(r)*0x9E3779B97F4A7C15)
			row := m.Row(r)
			for i := range row {
				state += DrawIncrement
				row[i] = lo + (hi-lo)*Uniform01(SplitMix64(state))
			}
		}
	})
}

// SplitMix64 is the SplitMix64 finalizer — the one scrambling function
// behind Randomize's per-row streams and the core scheduler's per-slot
// restart streams (bitblast.Hash64 folds the same constants into its
// running hash). Both stream families must draw through this helper so
// their float sequences cannot drift apart silently.
func SplitMix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// DrawIncrement is the odd stream-advance constant paired with SplitMix64
// draws; it is deliberately distinct from the golden-ratio row stride (see
// Randomize).
const DrawIncrement = 0xD1B54A32D192ED03

// Uniform01 maps a scrambled 64-bit word to a uniform float32 in [0, 1)
// using its top 24 bits. They convert through int32, which is exact below
// 2^24 and one signed conversion on every target; a uint64 conversion is
// that cheap only where the compiler proves the top bit clear.
func Uniform01(x uint64) float32 {
	return float32(int32(x>>40)) * (1.0 / (1 << 24))
}

// Sigmoid computes dst = 1/(1+exp(-src)) elementwise, striped by rows.
func Sigmoid(d Device, dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: Sigmoid shape mismatch")
	}
	d.Run(dst.Rows, func(r0, r1 int) {
		lo, hi := r0*dst.Cols, r1*dst.Cols
		s, t := src.Data[lo:hi], dst.Data[lo:hi]
		for i, v := range s {
			t[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	})
}

// Harden writes dst[r][c] = (src[r][c] > threshold) as a row-major bool
// slice: converting the learned soft inputs into hard binary assignments.
func Harden(d Device, dst []bool, src *Matrix, threshold float32) {
	if len(dst) != len(src.Data) {
		panic("tensor: Harden shape mismatch")
	}
	d.Run(src.Rows, func(r0, r1 int) {
		lo, hi := r0*src.Cols, r1*src.Cols
		for i := lo; i < hi; i++ {
			dst[i] = src.Data[i] > threshold
		}
	})
}
