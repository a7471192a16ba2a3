package parallel

// ReduceSum tree-reduces scalar partials: returns Σ parts[i]. Convenience
// for per-task partial sums (fit computation, norms).
func ReduceSum(parts []float64) float64 {
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total
}

// Arena is the per-team workspace allocator of the steady-state hot path:
// one TaskArena per task, each a set of typed grow-only buffer pools. The
// CP-ALS engines build one Arena per run and thread it through every
// compute layer (dense Gram/norm/solve, the MTTKRP operators, the sampled
// kernel), so per-iteration scratch is carved out of long-lived backing
// arrays instead of being re-made per call — after the first iteration
// warms every pool, steady-state iterations allocate nothing.
//
// Allocation discipline: Alloc calls with the same (task, pool, sequence)
// pattern return the same backing memory across frames. A caller that
// wants per-call transient scratch brackets its Allocs with Mark/Release
// (stack discipline); a caller that wants buffers persisting for the
// arena's lifetime allocates them once at construction and never releases.
type Arena struct {
	tasks []TaskArena
}

// NewArena creates an arena with one TaskArena per task (tasks >= 1).
func NewArena(tasks int) *Arena {
	if tasks < 1 {
		tasks = 1
	}
	return &Arena{tasks: make([]TaskArena, tasks)}
}

// Tasks reports the number of per-task arenas.
func (a *Arena) Tasks() int { return len(a.tasks) }

// Task returns task tid's arena. Distinct tasks may allocate concurrently;
// a single TaskArena is not safe for concurrent use.
func (a *Arena) Task(tid int) *TaskArena { return &a.tasks[tid] }

// TaskArena is one task's typed bump allocator. Buffers are carved from
// grow-only backing arrays; growth (the only allocation) happens when a
// frame's demand first exceeds the backing capacity, so a steady-state
// caller repeating the same allocation pattern allocates only on its first
// frame.
type TaskArena struct {
	f64 pool[float64]
	i32 pool[int32]
}

// pool is a single-type bump allocator.
type pool[T any] struct {
	buf []T
	off int
}

func (p *pool[T]) alloc(n int) []T {
	if p.off+n > len(p.buf) {
		// Grow to at least double so repeated growth within one frame stays
		// amortized. Previously returned slices keep referencing the old
		// backing array and stay valid.
		size := 2 * len(p.buf)
		if size < p.off+n {
			size = p.off + n
		}
		if size < 64 {
			size = 64
		}
		fresh := make([]T, size)
		p.buf = fresh
		p.off = 0
	}
	s := p.buf[p.off : p.off+n : p.off+n]
	p.off += n
	return s
}

// F64 returns an n-element float64 buffer. Contents are NOT zeroed: frames
// reuse backing memory, so callers must initialize what they read.
func (t *TaskArena) F64(n int) []float64 { return t.f64.alloc(n) }

// I32 returns an n-element int32 buffer (also serves sptensor.Index, an
// int32 alias). Contents are not zeroed.
func (t *TaskArena) I32(n int) []int32 { return t.i32.alloc(n) }

// Mark captures the arena's current allocation frontier for Release.
type Mark struct{ f64, i32 int }

// Mark snapshots the allocation offsets of every pool.
func (t *TaskArena) Mark() Mark {
	return Mark{f64: t.f64.off, i32: t.i32.off}
}

// Release rewinds the arena to a prior Mark, recycling everything allocated
// since. Buffers obtained after the mark must not be used after Release.
func (t *TaskArena) Release(m Mark) {
	if m.f64 <= t.f64.off {
		t.f64.off = m.f64
	}
	if m.i32 <= t.i32.off {
		t.i32.off = m.i32
	}
}
