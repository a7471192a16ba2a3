package dense

import (
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// BLASPool models the OpenBLAS/OpenMP thread pool of the paper's §V-E
// interference study. Both the paper's codes call OpenBLAS for the inverse
// routine; OpenBLAS runs its *own* OpenMP threads, which fight with the
// Qthreads workers for cores — spin-waiting OpenMP threads linger on cores
// after the BLAS call returns (controlled by QT_SPINCOUNT in the paper) and
// degrade the Chapel routine that follows.
//
// The pool reproduces both halves of that pathology in Go:
//
//   - Threads: the pool runs its operations on its own goroutines,
//     independent of (and oversubscribing with) the CP-ALS team.
//   - SpinCount: after an operation completes, each pool goroutine keeps
//     busy-spinning for SpinCount iterations before exiting, stealing CPU
//     from whatever routine the driver runs next (the paper observed the
//     matrix-normalization routine slowing 7–13×).
//
// A pool with Threads <= 1 and SpinCount == 0 is the paper's chosen final
// configuration (OMP_NUM_THREADS=1): fully serial BLAS, no interference.
type BLASPool struct {
	// Threads is the number of pool goroutines per operation (the
	// OMP_NUM_THREADS analogue). Values <= 1 run inline.
	Threads int
	// SpinCount is the post-operation busy-wait iteration count per
	// goroutine (the QT_SPINCOUNT analogue; Qthreads defaults to 300000).
	SpinCount int
}

// spinSink defeats dead-code elimination of the busy-wait loop.
var spinSink atomic.Uint64

// burn spins for approximately `iters` iterations of trivial work.
func burn(iters int) {
	var acc uint64
	for i := 0; i < iters; i++ {
		acc += uint64(i)
		if acc&0xfff == 0 {
			spinSink.Add(acc)
		}
	}
	spinSink.Add(acc)
}

// parallelRows splits the row range [0, n) across the pool's own
// goroutines and calls f once per goroutine with its block. The call
// returns when the row work is done; post-op spinners continue burning CPU
// in the background.
func (p *BLASPool) parallelRows(n int, f func(begin, end int)) {
	if p == nil || p.Threads <= 1 {
		f(0, n)
		if p != nil && p.SpinCount > 0 {
			burn(p.SpinCount)
		}
		return
	}
	var wg sync.WaitGroup
	for t := 0; t < p.Threads; t++ {
		wg.Add(1)
		go func(tid int) {
			begin, end := parallel.Partition(n, p.Threads, tid)
			f(begin, end)
			wg.Done()
			// Linger after the result is ready, like an OpenMP worker
			// spin-waiting for more work it will never get.
			if p.SpinCount > 0 {
				burn(p.SpinCount)
			}
		}(t)
	}
	wg.Wait()
}

// SolveNormalsBLAS is SolveNormals executed on the BLAS pool instead of the
// CP-ALS team — the configuration the paper benchmarks when it varies
// OMP_NUM_THREADS. The factorization is serial (R×R is tiny); each pool
// goroutine applies it to its block of rows through the blocked solve.
func SolveNormalsBLAS(pool *BLASPool, v *Matrix, m *Matrix) {
	f, chol := factorNormals(v)
	pool.parallelRows(m.Rows, func(begin, end int) {
		solveRows(f, chol, m, begin, end, make([]float64, panelLen(v.Rows)))
	})
}
