// Package parallel provides the shared-memory execution substrate the port
// is built on: a persistent team of worker goroutines with barriers, static
// loop partitioning, and per-task scratch storage.
//
// It deliberately mirrors the OpenMP structures SPLATT uses (and that the
// paper's Chapel port had to emulate, §IV-B): a Team is the `omp parallel`
// region / Chapel `coforall`, Partition is the manually computed loop bounds
// that replace `omp for` inside a parallel region, Barrier is `omp barrier`,
// and Arena is the per-task workspace. SPLATT's per-thread `thd_info`
// output buffers are mttkrp.Privatizer.
package parallel

import (
	"fmt"
	"sync"
)

// Team is a persistent group of worker goroutines indexed by task id
// (tid 0..N-1). Workers are spawned once and reused across parallel
// regions, which mirrors OpenMP's thread-pool behaviour and avoids paying
// goroutine spawn cost inside the 20-iteration CP-ALS loop.
//
// A Team with N == 1 executes regions inline on the calling goroutine, so
// serial runs have no cross-goroutine overhead — the same property the
// paper relies on when comparing 1-thread runs. A nil *Team is that serial
// team: N reports 1, Run calls the body inline and Barrier returns.
type Team struct {
	n       int
	work    []chan func(int)
	done    chan struct{}
	barrier *Barrier
	closed  bool
	mu      sync.Mutex
}

// NewTeam creates a team of n tasks (n >= 1). The team must be released
// with Close when no longer needed.
func NewTeam(n int) *Team {
	if n < 1 {
		panic(fmt.Sprintf("parallel: team size %d < 1", n))
	}
	t := &Team{
		n:       n,
		done:    make(chan struct{}, n),
		barrier: NewBarrier(n),
	}
	if n > 1 {
		t.work = make([]chan func(int), n)
		for tid := 0; tid < n; tid++ {
			t.work[tid] = make(chan func(int))
			go t.worker(tid)
		}
	}
	return t
}

func (t *Team) worker(tid int) {
	for f := range t.work[tid] {
		f(tid)
		t.done <- struct{}{}
	}
}

// N reports the number of tasks in the team (1 for a nil team).
func (t *Team) N() int {
	if t == nil {
		return 1
	}
	return t.n
}

// Run executes body(tid) on every task concurrently and returns when all
// tasks have finished — the `coforall tid in 0..n-1` construct. Bodies may
// call t.Barrier() to synchronize mid-region.
func (t *Team) Run(body func(tid int)) {
	if t.N() == 1 {
		body(0)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		panic("parallel: Run on closed team")
	}
	for tid := 0; tid < t.n; tid++ {
		t.work[tid] <- body
	}
	for i := 0; i < t.n; i++ {
		<-t.done
	}
	t.mu.Unlock()
}

// Barrier blocks until every task in the current region has reached it.
// Must be called from inside a Run body by every task, or the region
// deadlocks (exactly as `omp barrier` would).
func (t *Team) Barrier() {
	if t.N() == 1 {
		return
	}
	t.barrier.Wait()
}

// Close shuts the worker goroutines down. The team must not be used after
// Close. Close is idempotent.
func (t *Team) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for _, c := range t.work {
		close(c)
	}
}

// Barrier is a reusable N-party barrier built on condition variables.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	phase   uint64
}

// NewBarrier creates a barrier for the given number of parties (>= 1).
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic(fmt.Sprintf("parallel: barrier parties %d < 1", parties))
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait for the current phase.
// The barrier then resets and can be reused.
func (b *Barrier) Wait() {
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
