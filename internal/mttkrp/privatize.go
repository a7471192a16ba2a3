package mttkrp

import (
	"repro/internal/dense"
	"repro/internal/parallel"
)

// Privatizer is the workspace of StrategyPrivatize: one output buffer per
// task and the reduction that merges them into the output (SPLATT's
// thd_info buffers and thd_reduce, §V-D2). The CSF and ALTO operators use
// it through Conflicts; the sampled MTTKRP of the ARLS solver
// (sketch.Sampler) privatizes its sampled output with it directly.
//
// Each task's buffer covers only its window [lo, hi) of output rows: the
// rows its share of the nonzeros can touch. A CSF slice partition or a
// share of sampled fibers bounds nothing, so those windows are whole modes
// (WholeModes); ALTO's contiguous key ranges touch only a window of each
// mode, so its buffers, their zeroing and the reduction shrink to those
// rows.
type Privatizer struct {
	rank   int
	lo, hi [][]int     // [task][mode] row window
	bufs   [][]float64 // per task, grown to the largest window it opens
	opened []bool      // tasks that opened their buffer since Stage

	// Operands of the staged MTTKRP; reduceBody is built once so a
	// reduction dispatches without materializing a closure.
	mode        int
	out         *dense.Matrix
	reduceTasks int
	reduceBody  func(tid int)
}

// NewPrivatizer returns a privatizer for len(lo) tasks whose task t, in
// mode m, touches output rows [lo[t][m], hi[t][m]). Buffers are allocated
// on first use, so modes that never privatize cost nothing.
func NewPrivatizer(rank int, lo, hi [][]int) *Privatizer {
	p := &Privatizer{rank: rank, lo: lo, hi: hi,
		bufs: make([][]float64, len(lo)), opened: make([]bool, len(lo))}
	p.reduceBody = func(tid int) {
		rank, mode := p.rank, p.mode
		begin, end := parallel.Partition(p.out.Rows, p.reduceTasks, tid)
		// Task order per row block keeps each element's summation order
		// that of a serial sum over tasks, so results are bitwise
		// reproducible.
		for t, ok := range p.opened {
			lo := p.lo[t][mode]
			a, b := max(begin, lo), min(end, p.hi[t][mode])
			if !ok || a >= b {
				continue
			}
			dense.VecAdd(p.out.Data[a*rank:b*rank], p.bufs[t][(a-lo)*rank:(b-lo)*rank])
		}
	}
	return p
}

// WholeModes returns the windows of tasks that may each write any row of
// any mode: [0, dims[m]) for every task.
func WholeModes(dims []int, tasks int) (lo, hi [][]int) {
	lo, hi = make([][]int, tasks), make([][]int, tasks)
	zero := make([]int, len(dims))
	for t := range lo {
		lo[t], hi[t] = zero, dims
	}
	return lo, hi
}

// Rows reports the privatized rows of a mode: the sum of its tasks' window
// lengths, the rows its buffers hold and its reduction adds. Decide weighs
// it against the mode's flushes.
func (p *Privatizer) Rows(mode int) int {
	rows := 0
	for t, lo := range p.lo {
		rows += p.hi[t][mode] - lo[mode]
	}
	return rows
}

// Stage prepares a privatized MTTKRP of mode into out: call it before the
// parallel region whose tasks Open their buffers. Windows are clipped to
// out's rows, so a sampler on a shard of mode 0, whose out holds only the
// shard's rows, zeroes and reduces none beyond them.
func (p *Privatizer) Stage(mode int, out *dense.Matrix) {
	p.mode, p.out = mode, out
	clear(p.opened)
}

// Open returns task tid's zeroed buffer for the staged mode and the first
// row of its window: row r accumulates into buf[(r-base)·rank:][:rank].
// Each task calls it inside its own parallel body, so the zeroing runs in
// parallel; a task that never opens its buffer is left out of Reduce.
func (p *Privatizer) Open(tid int) (buf []float64, base int) {
	base = p.lo[tid][p.mode]
	n := max(min(p.hi[tid][p.mode], p.out.Rows)-base, 0) * p.rank
	if cap(p.bufs[tid]) < n {
		p.bufs[tid] = make([]float64, n)
	}
	buf = p.bufs[tid][:n]
	clear(buf)
	p.opened[tid] = true
	return buf, base
}

// Reduce adds every opened buffer into the staged output (out += Σ_task
// buf). Each task of the team owns a block of output rows and pulls the
// overlapping part of every window into it, in task order.
func (p *Privatizer) Reduce(team *parallel.Team) {
	p.reduceTasks = team.N()
	team.Run(p.reduceBody)
}
