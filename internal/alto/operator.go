package alto

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Operator performs MTTKRPs for every mode of an ALTO tensor. One Operator
// is built per CP-ALS run and reused across all iterations, owning its
// output-conflict layer (mttkrp.Conflicts) and per-task tile workspaces
// exactly as the CSF operator does.
//
// Parallelization splits the linearized nonzero array into contiguous
// per-task ranges (perfect nnz balance by construction — no slice-weight
// partitioning needed, since there is no root mode). Every task walks its
// sorted keys and reuses the product of the non-target factor rows across
// nonzeros whose non-target coordinates are unchanged — the linearized
// analogue of CSF's fiber-product reuse. Run accumulation is lazy: equal
// keys sum their values, a run's terms materialize in an accumulator only
// when its non-target coordinates change under the same output row, and
// the row flushes only when the output-mode index changes, so lock
// traffic scales with the mode's fiber-run count, not with nnz.
//
// The walker depends on the tensor and the host. The generic walker
// (runRange) re-extracts only the modes whose key bytes changed
// (Encoding.Step). Narrow order-3 tensors walk 512-key tiles in Go
// (runRange3), each extracted into three index columns by one
// Encoding.extract3Tile call: pext on BMI2 hosts, the byte tables
// elsewhere. On hosts with BMI2, AVX2 and FMA, the lock-free strategies
// walk each tile in one assembly call (walk3Tile) that runs the whole run
// state machine; every walker rounds the same operations in the same
// order, so their outputs are bitwise equal.
type Operator struct {
	t    *Tensor
	rank int

	conf   *mttkrp.Conflicts // privatized windows: the rows each task's range touches
	bounds []int             // contiguous nonzero ranges, len tasks+1

	kernels []taskKernel // per-task tile workspaces
	// tile selects walk3Tile for the lock-free strategies: a narrow
	// order-3 tensor with BMI2 keys (Enc.native) on a build whose dense
	// kernels are the AVX2+FMA set, whose rounding walk3Tile repeats.
	tile bool

	// Staged operands of the in-flight Apply; runBody is built once so no
	// closure is materialized per call.
	curMode    int
	curFactors []*dense.Matrix
	runBody    func(tid int)
}

// taskKernel is one task's persistent kernel workspace.
type taskKernel struct {
	cur   []uint64  // incremental walker state: current coordinate per mode
	acc   []float64 // output-row accumulator (rank)
	hprod []float64 // cached non-target Hadamard product (rank)

	// Flush target of the in-flight Apply (mttkrp.Conflicts.Target): row
	// r accumulates into out[(r-base)·rank:], the task's privatized window
	// under StrategyPrivatize and the output otherwise.
	out  []float64
	base int

	// Tile buffers of the order-3 Go walker: extract3Tile delinearizes
	// tileN keys per call into them. Allocated only for narrow order-3
	// tensors.
	idxT, idxA, idxB []uint32

	walk tileWalk // walk3Tile's state, when Operator.tile
}

// tileN is the nonzeros per tile of the order-3 walkers: large enough to
// amortize a tile's call, small enough that the three uint32 index
// buffers (3×4·tileN = 6 KiB) stay L1-resident and that a walk3Tile call,
// which the scheduler cannot preempt, stays short.
const tileN = 512

// tileWalk is one task's state of the lock-free order-3 tile walk.
// walk3Tile (pext_amd64.s) reads and writes its fields at their go_asm.h
// offsets. The operands are set once per Apply; the run state carries
// from one tile call to the next.
type tileWalk struct {
	mT, mA, mB uint64    // pext masks: output mode, the two other modes
	fa, fb     []float64 // factor data of the two other modes
	out        []float64 // flat output window: row r at (r-base)·rank
	base       int
	rank       int
	acc        []float64 // the output row's materialized terms, while accUsed

	key     uint64  // the current run's key
	vpend   float64 // its summed values, not yet multiplied in
	accUsed bool    // acc holds terms of key's output row
}

// NewOperator builds an operator for the given ALTO tensor. rank is the
// decomposition rank R; team may be nil for serial execution. Workspace
// buffers are drawn from opts.Arena when the engine provides one.
func NewOperator(t *Tensor, team *parallel.Team, rank int, opts mttkrp.Options) *Operator {
	o := &Operator{t: t, rank: rank}
	tasks := team.N()
	o.bounds = make([]int, tasks+1)
	for tid := 0; tid < tasks; tid++ {
		begin, _ := parallel.Partition(t.NNZ(), tasks, tid)
		o.bounds[tid] = begin
	}
	o.bounds[tasks] = t.NNZ()

	// Sorted keys make each task's range touch only a window of every
	// mode's rows; the privatized buffers cover just those windows.
	order := t.Order()
	lo, hi := make([][]int, tasks), make([][]int, tasks)
	for tid := range lo {
		lo[tid], hi[tid] = make([]int, order), make([]int, order)
		t.Window(o.bounds[tid], o.bounds[tid+1], lo[tid], hi[tid])
	}
	o.conf = mttkrp.NewConflicts(team, opts, rank, lo, hi)

	arena := opts.Arena
	if arena == nil || arena.Tasks() < tasks {
		arena = parallel.NewArena(tasks)
	}
	narrow3 := order == 3 && t.Hi == nil
	o.tile = narrow3 && t.Enc.native && dense.Native()
	o.kernels = make([]taskKernel, tasks)
	for tid := range o.kernels {
		ta := arena.Task(tid)
		k := &o.kernels[tid]
		k.cur = make([]uint64, order)
		k.acc = ta.F64(rank)
		k.hprod = ta.F64(rank)
		if narrow3 {
			k.idxT = make([]uint32, tileN)
			k.idxA = make([]uint32, tileN)
			k.idxB = make([]uint32, tileN)
		}
	}
	o.runBody = func(tid int) {
		begin, end := o.bounds[tid], o.bounds[tid+1]
		if begin >= end {
			return
		}
		k := &o.kernels[tid]
		k.out, k.base = o.conf.Target(tid)
		switch {
		case o.tile && o.conf.LastStrategy() != mttkrp.StrategyLock:
			o.runRange3Tiles(tid, begin, end)
		case narrow3:
			o.runRange3(tid, begin, end)
		default:
			o.runRange(tid, begin, end)
		}
	}
	return o
}

// LastStrategy reports the conflict strategy used by the most recent Apply.
func (o *Operator) LastStrategy() mttkrp.ConflictStrategy { return o.conf.LastStrategy() }

// StrategyFor reports the conflict strategy Apply would use for a mode.
//
// The automatic decision adapts SPLATT's lock-vs-privatize rule to the
// linearized layout on both sides. The privatized cost is the sum of the
// tasks' row windows, the rows their buffers zero and the reduction adds,
// not I_m × tasks. The lock cost is runs(m), since a row flushes once
// per fiber run, not once per nonzero. A mode with high fiber reuse
// (runs ≪ nnz) therefore leans toward locks, which it acquires rarely;
// a mode whose windows are narrow leans toward privatizing. With no root
// mode, any mode's row can straddle two tasks' nonzero ranges, and tiling
// is a CSF-tree phase schedule the linearized layout has no tiles for, so
// a forced none or tile locks.
func (o *Operator) StrategyFor(mode int) mttkrp.ConflictStrategy {
	return o.conf.Strategy(mode, int(o.t.Runs(mode)), false)
}

// WindowRows reports the rows mode's privatized buffers span: the sum over
// tasks of the window of rows each task's nonzero range touches.
func (o *Operator) WindowRows(mode int) int { return o.conf.WindowRows(mode) }

// Apply computes out = MTTKRP(tensor, factors, mode). out must be
// Dims[mode]×rank and is overwritten.
func (o *Operator) Apply(mode int, factors []*dense.Matrix, out *dense.Matrix) {
	dims := o.t.Enc.Dims
	if out.Rows != dims[mode] || out.Cols != o.rank {
		panic(fmt.Sprintf("alto: output %dx%d, want %dx%d",
			out.Rows, out.Cols, dims[mode], o.rank))
	}
	o.curMode, o.curFactors = mode, factors
	o.conf.Run(mode, o.StrategyFor(mode), out, o.runBody)
	o.curFactors = nil
}

// row is output row id's slot in the task's flush target. Flushes take
// the row's lock stripe around it (a no-op unless the MTTKRP locks).
func (k *taskKernel) row(id, rank int) []float64 {
	off := (id - k.base) * rank
	return k.out[off : off+rank]
}

// flush commits the accumulated output row and clears the accumulator.
func (o *Operator) flush(k *taskKernel, row sptensor.Index, acc []float64) {
	id := int(row)
	o.conf.Lock(id)
	dense.VecAdd(k.row(id, o.rank), acc)
	o.conf.Unlock(id)
	dense.VecZero(acc)
}

// runRange is the kernel body for one task's contiguous nonzero range: walk
// the sorted keys with the incremental byte-table delinearizer (Step),
// reuse the non-target Hadamard product across nonzeros whose non-target
// coordinates are unchanged, and flush the accumulator on output-row
// change.
func (o *Operator) runRange(tid, begin, end int) {
	enc := o.t.Enc
	mode := o.curMode
	factors := o.curFactors
	lo, hiArr, vals := o.t.Lo, o.t.Hi, o.t.Vals
	k := &o.kernels[tid]
	cur, acc, hprod := k.cur, k.acc, k.hprod

	// Modes other than the target: a change there invalidates hprod.
	// Mask bits are exact for modes 0..30; every mode >= 31 folds onto
	// bit 31, so bit 31 may only be cleared when the target is a low mode
	// that owns its bit exclusively — for a target mode >= 31 the bit also
	// carries other modes' changes and must stay in otherMask (the check
	// degrades to an always-recompute, never to a stale reuse).
	otherMask := ^uint32(0)
	if mode < 31 {
		otherMask &^= 1 << uint(mode)
	}

	prevLo := lo[begin]
	var prevHi uint64
	if hiArr != nil {
		prevHi = hiArr[begin]
	}
	enc.ExtractAll(prevLo, prevHi, cur)
	curRow := sptensor.Index(cur[mode])
	o.hadamard(mode, factors, cur, hprod)
	dense.VecAxpy(acc, hprod, vals[begin])

	for x := begin + 1; x < end; x++ {
		curLo := lo[x]
		var curHi uint64
		if hiArr != nil {
			curHi = hiArr[x]
		}
		mask := enc.Step(prevLo, prevHi, curLo, curHi, cur)
		prevLo, prevHi = curLo, curHi
		if row := sptensor.Index(cur[mode]); row != curRow {
			o.flush(k, curRow, acc)
			curRow = row
		}
		if mask&otherMask != 0 {
			o.hadamard(mode, factors, cur, hprod)
		}
		dense.VecAxpy(acc, hprod, vals[x])
	}
	o.flush(k, curRow, acc)
}

// runRange3 is the 3rd-order narrow-encoding specialization of runRange:
// it delinearizes tileN keys at a time (extract3Tile) into L1-resident
// index buffers, then drives the lazy-run accumulation off plain value
// compares. Equal keys sum their values; a run's pending value
// materializes in the accumulator only when the non-target coordinates
// change under the same output row, and flushes straight from the factor
// rows with the fused scaled-Hadamard kernels (dst (+)= v·(ra⊙rb)),
// through flushRunRows, one dispatched call per nonzero on a tensor whose
// runs are single nonzeros. It runs StrategyLock, whose flushes take pool
// locks, and every strategy on hosts without BMI2 or without the AVX2+FMA
// kernels; the lock-free strategies otherwise walk the same tiles in
// runRange3Tiles.
func (o *Operator) runRange3(tid, begin, end int) {
	enc := o.t.Enc
	mode := o.curMode
	factors := o.curFactors
	lo, vals := o.t.Lo, o.t.Vals
	k := &o.kernels[tid]
	acc := k.acc
	idxT, idxA, idxB := k.idxT, k.idxA, k.idxB

	ma, mb := otherModes(mode)
	fa, fb := factors[ma], factors[mb]

	var curT, curA, curB uint32
	var vpend float64
	accUsed := false
	for base := begin; base < end; base += tileN {
		n := min(end-base, tileN)
		enc.extract3Tile(lo[base:base+n], mode, ma, mb, idxT, idxA, idxB)
		x := 0
		if base == begin {
			curT, curA, curB = idxT[0], idxA[0], idxB[0]
			vpend = vals[base]
			x = 1
		}
		for ; x < n; x++ {
			nT, nA, nB := idxT[x], idxA[x], idxB[x]
			if nT == curT {
				if nA == curA && nB == curB {
					// Merged keys share row and Hadamard coordinates.
					vpend += vals[base+x]
					continue
				}
				// Same row, new coordinates: materialize the pending value
				// into the accumulator under the OLD rows.
				ra, rb := fa.Row(int(curA)), fb.Row(int(curB))
				if accUsed {
					dense.VecMulAxpy(acc, ra, rb, vpend)
				} else {
					dense.VecMulScaleSet(acc, ra, rb, vpend)
					accUsed = true
				}
				curA, curB = nA, nB
				vpend = vals[base+x]
				continue
			}
			// Row change: flush the finished run.
			o.flushRunRows(k, sptensor.Index(curT), acc, fa.Row(int(curA)), fb.Row(int(curB)), vpend, accUsed)
			accUsed = false
			curT, curA, curB = nT, nA, nB
			vpend = vals[base+x]
		}
	}
	o.flushRunRows(k, sptensor.Index(curT), acc, fa.Row(int(curA)), fb.Row(int(curB)), vpend, accUsed)
}

// runRange3Tiles is runRange3 for the lock-free strategies on hosts with
// BMI2, AVX2 and FMA: one walk3Tile call per tile of tileN keys runs the
// whole run state machine in assembly, writing row flushes into one flat
// array (the task's privatized window, or the output itself under
// StrategyNone), so a nonzero costs no Go-side branch and no dispatched
// kernel call. It extracts no coordinates up front: a key's XOR with the
// run's key, masked by each mode's pext mask, tells which coordinates
// changed, and pext extracts the finished run's rows only when it
// flushes or materializes. Every floating-point operation is the one the
// other walkers perform with the dense kernels, in the same order, so the
// output is bitwise theirs.
func (o *Operator) runRange3Tiles(tid, begin, end int) {
	enc := o.t.Enc
	mode := o.curMode
	ma, mb := otherModes(mode)
	fa, fb := o.curFactors[ma], o.curFactors[mb]
	lo, vals := o.t.Lo, o.t.Vals
	k := &o.kernels[tid]
	w := &k.walk
	w.mT, w.mA, w.mB = enc.pextMasks[3*mode], enc.pextMasks[3*ma], enc.pextMasks[3*mb]
	w.fa, w.fb, w.rank, w.acc = fa.Data, fb.Data, o.rank, k.acc
	w.out, w.base = k.out, k.base
	w.key, w.vpend, w.accUsed = lo[begin], vals[begin], false
	for base := begin + 1; base < end; base += tileN {
		n := min(end-base, tileN)
		walk3Tile(w, lo[base:base+n], vals[base:base+n])
	}
	cur := k.cur
	enc.ExtractAll(w.key, 0, cur)
	o.flushRunRows(k, sptensor.Index(cur[mode]), k.acc, fa.Row(int(cur[ma])), fb.Row(int(cur[mb])), w.vpend, w.accUsed)
	w.fa, w.fb, w.out = nil, nil, nil
}

// otherModes returns the two modes of an order-3 tensor other than mode,
// in ascending order.
func otherModes(mode int) (ma, mb int) {
	switch mode {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	}
	return 0, 1
}

// flushRunRows commits one output row's run of the order-3 walkers: the
// materialized accumulator (if any) plus the pending value, flushed
// directly from the factor rows via the fused scaled-Hadamard kernel. The
// walkers leave acc as it is: with accUsed false their next
// materialization overwrites it.
func (o *Operator) flushRunRows(k *taskKernel, row sptensor.Index, acc, ra, rb []float64,
	vpend float64, accUsed bool) {

	id := int(row)
	o.conf.Lock(id)
	target := k.row(id, o.rank)
	if accUsed {
		dense.VecAdd(target, acc)
	}
	dense.VecMulAxpy(target, ra, rb, vpend)
	o.conf.Unlock(id)
}

// hadamard recomputes the cached Hadamard product of the non-target factor
// rows at the walker's current coordinates.
func (o *Operator) hadamard(mode int, factors []*dense.Matrix, cur []uint64, hprod []float64) {
	first := true
	for m := range cur {
		if m == mode {
			continue
		}
		fr := factors[m].Row(int(cur[m]))
		if first {
			copy(hprod, fr)
			first = false
		} else {
			dense.VecMul(hprod, fr)
		}
	}
	if first { // order-1 degenerate: empty product
		for j := range hprod {
			hprod[j] = 1
		}
	}
}
