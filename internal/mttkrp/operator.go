package mttkrp

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Operator performs MTTKRPs for every mode of a tensor over its CSF set,
// owning its output-conflict layer (Conflicts) and per-CSF load-balanced
// slice partitions. One Operator is built per CP-ALS run and reused across
// all iterations, as SPLATT reuses its thread and lock structures.
//
// All per-task kernel scratch (accumulators, walker buffers, sinks) and
// the parallel-region bodies are allocated once here, so steady-state
// Apply calls allocate nothing: the per-call operands are staged in fields
// before the long-lived body is dispatched across the team.
type Operator struct {
	set  *csf.Set
	team *parallel.Team
	opts Options
	rank int

	conf   *Conflicts
	bounds [][]int // per CSF: slice partition bounds (len tasks+1)

	// tilings caches tile schedules per (CSF, level), built on first use
	// when the tile strategy is selected.
	tilings map[[2]int]*tiledLayout

	// Per-task kernel scratch, allocated once (from Options.Arena when the
	// engine shares one).
	acc     [][]float64 // rank-length accumulators
	tmp     [][]float64 // rank-length secondary scratch
	walkers []*nWalker  // reusable arbitrary-order walkers
	dSinks  []directSink
	lSinks  []lockSink
	pSinks  []privSink

	// Staged operands of the in-flight Apply; the bodies are built once in
	// NewOperator so no closure is materialized per call.
	curCSF     *csf.CSF
	curLevel   int
	curFactors []*dense.Matrix
	curOut     *dense.Matrix
	curBounds  []int
	curLayout  *tiledLayout
	runBody    func(tid int)
	tileBody   func(tid int)
}

// NewOperator builds an operator for the given CSF set. rank is the
// decomposition rank R; team may be nil for serial execution.
func NewOperator(set *csf.Set, team *parallel.Team, rank int, opts Options) *Operator {
	o := &Operator{set: set, team: team, opts: opts, rank: rank}
	tasks := team.N()
	// A slice partition bounds no mode's rows, so every task's privatized
	// window is the whole mode.
	lo, hi := WholeModes(set.CSFs[0].Dims, tasks)
	o.conf = NewConflicts(team, opts, rank, lo, hi)
	o.bounds = make([][]int, len(set.CSFs))
	for i, c := range set.CSFs {
		o.bounds[i] = parallel.PartitionByWeight(c.SliceWeights(), tasks)
	}
	o.tilings = make(map[[2]int]*tiledLayout)

	arena := opts.Arena
	if arena == nil || arena.Tasks() < tasks {
		arena = parallel.NewArena(tasks)
	}
	o.acc = make([][]float64, tasks)
	o.tmp = make([][]float64, tasks)
	for tid := 0; tid < tasks; tid++ {
		ta := arena.Task(tid)
		o.acc[tid] = ta.F64(rank)
		o.tmp[tid] = ta.F64(rank)
	}
	o.walkers = make([]*nWalker, tasks)
	o.dSinks = make([]directSink, tasks)
	o.lSinks = make([]lockSink, tasks)
	o.pSinks = make([]privSink, tasks)

	o.runBody = func(tid int) {
		bounds := o.curBounds
		begin, end := bounds[tid], bounds[tid+1]
		if begin >= end {
			return
		}
		// The kernels read the target only as a privatized buffer, whose
		// CSF window starts at row 0.
		priv, _ := o.conf.Target(tid)
		o.runKernel(o.curCSF, o.curLevel, o.curFactors, o.curOut, o.conf.LastStrategy(), priv, tid, begin, end)
	}
	o.tileBody = func(tid int) {
		c, layout := o.curCSF, o.curLayout
		aRoot := o.curFactors[c.ModeOrder[0]]
		aMid := o.curFactors[c.ModeOrder[1]]
		aLeaf := o.curFactors[c.ModeOrder[2]]
		if o.curLevel == 1 {
			runInternalTiled(c, layout, aRoot, aLeaf, o.curOut, o.acc[tid], tid, o.team.Barrier)
		} else {
			runLeafTiled(c, layout, aRoot, aMid, o.curOut, o.acc[tid], tid, o.team.Barrier)
		}
	}
	return o
}

// LastStrategy reports the conflict strategy used by the most recent Apply.
func (o *Operator) LastStrategy() ConflictStrategy { return o.conf.LastStrategy() }

// StrategyFor reports the conflict strategy Apply would use for a mode —
// the lock-vs-privatize decision of §V-D made observable. A root mode's
// task owns its output rows and writes them directly; every other mode
// flushes once per nonzero, and has a tile schedule on 3rd-order tensors.
func (o *Operator) StrategyFor(mode int) ConflictStrategy {
	c, level := o.set.For(mode)
	if level == 0 {
		return StrategyNone
	}
	return o.conf.Strategy(mode, c.NNZ(), c.Order() == 3)
}

// Apply computes out = MTTKRP(tensor, factors, mode): the matricized
// tensor (unfolded along `mode`) times the Khatri-Rao product of the other
// factor matrices. out must be Dims[mode]×rank and is overwritten.
func (o *Operator) Apply(mode int, factors []*dense.Matrix, out *dense.Matrix) {
	c, level := o.set.For(mode)
	if out.Rows != c.Dims[mode] || out.Cols != o.rank {
		panic(fmt.Sprintf("mttkrp: output %dx%d, want %dx%d",
			out.Rows, out.Cols, c.Dims[mode], o.rank))
	}
	// The fiber gathers index the factors' flat data with no bounds check.
	for m, f := range factors {
		if m != mode && (f.Rows < c.Dims[m] || f.Cols != o.rank) {
			panic(fmt.Sprintf("mttkrp: factor %d is %dx%d, want %dx%d",
				m, f.Rows, f.Cols, c.Dims[m], o.rank))
		}
	}
	strategy := o.StrategyFor(mode)
	csfIdx := o.set.Assign[mode].CSF
	o.curCSF, o.curLevel = c, level
	o.curFactors, o.curOut = factors, out
	o.curBounds = o.bounds[csfIdx]
	body := o.runBody
	if strategy == StrategyTile {
		o.curLayout = o.tiling(c, level, csfIdx)
		body = o.tileBody
	}
	o.conf.Run(mode, strategy, out, body)
	o.curFactors, o.curOut, o.curLayout = nil, nil, nil
}

// tiling returns the tile-phased lock-free schedule of a CSF level, built
// on first use. Every task joins every phase barrier, including tasks
// with no work in a phase.
func (o *Operator) tiling(c *csf.CSF, level, csfIdx int) *tiledLayout {
	key := [2]int{csfIdx, level}
	layout, ok := o.tilings[key]
	if !ok {
		switch level {
		case 1:
			layout = buildInternalTiling(c, o.bounds[csfIdx], o.team.N())
		case 2:
			layout = buildLeafTiling(c, o.bounds[csfIdx], o.team.N())
		default:
			panic(fmt.Sprintf("mttkrp: tiling at level %d", level))
		}
		o.tilings[key] = layout
	}
	return layout
}

// sinkFor stages and returns task tid's persistent sink for the strategy
// (pointer-backed, so the interface conversion never allocates); priv is
// the task's privatized buffer.
func (o *Operator) sinkFor(level int, strategy ConflictStrategy, out *dense.Matrix, priv []float64, tid int) rowSink {
	switch {
	case level == 0 || strategy == StrategyNone:
		o.dSinks[tid] = newDirectSink(out)
		return &o.dSinks[tid]
	case strategy == StrategyLock:
		o.lSinks[tid] = newLockSink(out, o.conf.pool)
		return &o.lSinks[tid]
	default:
		o.pSinks[tid] = newPrivSink(priv, o.rank)
		return &o.pSinks[tid]
	}
}

// runKernel dispatches one task's slice range to the right kernel body;
// priv is the task's privatized buffer under StrategyPrivatize.
func (o *Operator) runKernel(c *csf.CSF, level int, factors []*dense.Matrix,
	out *dense.Matrix, strategy ConflictStrategy, priv []float64, tid, begin, end int) {

	if c.Order() == 3 {
		o.run3(c, level, factors, out, strategy, priv, tid, begin, end)
		return
	}
	// Arbitrary-order generic walker (pointer access only; the paper's
	// access study is 3rd-order).
	sink := o.sinkFor(level, strategy, out, priv, tid)
	w := o.walkers[tid]
	if w == nil {
		w = newNWalker(c.Order(), o.rank)
		o.walkers[tid] = w
	}
	w.reset(c, level, factors, sink)
	w.run(begin, end)
}

// run3 dispatches the 3rd-order fast paths across the access-mode and
// conflict-strategy axes.
func (o *Operator) run3(c *csf.CSF, level int, factors []*dense.Matrix,
	out *dense.Matrix, strategy ConflictStrategy, priv []float64, tid, begin, end int) {

	aRoot := factors[c.ModeOrder[0]]
	aMid := factors[c.ModeOrder[1]]
	aLeaf := factors[c.ModeOrder[2]]
	acc := o.acc[tid]
	tmp := o.tmp[tid]

	if o.opts.Access == AccessReference {
		switch level {
		case 0:
			root3Ref(c, aMid, aLeaf, out, acc, begin, end)
		case 1:
			switch strategy {
			case StrategyLock:
				internal3RefLock(c, aRoot, aLeaf, out, o.conf.pool, acc, begin, end)
			case StrategyPrivatize:
				internal3RefPriv(c, aRoot, aLeaf, priv, o.rank, acc, begin, end)
			default:
				internal3RefDirect(c, aRoot, aLeaf, out, acc, begin, end)
			}
		case 2:
			switch strategy {
			case StrategyLock:
				leaf3RefLock(c, aRoot, aMid, out, o.conf.pool, acc, begin, end)
			case StrategyPrivatize:
				leaf3RefPriv(c, aRoot, aMid, priv, o.rank, acc, begin, end)
			default:
				leaf3RefDirect(c, aRoot, aMid, out, acc, begin, end)
			}
		}
		return
	}

	switch o.opts.Access {
	case AccessPointer:
		run3Port(o, c, level, newPtrAccess(aRoot), newPtrAccess(aMid), newPtrAccess(aLeaf),
			out, strategy, priv, acc, tmp, begin, end)
	case AccessIndex2D:
		run3Port(o, c, level, newIdx2DAccess(aRoot), newIdx2DAccess(aMid), newIdx2DAccess(aLeaf),
			out, strategy, priv, acc, tmp, begin, end)
	case AccessSlice:
		run3Port(o, c, level, newSliceAccess(aRoot), newSliceAccess(aMid), newSliceAccess(aLeaf),
			out, strategy, priv, acc, tmp, begin, end)
	default:
		panic(fmt.Sprintf("mttkrp: unknown access mode %v", o.opts.Access))
	}
}

// run3Port instantiates the port kernels for one accessor type.
func run3Port[A accessor](o *Operator, c *csf.CSF, level int, aRoot, aMid, aLeaf A,
	out *dense.Matrix, strategy ConflictStrategy, priv, acc, tmp []float64, begin, end int) {

	switch level {
	case 0:
		root3Port(c, aMid, aLeaf, out, acc, begin, end)
	case 1:
		switch strategy {
		case StrategyLock:
			internal3Port(c, aRoot, aLeaf, newLockSink(out, o.conf.pool), acc, begin, end)
		case StrategyPrivatize:
			internal3Port(c, aRoot, aLeaf, newPrivSink(priv, o.rank), acc, begin, end)
		default:
			internal3Port(c, aRoot, aLeaf, newDirectSink(out), acc, begin, end)
		}
	case 2:
		switch strategy {
		case StrategyLock:
			leaf3Port(c, aRoot, aMid, newLockSink(out, o.conf.pool), acc, tmp, begin, end)
		case StrategyPrivatize:
			leaf3Port(c, aRoot, aMid, newPrivSink(priv, o.rank), acc, tmp, begin, end)
		default:
			leaf3Port(c, aRoot, aMid, newDirectSink(out), acc, tmp, begin, end)
		}
	}
}

// COOParallel computes the MTTKRP directly from coordinates in parallel,
// guarding scattered output rows with a mutex pool. It is the structured
// baseline the CSF kernels are compared against in the ablation benches
// (CSF's fiber reuse vs. raw coordinate streaming).
func COOParallel(t *sptensor.Tensor, factors []*dense.Matrix, mode int,
	out *dense.Matrix, team *parallel.Team, pool locks.Pool) {

	out.Zero()
	rank := out.Cols
	parallel.ForBlocks(team, t.NNZ(), func(_, begin, end int) {
		acc := make([]float64, rank)
		for x := begin; x < end; x++ {
			for i := range acc {
				acc[i] = t.Vals[x]
			}
			for m := range t.Inds {
				if m == mode {
					continue
				}
				dense.VecMul(acc, factors[m].Row(int(t.Inds[m][x])))
			}
			row := int(t.Inds[mode][x])
			pool.Lock(row)
			dense.VecAdd(out.Row(row), acc)
			pool.Unlock(row)
		}
	})
}
