package mttkrp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/parallel"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// The fiber loops as they were before dense.GatherAxpy: one dispatched
// VecAxpy per nonzero into the fiber accumulator. They are kept verbatim
// as the reference TestOperatorMatchesPerNonzeroLoops holds the gather
// kernels to. applyLoop runs them under the operator's own partition,
// conflict layer, tile schedule and leaf-mode kernels, so the two sides
// differ in the fiber loops alone.

func root3RefLoop(c *csf.CSF, mid, leaf, out *dense.Matrix, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	mdat, ldat, odat := mid.Data, leaf.Data, out.Data
	r := out.Cols
	for s := begin; s < end; s++ {
		orowOff := int(fidsS[s]) * r
		orow := odat[orowOff : orowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				lrowOff := int(fidsN[x]) * r
				dense.VecAxpy(acc, ldat[lrowOff:lrowOff+r], vals[x])
			}
			mrowOff := int(fidsF[f]) * r
			dense.VecMulAdd(orow, acc, mdat[mrowOff:mrowOff+r])
		}
	}
}

func internal3RefDirectLoop(c *csf.CSF, root, leaf, out *dense.Matrix, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, ldat, odat := root.Data, leaf.Data, out.Data
	r := out.Cols
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				lrowOff := int(fidsN[x]) * r
				dense.VecAxpy(acc, ldat[lrowOff:lrowOff+r], vals[x])
			}
			orowOff := int(fidsF[f]) * r
			dense.VecMulAdd(odat[orowOff:orowOff+r], acc, rrow)
		}
	}
}

func internal3RefLockLoop(c *csf.CSF, root, leaf, out *dense.Matrix, pool locks.Pool, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, ldat, odat := root.Data, leaf.Data, out.Data
	r := out.Cols
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				lrowOff := int(fidsN[x]) * r
				dense.VecAxpy(acc, ldat[lrowOff:lrowOff+r], vals[x])
			}
			row := int(fidsF[f])
			orow := odat[row*r : row*r+r]
			pool.Lock(row)
			dense.VecMulAdd(orow, acc, rrow)
			pool.Unlock(row)
		}
	}
}

func internal3RefPrivLoop(c *csf.CSF, root, leaf *dense.Matrix, buf []float64, rank int, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, ldat := root.Data, leaf.Data
	r := rank
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				lrowOff := int(fidsN[x]) * r
				dense.VecAxpy(acc, ldat[lrowOff:lrowOff+r], vals[x])
			}
			orowOff := int(fidsF[f]) * r
			dense.VecMulAdd(buf[orowOff:orowOff+r], acc, rrow)
		}
	}
}

func runInternalTiledLoop(c *csf.CSF, l *tiledLayout, root, leaf, out *dense.Matrix,
	acc []float64, tid int, barrier func()) {

	fptrF := c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, ldat, odat := root.Data, leaf.Data, out.Data
	r := out.Cols
	for phase := 0; phase < l.tasks; phase++ {
		b := (tid + phase) % l.tasks
		for _, tf := range l.fiberTiles[tid*l.tasks+b] {
			rrow := rdat[int(fidsS[tf.slice])*r : int(fidsS[tf.slice])*r+r]
			dense.VecZero(acc)
			for x := fptrF[tf.fiber]; x < fptrF[tf.fiber+1]; x++ {
				dense.VecAxpy(acc, ldat[int(fidsN[x])*r:int(fidsN[x])*r+r], vals[x])
			}
			dense.VecMulAdd(odat[int(fidsF[tf.fiber])*r:int(fidsF[tf.fiber])*r+r], acc, rrow)
		}
		barrier()
	}
}

func root3PortLoop[A accessor](c *csf.CSF, mid, leaf A, out *dense.Matrix, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	r := out.Cols
	for s := begin; s < end; s++ {
		orow := out.Data[int(fidsS[s])*r : int(fidsS[s])*r+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				dense.VecAxpy(acc, leaf.row(fidsN[x]), vals[x])
			}
			dense.VecMulAdd(orow, acc, mid.row(fidsF[f]))
		}
	}
}

func internal3PortLoop[A accessor, S rowSink](c *csf.CSF, root, leaf A, sink S, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	for s := begin; s < end; s++ {
		rrow := root.row(fidsS[s])
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				dense.VecAxpy(acc, leaf.row(fidsN[x]), vals[x])
			}
			dense.VecMul(acc, rrow)
			sink.accum(fidsF[f], acc)
		}
	}
}

// nWalkerLoop is the arbitrary-order walker with the per-nonzero up.
type nWalkerLoop struct{ *nWalker }

func (w nWalkerLoop) run(begin, end int) {
	for s := begin; s < end; s++ {
		w.down(0, int64(s), nil)
	}
}

func (w nWalkerLoop) down(l int, f int64, top []float64) {
	c := w.c
	if l == w.level {
		sub := w.up(l, f)
		id := c.Fids[l][f]
		if top == nil {
			w.sink.accum(id, sub)
			return
		}
		dense.VecMulSet(w.tmp, top, sub)
		w.sink.accum(id, w.tmp)
		return
	}
	arow := w.mats[l].Row(int(c.Fids[l][f]))
	next := w.topBuf[l]
	if top == nil {
		copy(next, arow)
	} else {
		dense.VecMulSet(next, top, arow)
	}
	if l == c.Order()-2 {
		leaf := c.Fids[c.Order()-1]
		for x := c.Fptr[l][f]; x < c.Fptr[l][f+1]; x++ {
			dense.VecScaleSet(w.tmp, next, c.Vals[x])
			w.sink.accum(leaf[x], w.tmp)
		}
		return
	}
	for child := c.Fptr[l][f]; child < c.Fptr[l][f+1]; child++ {
		w.down(l+1, child, next)
	}
}

func (w nWalkerLoop) up(l int, f int64) []float64 {
	c := w.c
	buf := w.upBuf[l]
	for i := range buf {
		buf[i] = 0
	}
	if l == c.Order()-2 {
		leaf := c.Fids[c.Order()-1]
		lmat := w.mats[c.Order()-1]
		for x := c.Fptr[l][f]; x < c.Fptr[l][f+1]; x++ {
			dense.VecAxpy(buf, lmat.Row(int(leaf[x])), c.Vals[x])
		}
		return buf
	}
	cmat := w.mats[l+1]
	cids := c.Fids[l+1]
	for child := c.Fptr[l][f]; child < c.Fptr[l][f+1]; child++ {
		sub := w.up(l+1, child)
		dense.VecMulAdd(buf, cmat.Row(int(cids[child])), sub)
	}
	return buf
}

// applyLoop is Operator.Apply with the per-nonzero fiber loops above.
func applyLoop(o *Operator, mode int, factors []*dense.Matrix, out *dense.Matrix) {
	c, level := o.set.For(mode)
	strategy := o.StrategyFor(mode)
	csfIdx := o.set.Assign[mode].CSF
	bounds := o.bounds[csfIdx]
	body := func(tid int) {
		if bounds[tid] >= bounds[tid+1] {
			return
		}
		priv, _ := o.conf.Target(tid)
		runKernelLoop(o, c, level, factors, out, strategy, priv, tid, bounds[tid], bounds[tid+1])
	}
	if strategy == StrategyTile {
		layout := o.tiling(c, level, csfIdx)
		aRoot, aMid, aLeaf := factors[c.ModeOrder[0]], factors[c.ModeOrder[1]], factors[c.ModeOrder[2]]
		body = func(tid int) {
			if level == 1 {
				runInternalTiledLoop(c, layout, aRoot, aLeaf, out, make([]float64, o.rank), tid, o.team.Barrier)
			} else {
				runLeafTiled(c, layout, aRoot, aMid, out, make([]float64, o.rank), tid, o.team.Barrier)
			}
		}
	}
	o.conf.Run(mode, strategy, out, body)
}

// runKernelLoop is runKernel and run3 with the per-nonzero loops; the
// leaf-mode kernels are the operator's.
func runKernelLoop(o *Operator, c *csf.CSF, level int, factors []*dense.Matrix,
	out *dense.Matrix, strategy ConflictStrategy, priv []float64, tid, begin, end int) {

	if c.Order() != 3 {
		w := nWalkerLoop{newNWalker(c.Order(), o.rank)}
		w.reset(c, level, factors, o.sinkFor(level, strategy, out, priv, tid))
		w.run(begin, end)
		return
	}
	if level == 2 {
		o.run3(c, level, factors, out, strategy, priv, tid, begin, end)
		return
	}
	aRoot, aMid, aLeaf := factors[c.ModeOrder[0]], factors[c.ModeOrder[1]], factors[c.ModeOrder[2]]
	acc := make([]float64, o.rank)
	switch o.opts.Access {
	case AccessReference:
		switch {
		case level == 0:
			root3RefLoop(c, aMid, aLeaf, out, acc, begin, end)
		case strategy == StrategyLock:
			internal3RefLockLoop(c, aRoot, aLeaf, out, o.conf.pool, acc, begin, end)
		case strategy == StrategyPrivatize:
			internal3RefPrivLoop(c, aRoot, aLeaf, priv, o.rank, acc, begin, end)
		default:
			internal3RefDirectLoop(c, aRoot, aLeaf, out, acc, begin, end)
		}
	case AccessPointer:
		run3PortLoop(o, c, level, newPtrAccess(aRoot), newPtrAccess(aMid), newPtrAccess(aLeaf), out, strategy, priv, acc, begin, end)
	case AccessIndex2D:
		run3PortLoop(o, c, level, newIdx2DAccess(aRoot), newIdx2DAccess(aMid), newIdx2DAccess(aLeaf), out, strategy, priv, acc, begin, end)
	case AccessSlice:
		run3PortLoop(o, c, level, newSliceAccess(aRoot), newSliceAccess(aMid), newSliceAccess(aLeaf), out, strategy, priv, acc, begin, end)
	}
}

func run3PortLoop[A accessor](o *Operator, c *csf.CSF, level int, aRoot, aMid, aLeaf A,
	out *dense.Matrix, strategy ConflictStrategy, priv, acc []float64, begin, end int) {

	switch {
	case level == 0:
		root3PortLoop(c, aMid, aLeaf, out, acc, begin, end)
	case strategy == StrategyLock:
		internal3PortLoop(c, aRoot, aLeaf, newLockSink(out, o.conf.pool), acc, begin, end)
	case strategy == StrategyPrivatize:
		internal3PortLoop(c, aRoot, aLeaf, newPrivSink(priv, o.rank), acc, begin, end)
	default:
		internal3PortLoop(c, aRoot, aLeaf, newDirectSink(out), acc, begin, end)
	}
}

// TestOperatorMatchesPerNonzeroLoops pins the gather kernels to the
// per-nonzero loops they replaced: Apply must equal applyLoop bit for bit
// for every access mode, forced strategy, alloc policy, team of 1-3 tasks
// and rank, on a 3rd-order tensor (root, internal and tiled kernels) and
// a 4th-order one (the walker's up). Ranks 1, 3, 4, 15, 16, 17 and 35
// reach every column block of the AVX2 gather and its masked tail. A lock
// at tasks > 1 adds rows in arrival order, so there the two agree within
// 1e-12 of the largest entry.
func TestOperatorMatchesPerNonzeroLoops(t *testing.T) {
	tensors := []*sptensor.Tensor{
		sptensor.Random([]int{30, 20, 40}, 1500, 61),
		sptensor.Random([]int{10, 12, 9, 11}, 1200, 62),
	}
	accesses := []AccessMode{AccessReference, AccessPointer, AccessIndex2D, AccessSlice}
	strategies := []ConflictStrategy{StrategyNone, StrategyLock, StrategyPrivatize, StrategyTile}
	for _, tt := range tensors {
		for _, alloc := range []csf.AllocPolicy{csf.AllocOne, csf.AllocTwo, csf.AllocAll} {
			for tasks := 1; tasks <= 3; tasks++ {
				team := parallel.NewTeam(tasks)
				set := csf.NewSet(tt, alloc, team, tsort.AllOpt)
				for _, rank := range []int{1, 3, 4, 15, 16, 17, 35} {
					factors := randomFactors(tt.Dims, rank, int64(70+rank))
					for _, access := range accesses {
						for _, strategy := range strategies {
							op := NewOperator(set, team, rank, Options{Access: access, Strategy: strategy, LockKind: locks.Spin})
							for mode := 0; mode < tt.NModes(); mode++ {
								got := dense.NewMatrix(tt.Dims[mode], rank)
								want := dense.NewMatrix(tt.Dims[mode], rank)
								op.Apply(mode, factors, got)
								applyLoop(op, mode, factors, want)
								name := fmt.Sprintf("order=%d alloc=%v tasks=%d rank=%d access=%v strategy=%v mode=%d (ran %v)",
									tt.NModes(), alloc, tasks, rank, access, strategy, mode, op.LastStrategy())
								checkSameOrArrivalOrder(t, name, got, want, op.LastStrategy() == StrategyLock && tasks > 1)
							}
						}
					}
				}
				team.Close()
			}
		}
	}
}

// checkSameOrArrivalOrder requires got to equal want bit for bit, or, for
// a locked run whose rows add in arrival order, within 1e-12 of the
// largest entry.
func checkSameOrArrivalOrder(t *testing.T, name string, got, want *dense.Matrix, arrival bool) {
	t.Helper()
	if arrival {
		largest := 0.0
		for i := range want.Data {
			largest = math.Max(largest, math.Abs(want.Data[i]))
		}
		if d := got.MaxAbsDiff(want); d > 1e-12*largest {
			t.Errorf("%s: differs from the per-nonzero loops by %g (largest |entry| %g)", name, d, largest)
		}
		return
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Errorf("%s: entry %d is %v, the per-nonzero loops give %v", name, i, got.Data[i], want.Data[i])
			return
		}
	}
}
