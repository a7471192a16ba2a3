package mttkrp

import (
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/sptensor"
)

// Mode tiling: the conflict strategy SPLATT supports that the paper's port
// omitted ("SPLATT's optional feature to tile the modes of a tensor was
// omitted from our port", §V-A) and named as future work (§VII). This file
// implements it for 3rd-order tensors as the repository's extension.
//
// Idea: partition the output-mode index space into T contiguous blocks
// (T = task count) and group each task's work items by the block they
// write. Execution proceeds in T phases separated by a team barrier; in
// phase p, task t processes only its items writing block (t+p) mod T.
// Distinct tasks write distinct blocks in every phase, so updates need no
// locks and no private buffers — at the cost of T barriers and, for leaf
// tiling, splitting fibers into per-block segments (fprod recompute).
//
// Internal-mode tiling groups whole fibers (each fiber writes exactly one
// output row). Leaf-mode tiling splits each fiber's nonzeros into runs per
// leaf block — runs are contiguous because CSF keeps a fiber's nonzeros
// sorted by leaf index.

// tiledLayout is the precomputed schedule for one (CSF, level, T) triple.
type tiledLayout struct {
	tasks int
	// internal-mode tiling: fibers[t*tasks+b] lists the fibers owned by
	// root-block t that write output block b. fiberSlice[i] is the
	// level-0 slice (index into Fids[0]) each listed fiber belongs to,
	// parallel to fibers' flattened order per tile.
	fiberTiles [][]tiledFiber
	// leaf-mode tiling: segTiles[t*tasks+b] lists nonzero runs owned by
	// root-block t that write leaf block b.
	segTiles [][]tiledSegment
}

// tiledFiber is one work item of internal-mode tiling.
type tiledFiber struct {
	slice int   // level-0 fiber (slice) index
	fiber int64 // level-1 fiber index
}

// tiledSegment is one work item of leaf-mode tiling: a contiguous nonzero
// run within a fiber, entirely inside one leaf block.
type tiledSegment struct {
	slice  int
	fiber  int64
	lo, hi int64
}

// blockBounds splits [0, n) into t contiguous blocks, returning t+1
// boundary indices.
func blockBounds(n, t int) []int {
	bounds := make([]int, t+1)
	for i := 0; i <= t; i++ {
		bounds[i] = i * n / t
	}
	return bounds
}

// blockOf locates the block containing idx given bounds from blockBounds.
func blockOf(bounds []int, idx int) int {
	lo, hi := 0, len(bounds)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if idx < bounds[mid] {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// buildInternalTiling constructs the schedule for internal-mode (level 1)
// MTTKRP of a 3rd-order CSF. rootBounds partitions the slices among tasks
// (the operator's weight-balanced bounds).
func buildInternalTiling(c *csf.CSF, rootBounds []int, tasks int) *tiledLayout {
	l := &tiledLayout{tasks: tasks, fiberTiles: make([][]tiledFiber, tasks*tasks)}
	modeLen := c.Dims[c.ModeOrder[1]]
	outBounds := blockBounds(modeLen, tasks)
	fptrS := c.Fptr[0]
	fidsF := c.Fids[1]
	for t := 0; t < tasks; t++ {
		for s := rootBounds[t]; s < rootBounds[t+1]; s++ {
			for f := fptrS[s]; f < fptrS[s+1]; f++ {
				b := blockOf(outBounds, int(fidsF[f]))
				idx := t*tasks + b
				l.fiberTiles[idx] = append(l.fiberTiles[idx], tiledFiber{slice: s, fiber: f})
			}
		}
	}
	return l
}

// buildLeafTiling constructs the schedule for leaf-mode (level 2) MTTKRP
// of a 3rd-order CSF.
func buildLeafTiling(c *csf.CSF, rootBounds []int, tasks int) *tiledLayout {
	l := &tiledLayout{tasks: tasks, segTiles: make([][]tiledSegment, tasks*tasks)}
	modeLen := c.Dims[c.ModeOrder[2]]
	outBounds := blockBounds(modeLen, tasks)
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsN := c.Fids[2]
	for t := 0; t < tasks; t++ {
		for s := rootBounds[t]; s < rootBounds[t+1]; s++ {
			for f := fptrS[s]; f < fptrS[s+1]; f++ {
				// Split the fiber's (leaf-sorted) nonzeros into per-block
				// runs.
				x := fptrF[f]
				end := fptrF[f+1]
				for x < end {
					b := blockOf(outBounds, int(fidsN[x]))
					run := x + 1
					for run < end && int(fidsN[run]) < outBounds[b+1] {
						run++
					}
					idx := t*tasks + b
					l.segTiles[idx] = append(l.segTiles[idx],
						tiledSegment{slice: s, fiber: f, lo: x, hi: run})
					x = run
				}
			}
		}
	}
	return l
}

// runInternalTiled executes task tid's phases of the internal-mode tiled
// kernel. barrier() must synchronize the whole team; every task calls this
// function (even those with no work) or the phases deadlock.
func runInternalTiled(c *csf.CSF, l *tiledLayout, root, leaf, out *dense.Matrix,
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

// runLeafTiled executes task tid's phases of the leaf-mode tiled kernel.
func runLeafTiled(c *csf.CSF, l *tiledLayout, root, mid, out *dense.Matrix,
	fprod []float64, tid int, barrier func()) {

	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, mdat, odat := root.Data, mid.Data, out.Data
	r := out.Cols
	for phase := 0; phase < l.tasks; phase++ {
		b := (tid + phase) % l.tasks
		for _, seg := range l.segTiles[tid*l.tasks+b] {
			rrow := rdat[int(fidsS[seg.slice])*r : int(fidsS[seg.slice])*r+r]
			dense.VecMulSet(fprod, rrow, mdat[int(fidsF[seg.fiber])*r:int(fidsF[seg.fiber])*r+r])
			for x := seg.lo; x < seg.hi; x++ {
				dense.VecAxpy(odat[int(fidsN[x])*r:int(fidsN[x])*r+r], fprod, vals[x])
			}
		}
		barrier()
	}
}

// tileCoverage reports, for tests, how many work-item fibers/nonzeros a
// layout schedules (must equal the CSF's fiber or nonzero count).
func (l *tiledLayout) tileCoverage() (fibers int, nonzeros int64) {
	for _, tile := range l.fiberTiles {
		fibers += len(tile)
	}
	for _, tile := range l.segTiles {
		for _, seg := range tile {
			nonzeros += seg.hi - seg.lo
		}
	}
	return fibers, nonzeros
}

// assertLeafSorted validates the precondition leaf tiling relies on: each
// fiber's nonzeros are nondecreasing in leaf index. CSF construction
// guarantees it; the check is cheap insurance used by tests.
func assertLeafSorted(c *csf.CSF) bool {
	fptrF := c.Fptr[len(c.Fptr)-1]
	leaf := c.Fids[c.Order()-1]
	for f := 0; f+1 < len(fptrF); f++ {
		var prev sptensor.Index = -1
		for x := fptrF[f]; x < fptrF[f+1]; x++ {
			if leaf[x] < prev {
				return false
			}
			prev = leaf[x]
		}
	}
	return true
}
