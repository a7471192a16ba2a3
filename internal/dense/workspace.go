package dense

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Workspace is the allocation-free execution context for the dense routines
// CP-ALS calls inside its iteration loop (Gram, column norm, normal-equation
// solve, pseudo-inverse). It owns
//
//   - per-task partial buffers carved from a parallel.Arena (SPLATT's
//     thd_info, but shared across every dense routine of the run), and
//   - pre-built parallel-region closures: the per-call operands are staged
//     in Workspace fields before Team.Run dispatches a long-lived body, so
//     no closure is materialized per call.
//
// Together these make steady-state factor updates allocate nothing — the
// per-call `make` scratch the package-level Syrk/NormalizeColumns still
// perform (for cold paths and tests) is exactly what Workspace eliminates.
// A Workspace is bound to one team and one rank; it is not safe for
// concurrent use.
type Workspace struct {
	team  *parallel.Team
	tasks int
	rank  int

	partGram [][]float64 // per-task r×r Gram partials
	partNorm [][]float64 // per-task r-length norm partials
	panel    [][]float64 // per-task blocked-solve panels (panelLen(r))
	inv      []float64   // column-scale reciprocals
	chol     *Matrix     // cached Cholesky factor (r×r)
	eigW     *Matrix     // Jacobi working copy
	eigQ     *Matrix     // eigenvectors
	eigVals  []float64
	eigInv   []float64
	pinv     *Matrix // pseudo-inverse fallback result

	// Staged operands + cached bodies for the parallel regions.
	curA      *Matrix
	curC      *Matrix
	curLambda []float64
	curKind   NormKind
	curSolve  *Matrix // matrix whose rows are solved in place
	curFactor *Matrix // chol, or pinv on the fallback
	curChol   bool

	syrkBody     func(tid int)
	normPartBody func(tid int)
	normScale    func(tid int)
	solveBody    func(tid int)
}

// NewWorkspace builds a workspace for the given team (nil = serial) and
// rank, drawing its persistent buffers from the arena's task 0 (they are
// written only inside this workspace's own regions, which never overlap).
func NewWorkspace(team *parallel.Team, arena *parallel.Arena, rank int) *Workspace {
	tasks := team.N()
	if arena == nil {
		arena = parallel.NewArena(tasks)
	}
	w := &Workspace{team: team, tasks: tasks, rank: rank}
	r := rank
	w.partGram = make([][]float64, tasks)
	w.partNorm = make([][]float64, tasks)
	w.panel = make([][]float64, tasks)
	for t := 0; t < tasks; t++ {
		ta := arena.Task(t)
		w.partGram[t] = ta.F64(r * r)
		w.partNorm[t] = ta.F64(r)
		w.panel[t] = ta.F64(panelLen(r))
	}
	t0 := arena.Task(0)
	w.inv = t0.F64(r)
	w.chol = NewMatrixFrom(r, r, t0.F64(r*r))
	w.eigW = NewMatrixFrom(r, r, t0.F64(r*r))
	w.eigQ = NewMatrixFrom(r, r, t0.F64(r*r))
	w.pinv = NewMatrixFrom(r, r, t0.F64(r*r))
	w.eigVals = t0.F64(r)
	w.eigInv = t0.F64(r)

	w.syrkBody = func(tid int) {
		begin, end := parallel.Partition(w.curA.Rows, w.tasks, tid)
		syrkBlock(w.curA, w.partGram[tid], begin, end)
	}
	w.normPartBody = func(tid int) {
		begin, end := parallel.Partition(w.curA.Rows, w.tasks, tid)
		normBlock(w.curA, w.partNorm[tid], w.curKind, begin, end)
	}
	w.normScale = func(tid int) {
		begin, end := parallel.Partition(w.curA.Rows, w.tasks, tid)
		for i := begin; i < end; i++ {
			VecMul(w.curA.Row(i), w.inv)
		}
	}
	w.solveBody = func(tid int) {
		begin, end := parallel.Partition(w.curSolve.Rows, w.tasks, tid)
		solveRows(w.curFactor, w.curChol, w.curSolve, begin, end, w.panel[tid])
	}
	return w
}

// syrkBlock accumulates the upper-triangle Gram partial of rows
// [begin, end) into part (overwritten). The row kernel dispatches to the
// broadcast-FMA assembly block when the CPU has it.
func syrkBlock(a *Matrix, part []float64, begin, end int) {
	VecZero(part)
	for i := begin; i < end; i++ {
		syrkRow(part, a.Row(i))
	}
}

// normBlock accumulates the per-column norm partial of rows [begin, end)
// into part (overwritten).
func normBlock(a *Matrix, part []float64, kind NormKind, begin, end int) {
	VecZero(part)
	switch kind {
	case Norm2:
		for i := begin; i < end; i++ {
			row := a.Row(i)
			for j, v := range row {
				part[j] += v * v
			}
		}
	case NormMax:
		for i := begin; i < end; i++ {
			row := a.Row(i)
			for j, v := range row {
				if av := math.Abs(v); av > part[j] {
					part[j] = av
				}
			}
		}
	}
}

// Syrk computes c = aᵀa (a is I×rank, c rank×rank) — the workspace variant
// of the package-level Syrk, allocation-free after construction.
func (w *Workspace) Syrk(a, c *Matrix) {
	r := w.rank
	if a.Cols != r || c.Rows != r || c.Cols != r {
		panic(fmt.Sprintf("dense: Workspace.Syrk %dx%d -> %dx%d with rank %d",
			a.Rows, a.Cols, c.Rows, c.Cols, r))
	}
	w.curA = a
	w.team.Run(w.syrkBody)
	copy(c.Data, w.partGram[0])
	for t := 1; t < w.tasks; t++ {
		VecAdd(c.Data, w.partGram[t])
	}
	for j := 0; j < r; j++ {
		for k := j + 1; k < r; k++ {
			c.Data[k*r+j] = c.Data[j*r+k]
		}
	}
	w.curA = nil
}

// NormReducer combines column-norm partials with those of row blocks held
// elsewhere, such as the other locales' blocks of a distributed factor:
// Norm2 partials are sums of squares to add, NormMax partials are maxima
// to take.
type NormReducer interface {
	ReduceNorms(part []float64, kind NormKind)
}

// NormalizeColumns scales each column of a to unit norm with the norms in
// lambda — the workspace variant of the package-level NormalizeColumns.
// A non-nil across combines the tasks' folded partials with the other row
// blocks' before the square root or the max-norm clamp, so every block is
// scaled by its whole column's norm.
func (w *Workspace) NormalizeColumns(a *Matrix, lambda []float64, kind NormKind, across NormReducer) {
	r := w.rank
	if a.Cols != r || len(lambda) != r {
		panic(fmt.Sprintf("dense: Workspace.NormalizeColumns cols %d lambda %d rank %d",
			a.Cols, len(lambda), r))
	}
	w.curA, w.curKind = a, kind
	w.team.Run(w.normPartBody)
	foldNorms(w.partNorm[:w.tasks], lambda, kind)
	if across != nil {
		across.ReduceNorms(lambda, kind)
	}
	finishNorms(lambda, kind)
	for j, l := range lambda {
		w.inv[j] = 0
		if l > 0 {
			w.inv[j] = 1 / l
		}
	}
	w.team.Run(w.normScale)
	w.curA = nil
}

// foldNorms folds per-task norm partials into lambda: their sum (Norm2)
// or their maximum (NormMax).
func foldNorms(parts [][]float64, lambda []float64, kind NormKind) {
	for j := range lambda {
		acc := 0.0
		for _, part := range parts {
			if kind == Norm2 {
				acc += part[j]
			} else if part[j] > acc {
				acc = part[j]
			}
		}
		lambda[j] = acc
	}
}

// finishNorms turns folded partials into norms: the square root (Norm2),
// or SPLATT's max-norm clamp at 1 (NormMax).
func finishNorms(lambda []float64, kind NormKind) {
	for j, l := range lambda {
		if kind == Norm2 {
			lambda[j] = math.Sqrt(l)
		} else if l < 1 {
			lambda[j] = 1
		}
	}
}

// SolveNormals overwrites m (I×rank) with m·V†, the workspace variant of
// the package-level SolveNormals: the Cholesky factor is built in the
// cached buffer, the pseudo-inverse fallback runs through the cached
// Jacobi scratch, and each task applies the factor to its rows through the
// blocked solve on its arena panel. Allocation-free on both branches.
func (w *Workspace) SolveNormals(v, m *Matrix) {
	r := w.rank
	if v.Rows != r || v.Cols != r || m.Cols != r {
		panic(fmt.Sprintf("dense: Workspace.SolveNormals V %dx%d vs M %dx%d rank %d",
			v.Rows, v.Cols, m.Rows, m.Cols, r))
	}
	w.chol.CopyFrom(v)
	w.curFactor, w.curChol = w.chol, true
	if Cholesky(w.chol) != nil {
		PseudoInverseInto(v, 0, w.pinv, w.eigW, w.eigQ, w.eigVals, w.eigInv)
		w.curFactor, w.curChol = w.pinv, false
	}
	w.curSolve = m
	w.team.Run(w.solveBody)
	w.curSolve, w.curFactor = nil, nil
}
