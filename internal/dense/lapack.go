package dense

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
)

// ErrNotPositiveDefinite reports a failed Cholesky factorization. CP-ALS
// falls back to the eigendecomposition-based pseudo-inverse in that case,
// exactly as SPLATT falls back from potrf to a pseudo-inverse when the
// Gram Hadamard product V is rank deficient.
var ErrNotPositiveDefinite = errors.New("dense: matrix is not positive definite")

// Cholesky factors the symmetric positive-definite matrix a in place into
// its lower-triangular factor L (a = L·Lᵀ); the strict upper triangle is
// zeroed. This is the `potrf` substrate call site.
func Cholesky(a *Matrix) error {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("dense: Cholesky on non-square %dx%d", a.Rows, a.Cols))
	}
	for j := 0; j < n; j++ {
		d := a.Data[j*n+j]
		for k := 0; k < j; k++ {
			ljk := a.Data[j*n+k]
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		a.Data[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a.Data[i*n+j]
			irow := a.Data[i*n:]
			jrow := a.Data[j*n:]
			for k := 0; k < j; k++ {
				s -= irow[k] * jrow[k]
			}
			a.Data[i*n+j] = s * inv
		}
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			a.Data[j*n+k] = 0
		}
	}
	return nil
}

// CholeskySolve solves (L·Lᵀ)·x = b in place for one right-hand side, given
// the lower factor L from Cholesky; b is overwritten with x. Matrix
// completion solves one small system per row with it; SolveNormals solves
// many right-hand sides at once through solveRows, and the tests use this
// routine as solveRows' reference.
func CholeskySolve(l *Matrix, b []float64) {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("dense: CholeskySolve rhs length %d, want %d", len(b), n))
	}
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n:]
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*n+i] * b[k]
		}
		b[i] = s / l.Data[i*n+i]
	}
}

// JacobiEigen computes the eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi method: a = Q·diag(vals)·Qᵀ. a is not modified.
// Column j of the returned matrix is the eigenvector for vals[j].
//
// Jacobi is slow for large n but unbeatable in robustness for the R×R
// (R≈35) systems CP-ALS produces, which is all this substrate needs.
func JacobiEigen(a *Matrix) (vals []float64, vecs *Matrix) {
	n := a.Rows
	q := NewMatrix(n, n)
	vals = make([]float64, n)
	JacobiEigenInto(a, NewMatrix(n, n), q, vals)
	return vals, q
}

// JacobiEigenInto is the allocation-free JacobiEigen: w is n×n scratch
// (overwritten with a working copy of a), q receives the eigenvectors, and
// vals (len n) the eigenvalues. The iteration hot path calls it through
// Workspace buffers so leverage-score refreshes stay allocation-free.
func JacobiEigenInto(a, w, q *Matrix, vals []float64) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("dense: JacobiEigen on non-square %dx%d", a.Rows, a.Cols))
	}
	if w.Rows != n || w.Cols != n || q.Rows != n || q.Cols != n || len(vals) != n {
		panic("dense: JacobiEigenInto scratch shape mismatch")
	}
	w.CopyFrom(a)
	q.SetIdentity()
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.Data[i*n+j] * w.Data[i*n+j]
			}
		}
		if off < 1e-28*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for r := p + 1; r < n; r++ {
				apr := w.Data[p*n+r]
				if apr == 0 {
					continue
				}
				app := w.Data[p*n+p]
				arr := w.Data[r*n+r]
				theta := (arr - app) / (2 * apr)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					wpk := w.Data[p*n+k]
					wrk := w.Data[r*n+k]
					w.Data[p*n+k] = c*wpk - s*wrk
					w.Data[r*n+k] = s*wpk + c*wrk
				}
				for k := 0; k < n; k++ {
					wkp := w.Data[k*n+p]
					wkr := w.Data[k*n+r]
					w.Data[k*n+p] = c*wkp - s*wkr
					w.Data[k*n+r] = s*wkp + c*wkr
					qkp := q.Data[k*n+p]
					qkr := q.Data[k*n+r]
					q.Data[k*n+p] = c*qkp - s*qkr
					q.Data[k*n+r] = s*qkp + c*qkr
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		vals[i] = w.Data[i*n+i]
	}
}

// PseudoInverse computes the Moore-Penrose pseudo-inverse V† of the
// symmetric matrix v. Eigenvalues below tol·max|λ| are treated as zero
// (rank-deficient directions are projected out). A non-positive tol selects
// a machine-precision default.
func PseudoInverse(v *Matrix, tol float64) *Matrix {
	n := v.Rows
	out := NewMatrix(n, n)
	PseudoInverseInto(v, tol, out, NewMatrix(n, n), NewMatrix(n, n),
		make([]float64, n), make([]float64, n))
	return out
}

// PseudoInverseInto is the allocation-free PseudoInverse: out receives V†,
// w and q are n×n scratch, vals and inv are n-length scratch. The sampled
// solver's leverage refresh (sketch.Sampler.RefreshLeverage) runs it on
// the sampler's own buffers once per factor update, and Workspace's solve
// runs it on the workspace's when the Cholesky factorization fails.
func PseudoInverseInto(v *Matrix, tol float64, out, w, q *Matrix, vals, inv []float64) {
	n := v.Rows
	JacobiEigenInto(v, w, q, vals)
	maxAbs := 0.0
	for _, l := range vals {
		if a := math.Abs(l); a > maxAbs {
			maxAbs = a
		}
	}
	if tol <= 0 {
		tol = 1e-12
	}
	cut := tol * maxAbs
	for i, l := range vals {
		inv[i] = 0
		if math.Abs(l) > cut {
			inv[i] = 1 / l
		}
	}
	// V† = Q · diag(inv) · Qᵀ.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += q.Data[i*n+k] * inv[k] * q.Data[j*n+k]
			}
			out.Data[i*n+j] = s
		}
	}
}

// SolveNormals overwrites m (I×R) with m·V†, the A(n) ← M·V† update on
// lines 5/8/11 of Algorithm 1. It factors V once, by Cholesky when V is
// positive definite and by the eigen-based pseudo-inverse otherwise, then
// applies the factor to blocks of rows split across the team (solveRows).
// v is preserved.
//
// This is the "Inverse" routine of the paper's tables: the factorization
// (or pseudo-inverse) plus its application to the MTTKRP output. This
// entry point allocates its factor and panels per call and serves cold
// paths and tests; the CP-ALS iteration loop goes through
// Workspace.SolveNormals.
func SolveNormals(team *parallel.Team, v *Matrix, m *Matrix) {
	if v.Rows != v.Cols || m.Cols != v.Rows {
		panic(fmt.Sprintf("dense: SolveNormals V %dx%d vs M %dx%d",
			v.Rows, v.Cols, m.Rows, m.Cols))
	}
	f, chol := factorNormals(v)
	parallel.ForBlocks(team, m.Rows, func(_, begin, end int) {
		solveRows(f, chol, m, begin, end, make([]float64, panelLen(v.Rows)))
	})
}

// factorNormals factors V for solveRows: its Cholesky factor and true when
// V is positive definite, otherwise V† and false.
func factorNormals(v *Matrix) (f *Matrix, chol bool) {
	l := v.Clone()
	if Cholesky(l) == nil {
		return l, true
	}
	return PseudoInverse(v, 0), false
}

// solveBlock is how many rows of M (right-hand sides) one panel of the
// blocked solve carries, so each dispatched kernel call advances that many
// solves at once. At rank 35 on a 2-core amd64 AVX2+FMA host, 128 ran
// faster than 32 or 64.
const solveBlock = 128

// panelLen is the per-task scratch solveRows needs at rank r: the
// transposed block, plus the product panel of the pseudo-inverse branch.
func panelLen(r int) int { return 2 * r * solveBlock }

// solveRows overwrites rows [begin, end) of m with m_i·V⁻¹, given f: V's
// Cholesky factor L when chol is true, V† otherwise (so m_i·V†). It works
// solveBlock rows at a time: the block is transposed into an r×nb panel
// whose columns are the right-hand sides, so every VecAxpy and VecScaleSet
// below covers nb of them. The Cholesky branch runs CholeskySolve's forward
// and backward substitution in the same order, scaling by the reciprocal
// of the diagonal where CholeskySolve divides; the other branch multiplies
// the panel by V†. Each panel column sees the same kernel sequence, so a
// row's result does not depend on the task split or on where the row sits
// in its block. panel holds at least panelLen(r) elements.
func solveRows(f *Matrix, chol bool, m *Matrix, begin, end int, panel []float64) {
	r := f.Rows
	for b := begin; b < end; b += solveBlock {
		nb := min(solveBlock, end-b)
		p, out := panel[:r*nb], panel[r*nb:2*r*nb]
		for i := 0; i < nb; i++ {
			for k, x := range m.Row(b + i) {
				p[k*nb+i] = x
			}
		}
		if chol {
			substitutePanel(f, p, nb)
			out = p
		} else {
			multiplyPanel(f, p, out, nb)
		}
		for i := 0; i < nb; i++ {
			row := m.Row(b + i)
			for k := range row {
				row[k] = out[k*nb+i]
			}
		}
	}
}

// substitutePanel solves (L·Lᵀ)·X = P in place for the r×nb panel p.
func substitutePanel(l *Matrix, p []float64, nb int) {
	r := l.Rows
	// Forward: L·Y = P.
	for i := 0; i < r; i++ {
		pi := p[i*nb : i*nb+nb]
		for k := 0; k < i; k++ {
			VecAxpy(pi, p[k*nb:k*nb+nb], -l.Data[i*r+k])
		}
		VecScaleSet(pi, pi, 1/l.Data[i*r+i])
	}
	// Backward: Lᵀ·X = Y.
	for i := r - 1; i >= 0; i-- {
		pi := p[i*nb : i*nb+nb]
		for k := i + 1; k < r; k++ {
			VecAxpy(pi, p[k*nb:k*nb+nb], -l.Data[k*r+i])
		}
		VecScaleSet(pi, pi, 1/l.Data[i*r+i])
	}
}

// multiplyPanel sets the r×nb panel out to the transpose of the block's
// product with V†, given the block's transpose p: out row j is
// Σ_k V†[k][j] · (p row k).
func multiplyPanel(pinv *Matrix, p, out []float64, nb int) {
	r := pinv.Rows
	for j := 0; j < r; j++ {
		oj := out[j*nb : j*nb+nb]
		VecScaleSet(oj, p[:nb], pinv.Data[j])
		for k := 1; k < r; k++ {
			VecAxpy(oj, p[k*nb:k*nb+nb], pinv.Data[k*r+j])
		}
	}
}
