package dense

import (
	"fmt"

	"repro/internal/parallel"
)

// Syrk computes C = AᵀA for a tall-skinny A (I×R), producing the R×R Gram
// matrix CP-ALS needs on lines 4/7/10 of Algorithm 1. This is the
// OpenBLAS `syrk` call site in both the paper's C and Chapel codes.
//
// The parallelization matches SPLATT: each task accumulates a partial Gram
// over its contiguous row block, then partials are reduced. Only the upper
// triangle is computed during accumulation; the result is symmetrized.
//
// This package-level entry point allocates its per-task partials per call
// and exists for cold paths and tests; the CP-ALS iteration loop goes
// through Workspace.Syrk, which stages the same block kernel over
// arena-backed buffers and allocates nothing.
func Syrk(team *parallel.Team, a *Matrix, c *Matrix) {
	r := a.Cols
	if c.Rows != r || c.Cols != r {
		panic(fmt.Sprintf("dense: Syrk output %dx%d, want %dx%d", c.Rows, c.Cols, r, r))
	}
	partials := make([][]float64, team.N())
	parallel.ForBlocks(team, a.Rows, func(tid, begin, end int) {
		part := make([]float64, r*r)
		syrkBlock(a, part, begin, end)
		partials[tid] = part
	})
	c.Zero()
	for _, part := range partials {
		if part == nil {
			continue
		}
		VecAdd(c.Data, part)
	}
	// Mirror the upper triangle into the lower.
	for j := 0; j < r; j++ {
		for k := j + 1; k < r; k++ {
			c.Data[k*r+j] = c.Data[j*r+k]
		}
	}
}

// Gemm computes C = A·B with a cache-friendly i-k-j loop ordering.
func Gemm(a, b, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: Gemm shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			v := arow[k]
			if v == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += v * brow[j]
			}
		}
	}
}

// HadamardProduct computes dst = dst ∘ src elementwise (shapes must match).
// CP-ALS forms V = ∘_{m≠n} A(m)ᵀA(m) with repeated Hadamard products.
func HadamardProduct(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("dense: Hadamard shape mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] *= v
	}
}

// KhatriRao computes the column-wise Khatri-Rao product C = A ⊙ B:
// C is (A.Rows*B.Rows)×R with C[i*B.Rows+j, r] = A[i,r]*B[j,r].
// It is the explicit (memory-hungry) product the MTTKRP avoids
// materializing; the test suite uses it as the ground-truth path.
func KhatriRao(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: KhatriRao rank mismatch %d vs %d", a.Cols, b.Cols))
	}
	r := a.Cols
	out := NewMatrix(a.Rows*b.Rows, r)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			crow := out.Row(i*b.Rows + j)
			for k := 0; k < r; k++ {
				crow[k] = arow[k] * brow[k]
			}
		}
	}
	return out
}

// ClampNonNegative projects a onto the nonnegative orthant in place —
// SPLATT's constrained-CP projection applied after each factor update.
func ClampNonNegative(team *parallel.Team, a *Matrix) {
	parallel.For(team, a.Rows, func(i int) {
		row := a.Row(i)
		for j, v := range row {
			if v < 0 {
				row[j] = 0
			}
		}
	})
}

// NormKind selects the column-normalization norm in CP-ALS: SPLATT uses the
// 2-norm on the first iteration and the max-norm afterwards.
type NormKind int

const (
	// Norm2 is the Euclidean column norm.
	Norm2 NormKind = iota
	// NormMax is max(|v|, 1) — SPLATT clamps max-norms below 1 to 1 so
	// factors never get inflated.
	NormMax
)

// NormalizeColumns scales each column of a to unit norm, storing the norms
// (λ) in lambda (len R). Partial norms are computed per task over row
// blocks, reduced, then rows are rescaled in parallel — the "Mat norm"
// routine timed in the paper's tables.
//
// Like Syrk, this entry point allocates per call; the iteration loop uses
// Workspace.NormalizeColumns (same block kernels, arena buffers, zero
// allocations).
func NormalizeColumns(team *parallel.Team, a *Matrix, lambda []float64, kind NormKind) {
	r := a.Cols
	if len(lambda) != r {
		panic(fmt.Sprintf("dense: lambda length %d, want %d", len(lambda), r))
	}
	partials := make([][]float64, team.N())
	parallel.ForBlocks(team, a.Rows, func(tid, begin, end int) {
		part := make([]float64, r)
		normBlock(a, part, kind, begin, end)
		partials[tid] = part
	})
	for tid := range partials {
		if partials[tid] == nil {
			partials[tid] = make([]float64, r) // block with no rows
		}
	}
	foldNorms(partials, lambda, kind)
	finishNorms(lambda, kind)
	inv := make([]float64, r)
	for j, l := range lambda {
		if l > 0 {
			inv[j] = 1 / l
		}
	}
	parallel.ForBlocks(team, a.Rows, func(_, begin, end int) {
		for i := begin; i < end; i++ {
			VecMul(a.Row(i), inv)
		}
	})
}
