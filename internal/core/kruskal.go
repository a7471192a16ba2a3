// Package core implements the paper's primary subject: shared-memory
// parallel CP-ALS (canonical polyadic decomposition by alternating least
// squares, Algorithm 1 of the paper) over CSF-stored sparse tensors, with
// the per-routine instrumentation and implementation-profile axes the
// paper's performance study sweeps.
package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dense"
	"repro/internal/sptensor"
)

// KruskalTensor is the factored form CP-ALS produces: a weight vector λ of
// length R plus one In×R factor matrix per mode. The rank-one components
// λ_r · a¹_r ∘ a²_r ∘ ... sum to the tensor approximation.
type KruskalTensor struct {
	Lambda  []float64
	Factors []*dense.Matrix
}

// NewRandomKruskal initializes factors with uniform random values in [0,1)
// and unit weights — SPLATT's initialization.
func NewRandomKruskal(dims []int, rank int, seed int64) *KruskalTensor {
	rng := rand.New(rand.NewSource(seed))
	k := &KruskalTensor{
		Lambda:  make([]float64, rank),
		Factors: make([]*dense.Matrix, len(dims)),
	}
	for r := range k.Lambda {
		k.Lambda[r] = 1
	}
	for m, d := range dims {
		k.Factors[m] = dense.NewRandomMatrix(d, rank, rng)
	}
	return k
}

// Rank reports the decomposition rank R.
func (k *KruskalTensor) Rank() int { return len(k.Lambda) }

// Order reports the number of modes.
func (k *KruskalTensor) Order() int { return len(k.Factors) }

// Dims returns the mode lengths.
func (k *KruskalTensor) Dims() []int {
	dims := make([]int, len(k.Factors))
	for m, f := range k.Factors {
		dims[m] = f.Rows
	}
	return dims
}

// NormSquared returns ‖model‖²_F = λᵀ (∘_m A(m)ᵀA(m)) λ, computed without
// materializing the reconstruction (SPLATT's kruskal norm).
func (k *KruskalTensor) NormSquared() float64 {
	r := k.Rank()
	g := dense.NewMatrix(r, r)
	g.Fill(1)
	tmp := dense.NewMatrix(r, r)
	for _, f := range k.Factors {
		dense.Syrk(nil, f, tmp)
		dense.HadamardProduct(g, tmp)
	}
	n := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			n += k.Lambda[i] * k.Lambda[j] * g.At(i, j)
		}
	}
	return n
}

// NormSquaredFromGramsInto computes ‖model‖²_F = λᵀ (∘_m Gram_m) λ from
// already-maintained Gram matrices (A(m)ᵀA(m) per mode, one R×R matrix
// each), the incremental form CP-ALS's fit evaluation uses every
// iteration. g is R×R scratch (overwritten), so the evaluation stays
// allocation-free.
func (k *KruskalTensor) NormSquaredFromGramsInto(grams []*dense.Matrix, g *dense.Matrix) float64 {
	r := k.Rank()
	dense.HadamardOfGrams(g, grams, -1)
	n := 0.0
	for i := 0; i < r; i++ {
		li := k.Lambda[i]
		row := g.Row(i)
		for j := 0; j < r; j++ {
			n += li * k.Lambda[j] * row[j]
		}
	}
	return n
}

// At evaluates the model at one coordinate: Σ_r λ_r ∏_m A(m)[coord_m, r].
func (k *KruskalTensor) At(coord []sptensor.Index) float64 {
	r := k.Rank()
	total := 0.0
	for c := 0; c < r; c++ {
		v := k.Lambda[c]
		for m, f := range k.Factors {
			v *= f.At(int(coord[m]), c)
		}
		total += v
	}
	return total
}

// ReconstructDense materializes the full model tensor. Only viable at toy
// sizes; the test suite uses it as ground truth.
func (k *KruskalTensor) ReconstructDense() *sptensor.DenseTensor {
	dims := k.Dims()
	d := sptensor.NewDense(dims)
	coord := make([]sptensor.Index, len(dims))
	var walk func(m int)
	idx := 0
	walk = func(m int) {
		if m == len(dims) {
			d.Data[idx] = k.At(coord)
			idx++
			return
		}
		for i := 0; i < dims[m]; i++ {
			coord[m] = sptensor.Index(i)
			walk(m + 1)
		}
	}
	walk(0)
	return d
}

// Fit returns the paper's model quality metric against tensor t:
// 1 − ‖X − model‖_F / ‖X‖_F, evaluated exactly (O(nnz·R·order) plus the
// kruskal norm). CP-ALS itself uses the cheaper incremental form of
// decomposer.computeFit (cpd.go); this exact form backs the tests.
func (k *KruskalTensor) Fit(t *sptensor.Tensor) float64 {
	normX2 := t.NormSquared()
	inner := 0.0
	coord := make([]sptensor.Index, t.NModes())
	for x := range t.Vals {
		for m := range coord {
			coord[m] = t.Inds[m][x]
		}
		inner += t.Vals[x] * k.At(coord)
	}
	modelNorm2 := k.NormSquared()
	residual2 := normX2 + modelNorm2 - 2*inner
	if residual2 < 0 {
		residual2 = 0
	}
	if normX2 == 0 {
		return 0
	}
	return 1 - math.Sqrt(residual2)/math.Sqrt(normX2)
}

// ExpandTo returns a copy of the model grown to the given mode lengths:
// existing factor rows carry over unchanged and rows for newly-appeared
// indices (an appended revision growing a mode) are seeded with the same
// uniform [0,1) initialization NewRandomKruskal uses, deterministic under
// seed. Shrinking a mode or changing the order is an error — revisions
// only ever grow. The receiver is not modified; when every mode already
// matches, the result is a plain deep copy.
func (k *KruskalTensor) ExpandTo(dims []int, seed int64) (*KruskalTensor, error) {
	if len(dims) != k.Order() {
		return nil, fmt.Errorf("core: expand to order %d, model has order %d", len(dims), k.Order())
	}
	rank := k.Rank()
	rng := rand.New(rand.NewSource(seed))
	out := &KruskalTensor{
		Lambda:  append([]float64(nil), k.Lambda...),
		Factors: make([]*dense.Matrix, k.Order()),
	}
	for m, f := range k.Factors {
		if dims[m] < f.Rows {
			return nil, fmt.Errorf("core: expand would shrink mode %d from %d to %d rows",
				m, f.Rows, dims[m])
		}
		g := dense.NewMatrix(dims[m], rank)
		copy(g.Data[:f.Rows*rank], f.Data)
		for i := f.Rows * rank; i < len(g.Data); i++ {
			g.Data[i] = rng.Float64()
		}
		out.Factors[m] = g
	}
	return out, nil
}

// Clone deep-copies the Kruskal tensor.
func (k *KruskalTensor) Clone() *KruskalTensor {
	out := &KruskalTensor{
		Lambda:  append([]float64(nil), k.Lambda...),
		Factors: make([]*dense.Matrix, len(k.Factors)),
	}
	for m, f := range k.Factors {
		out.Factors[m] = f.Clone()
	}
	return out
}

// Validate checks structural invariants.
func (k *KruskalTensor) Validate() error {
	r := k.Rank()
	if r == 0 {
		return fmt.Errorf("core: kruskal tensor has rank 0")
	}
	for m, f := range k.Factors {
		if f.Cols != r {
			return fmt.Errorf("core: factor %d has %d columns, want %d", m, f.Cols, r)
		}
	}
	for i, l := range k.Lambda {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("core: lambda[%d] = %v", i, l)
		}
	}
	return nil
}
