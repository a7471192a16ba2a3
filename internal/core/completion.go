package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dense"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Tensor completion: CP-ALS over *observed entries only* — SPLATT's
// "CP with missing values" feature (paper §III). Unlike CPD, which models
// unstored cells as zeros, CPDComplete minimizes the squared error over
// the stored entries, making it suitable for rating prediction and other
// recommender-style workloads (the NETFLIX tensor's use case).
//
// Each mode update solves an independent ridge-regularized normal system
// per row i, built from just the observations in slice i:
//
//	(Σ_x c_x c_xᵀ + ridge·I) a_i = Σ_x v_x c_x,   c_x = ∘_{n≠m} A(n)[x_n]
//
// This is the standard ALS formulation for masked CP (Kolda & Bader §4.3).

// CompletionOptions configures CPDComplete.
type CompletionOptions struct {
	// Rank is the decomposition rank R.
	Rank int
	// MaxIters caps ALS sweeps.
	MaxIters int
	// Tolerance stops iteration when the observed-RMSE improvement drops
	// below it (0 disables early stopping).
	Tolerance float64
	// Tasks is the worker team size.
	Tasks int
	// Seed fixes the factor initialization.
	Seed int64
	// Ridge is the Tikhonov regularizer added to each row system
	// (also keeps rows with few observations well posed). 0 selects 1e-8.
	Ridge float64
	// NonNegative clamps factors to the nonnegative orthant after each
	// row solve.
	NonNegative bool
	// Ctx, when non-nil, is polled between mode updates; on cancellation
	// CPDComplete stops early, marks the report, and returns the partial
	// model with ctx.Err(). A nil Ctx never cancels.
	Ctx context.Context
}

// DefaultCompletionOptions returns a reasonable completion configuration.
func DefaultCompletionOptions() CompletionOptions {
	return CompletionOptions{Rank: 10, MaxIters: 50, Tolerance: 1e-5, Tasks: 1, Seed: 1, Ridge: 1e-3}
}

// CompletionReport carries the convergence trace of a CPDComplete run.
type CompletionReport struct {
	Iterations  int
	RMSE        float64   // final observed-entry RMSE
	RMSEHistory []float64 // per-iteration observed RMSE
	// Cancelled reports that Options.Ctx was cancelled and the sweep
	// stopped early.
	Cancelled bool
}

// modeGroups indexes the nonzeros of a tensor by one mode: nonzeros of
// slice i are order[starts[i]:starts[i+1]] (a CSR-style grouping built
// with one counting sort per mode).
type modeGroups struct {
	starts []int64
	order  []int32
}

func groupByMode(t *sptensor.Tensor, m int) modeGroups {
	dim := t.Dims[m]
	g := modeGroups{starts: make([]int64, dim+1), order: make([]int32, t.NNZ())}
	for _, idx := range t.Inds[m] {
		g.starts[idx+1]++
	}
	for i := 0; i < dim; i++ {
		g.starts[i+1] += g.starts[i]
	}
	pos := append([]int64(nil), g.starts[:dim]...)
	for x, idx := range t.Inds[m] {
		g.order[pos[idx]] = int32(x)
		pos[idx]++
	}
	return g
}

// CPDComplete factors the observed entries of t into a rank-R Kruskal
// model (Lambda is all ones; weights are absorbed into the factors).
func CPDComplete(t *sptensor.Tensor, opts CompletionOptions) (*KruskalTensor, *CompletionReport, error) {
	if opts.Rank <= 0 {
		return nil, nil, fmt.Errorf("core: completion rank %d <= 0", opts.Rank)
	}
	if opts.MaxIters <= 0 {
		return nil, nil, fmt.Errorf("core: completion max iterations %d <= 0", opts.MaxIters)
	}
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	tasks := opts.Tasks
	if tasks < 1 {
		tasks = 1
	}
	ridge := opts.Ridge
	if ridge <= 0 {
		ridge = 1e-8
	}
	team := parallel.NewTeam(tasks)
	defer team.Close()

	order := t.NModes()
	r := opts.Rank
	k := NewRandomKruskal(t.Dims, r, opts.Seed)

	groups := make([]modeGroups, order)
	for m := 0; m < order; m++ {
		groups[m] = groupByMode(t, m)
	}

	report := &CompletionReport{}
	prevRMSE := math.Inf(1)
loop:
	for it := 0; it < opts.MaxIters; it++ {
		for m := 0; m < order; m++ {
			if opts.Ctx != nil && opts.Ctx.Err() != nil {
				report.Cancelled = true
				break loop
			}
			updateCompletionMode(t, k, groups[m], m, ridge, opts.NonNegative, team)
		}
		rmse := observedRMSE(t, k, team)
		report.RMSEHistory = append(report.RMSEHistory, rmse)
		report.Iterations = it + 1
		report.RMSE = rmse
		if opts.Tolerance > 0 && prevRMSE-rmse < opts.Tolerance {
			break
		}
		prevRMSE = rmse
	}
	if report.Cancelled {
		return k, report, opts.Ctx.Err()
	}
	return k, report, nil
}

// updateCompletionMode solves the per-row ridge systems for mode m.
func updateCompletionMode(t *sptensor.Tensor, k *KruskalTensor, g modeGroups,
	m int, ridge float64, nonneg bool, team *parallel.Team) {

	r := k.Rank()
	factor := k.Factors[m]
	parallel.ForBlocks(team, factor.Rows, func(_, begin, end int) {
		gmat := dense.NewMatrix(r, r)
		chol := dense.NewMatrix(r, r)
		b := make([]float64, r)
		c := make([]float64, r)
		for i := begin; i < end; i++ {
			lo, hi := g.starts[i], g.starts[i+1]
			if lo == hi {
				continue // unobserved slice: leave the row as is
			}
			gmat.Zero()
			for j := range b {
				b[j] = 0
			}
			for p := lo; p < hi; p++ {
				x := int(g.order[p])
				for j := range c {
					c[j] = 1
				}
				for n := range t.Inds {
					if n == m {
						continue
					}
					row := k.Factors[n].Row(int(t.Inds[n][x]))
					for j := range c {
						c[j] *= row[j]
					}
				}
				v := t.Vals[x]
				for a := 0; a < r; a++ {
					ca := c[a]
					if ca == 0 {
						continue
					}
					grow := gmat.Row(a)
					for bcol := a; bcol < r; bcol++ {
						grow[bcol] += ca * c[bcol]
					}
					b[a] += v * ca
				}
			}
			// Symmetrize and regularize.
			for a := 0; a < r; a++ {
				for bcol := a + 1; bcol < r; bcol++ {
					gmat.Set(bcol, a, gmat.At(a, bcol))
				}
				gmat.Set(a, a, gmat.At(a, a)+ridge)
			}
			row := factor.Row(i)
			copy(row, b)
			// Factor a copy, so a factorization that fails partway leaves
			// gmat whole for the fallback.
			chol.CopyFrom(gmat)
			if dense.Cholesky(chol) == nil {
				dense.CholeskySolve(chol, row)
			} else {
				// Degenerate system despite the ridge: fall back to the
				// eigen pseudo-inverse.
				pinv := dense.PseudoInverse(gmat, 0)
				for a := 0; a < r; a++ {
					s := 0.0
					for j := 0; j < r; j++ {
						s += pinv.At(a, j) * b[j]
					}
					row[a] = s
				}
			}
			if nonneg {
				for j, v := range row {
					if v < 0 {
						row[j] = 0
					}
				}
			}
		}
	})
	// Completion keeps weights in the factors.
	for j := range k.Lambda {
		k.Lambda[j] = 1
	}
}

// observedRMSE evaluates the model on the stored entries.
func observedRMSE(t *sptensor.Tensor, k *KruskalTensor, team *parallel.Team) float64 {
	partials := make([]float64, team.N())
	parallel.ForBlocks(team, t.NNZ(), func(tid, begin, end int) {
		acc := 0.0
		coord := make([]sptensor.Index, t.NModes())
		for x := begin; x < end; x++ {
			for m := range coord {
				coord[m] = t.Inds[m][x]
			}
			d := k.At(coord) - t.Vals[x]
			acc += d * d
		}
		partials[tid] = acc
	})
	return math.Sqrt(parallel.ReduceSum(partials) / float64(t.NNZ()))
}
