package core

import (
	"math"
	"testing"

	"repro/internal/format"
	"repro/internal/sketch"
	"repro/internal/sptensor"
)

// lowRankTensor synthesizes a tensor that is *exactly* rank R: every cell
// of the grid holds the value of a ground-truth rank-R Kruskal model. In
// this identifiable setting both exact and sampled ALS recover the model
// and converge to the same (near-1) fit.
func lowRankTensor(dims []int, rank int, seed int64) *sptensor.Tensor {
	k := NewRandomKruskal(dims, rank, seed)
	total := 1
	for _, d := range dims {
		total *= d
	}
	t := sptensor.New(dims, total)
	coord := make([]sptensor.Index, len(dims))
	x := 0
	var walk func(m int)
	walk = func(m int) {
		if m == len(dims) {
			for mm := range coord {
				t.Inds[mm][x] = coord[mm]
			}
			t.Vals[x] = k.At(coord)
			x++
			return
		}
		for i := 0; i < dims[m]; i++ {
			coord[m] = sptensor.Index(i)
			walk(m + 1)
		}
	}
	walk(0)
	return t
}

func TestARLSDeterminism(t *testing.T) {
	tt := sptensor.Random([]int{60, 50, 40}, 15000, 7)
	opts := DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 8
	opts.Tasks = 4
	opts.Solver = sketch.ARLS

	k1, r1, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	k2, r2, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fit != r2.Fit {
		t.Fatalf("fit not deterministic: %v vs %v", r1.Fit, r2.Fit)
	}
	for m := range k1.Factors {
		for i, v := range k1.Factors[m].Data {
			if v != k2.Factors[m].Data[i] {
				t.Fatalf("factor %d not bitwise identical at %d: %g vs %g",
					m, i, v, k2.Factors[m].Data[i])
			}
		}
	}
	for i, l := range k1.Lambda {
		if l != k2.Lambda[i] {
			t.Fatalf("lambda[%d] differs: %g vs %g", i, l, k2.Lambda[i])
		}
	}
	// A different seed must give a different trajectory.
	opts.Seed = 99
	_, r3, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Fit == r1.Fit {
		t.Error("different seeds produced identical ARLS fit")
	}
}

// TestARLSFitParity enforces the solver-axis guarantee on identifiable
// synthetic rank-8 tensors: ARLS (sampled phase + exact refinement to the
// same tolerance) lands within 1e-3 of exact ALS's fit.
func TestARLSFitParity(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		tt := lowRankTensor([]int{24, 18, 15}, 8, seed)
		opts := DefaultOptions()
		opts.Rank = 8
		opts.MaxIters = 60
		opts.Tolerance = 1e-5
		opts.Tasks = 2

		_, exact, err := CPD(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Solver = sketch.ARLS
		opts.RefineIters = 40
		_, arls, err := CPD(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if arls.SampledIters == 0 {
			t.Fatal("ARLS ran no sampled iterations")
		}
		if gap := math.Abs(exact.Fit - arls.Fit); gap > 1e-3 {
			t.Errorf("seed %d: fit parity violated: exact %.6f vs arls %.6f (gap %.2e)",
				seed, exact.Fit, arls.Fit, gap)
		}
	}
}

// TestARLSRefinementExactFit proves the refinement pass restores exact fit
// semantics: the reported fit (computed with the incremental inner-product
// identity over the exact last-mode MTTKRP) matches the exact O(nnz·R)
// fit evaluation to 1e-8.
func TestARLSRefinementExactFit(t *testing.T) {
	tt := sptensor.Random([]int{50, 40, 30}, 12000, 5)
	opts := DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 10
	opts.Solver = sketch.ARLS

	k, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.SampledIters != 10-sketch.DefaultRefineIters {
		t.Errorf("sampled iterations = %d, want %d", report.SampledIters, 10-sketch.DefaultRefineIters)
	}
	exact := k.Fit(tt)
	if diff := math.Abs(exact - report.Fit); diff > 1e-8 {
		t.Errorf("refined fit %.10f vs exact evaluation %.10f (diff %.2e)",
			report.Fit, exact, diff)
	}
}

func TestSolverReportFields(t *testing.T) {
	tt := sptensor.Random([]int{30, 25, 20}, 4000, 2)
	opts := DefaultOptions()
	opts.Rank = 6
	opts.MaxIters = 5

	_, exact, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Solver != "als" || exact.SampledIters != 0 {
		t.Errorf("exact run reported solver=%q sampled=%d", exact.Solver, exact.SampledIters)
	}

	opts.Solver = sketch.ARLS
	opts.RefineIters = 2
	_, arls, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arls.Solver != "arls" {
		t.Errorf("arls run reported solver=%q", arls.Solver)
	}
	if arls.SampledIters != 3 {
		t.Errorf("sampled iterations = %d, want 3", arls.SampledIters)
	}

	// Auto resolves (and records) a concrete solver: tiny tensors go exact.
	opts.Solver = sketch.Auto
	_, auto, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Solver != "als" {
		t.Errorf("auto on tiny tensor resolved to %q", auto.Solver)
	}
}

// TestARLSOnALTOBackend runs the sampled solver against the linearized
// storage backend, exercising the ALTO Nonzeros column fill.
func TestARLSOnALTOBackend(t *testing.T) {
	tt := sptensor.Random([]int{40, 30, 20}, 8000, 13)
	opts := DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 8
	opts.Solver = sketch.ARLS

	_, csfRep, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Format = format.ALTO
	k, altoRep, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if altoRep.Format != "alto" || altoRep.Solver != "arls" {
		t.Fatalf("resolved format=%q solver=%q", altoRep.Format, altoRep.Solver)
	}
	// Same nonzeros, same seed, same draws — the trajectories agree to
	// floating-point reassociation (the backends enumerate nonzeros in
	// different storage orders).
	if diff := math.Abs(csfRep.Fit - altoRep.Fit); diff > 1e-6 {
		t.Errorf("CSF vs ALTO ARLS fit diverged: %.9f vs %.9f", csfRep.Fit, altoRep.Fit)
	}
	if exact := k.Fit(tt); math.Abs(exact-altoRep.Fit) > 1e-8 {
		t.Errorf("ALTO refined fit %.10f vs exact %.10f", altoRep.Fit, exact)
	}
}

func TestSolverOptionValidation(t *testing.T) {
	tt := sptensor.Random([]int{10, 10, 10}, 100, 1)
	opts := DefaultOptions()
	opts.Samples = -1
	if _, _, err := CPD(tt, opts); err == nil {
		t.Error("negative samples accepted")
	}
	opts = DefaultOptions()
	opts.RefineIters = -1
	if _, _, err := CPD(tt, opts); err == nil {
		t.Error("negative refine iterations accepted")
	}
}

// TestARLSFallsBackWhenUnsampleable: a tensor whose complement index space
// exceeds 64 bits silently resolves to the exact solver instead of failing.
func TestARLSFallsBackWhenUnsampleable(t *testing.T) {
	huge := 1 << 21
	tt := sptensor.New([]int{huge, huge, huge, huge}, 0)
	for _, c := range [][]int{{0, 1, 2, 3}, {5, 4, 3, 2}, {9, 9, 9, 9}, {100, 50, 25, 12}} {
		for m := 0; m < 4; m++ {
			tt.Inds[m] = append(tt.Inds[m], sptensor.Index(c[m]))
		}
		tt.Vals = append(tt.Vals, 1.0)
	}
	opts := DefaultOptions()
	opts.Rank = 2
	opts.MaxIters = 6 // leaves sampled budget, so the overflow check decides
	opts.Solver = sketch.ARLS
	_, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Solver != "als" || report.SampledIters != 0 {
		t.Errorf("unsampleable tensor resolved to %q (sampled %d)",
			report.Solver, report.SampledIters)
	}
}

// TestARLSResolvesExactWhenBudgetAllRefinement: an iteration budget the
// refinement pass fully consumes must skip the sampler entirely and
// report the run as exact.
func TestARLSResolvesExactWhenBudgetAllRefinement(t *testing.T) {
	tt := sptensor.Random([]int{20, 15, 10}, 1000, 4)
	opts := DefaultOptions()
	opts.Rank = 4
	opts.MaxIters = 2 // <= default refinement (2): nothing left to sample
	opts.Solver = sketch.ARLS
	_, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Solver != "als" || report.SampledIters != 0 {
		t.Errorf("all-refinement budget reported solver=%q sampled=%d, want als/0",
			report.Solver, report.SampledIters)
	}
}
