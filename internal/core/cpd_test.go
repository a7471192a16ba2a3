package core

import (
	"math"
	"testing"

	"repro/internal/csf"
	"repro/internal/format"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/sketch"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

func testTensor(seed int64) *sptensor.Tensor {
	return sptensor.Random([]int{30, 20, 25}, 2500, seed)
}

func TestCPDImprovesFit(t *testing.T) {
	tt := testTensor(1)
	opts := DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 15
	k, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if report.Iterations != 15 {
		t.Errorf("iterations = %d, want 15", report.Iterations)
	}
	if len(report.FitHistory) != 15 {
		t.Fatalf("fit history has %d entries", len(report.FitHistory))
	}
	first, last := report.FitHistory[0], report.FitHistory[len(report.FitHistory)-1]
	if !(last > first) {
		t.Errorf("fit did not improve: first=%g last=%g", first, last)
	}
	if last <= 0 || last > 1 {
		t.Errorf("final fit %g outside (0, 1]", last)
	}
}

func TestCPDFitMatchesExactFit(t *testing.T) {
	// The incremental fit identity used inside the ALS loop must agree
	// with the exact O(nnz·R) evaluation.
	tt := testTensor(2)
	opts := DefaultOptions()
	opts.Rank = 6
	opts.MaxIters = 10
	k, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact := k.Fit(tt)
	if d := math.Abs(exact - report.Fit); d > 1e-8 {
		t.Errorf("incremental fit %g vs exact fit %g (diff %g)", report.Fit, exact, d)
	}
}

func TestCPDDeterministicAcrossTasks(t *testing.T) {
	// The decomposition is a deterministic function of the seed; task
	// count must only affect speed. (Privatized reductions and locked
	// updates reorder float additions, so allow tiny drift.)
	tt := testTensor(3)
	opts := DefaultOptions()
	opts.Rank = 5
	opts.MaxIters = 8

	kSerial, _, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tasks := range []int{2, 4} {
		opts.Tasks = tasks
		kPar, _, err := CPD(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		for m := range kSerial.Factors {
			if d := kSerial.Factors[m].MaxAbsDiff(kPar.Factors[m]); d > 1e-6 {
				t.Errorf("tasks=%d factor %d deviates from serial by %g", tasks, m, d)
			}
		}
	}
}

// TestCPDRepeatsBitwiseWhenPrivatized pins README's Determinism claim:
// when no mode runs StrategyLock, the same seed and task count repeat a
// run bit for bit (factors, λ and fit history) on both formats and both
// solvers. A locked mode adds rows in the order tasks take the lock, so
// StrategyAuto, which may lock, is not part of the claim.
func TestCPDRepeatsBitwiseWhenPrivatized(t *testing.T) {
	tt := sptensor.Random([]int{30, 40, 50}, 2000, 7)
	for _, spec := range []format.Spec{format.CSF, format.ALTO} {
		for _, solver := range []sketch.Solver{sketch.ALS, sketch.ARLS} {
			opts := DefaultOptions()
			opts.Rank, opts.MaxIters, opts.Seed, opts.Tasks = 8, 12, 3, 2
			opts.Strategy, opts.Format, opts.Solver = mttkrp.StrategyPrivatize, spec, solver
			k1, r1, err := CPD(tt, opts)
			if err != nil {
				t.Fatal(err)
			}
			k2, r2, err := CPD(tt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if solver == sketch.ARLS && r1.SampledIters == 0 {
				t.Fatalf("%v %v: no sampled iteration ran", spec, solver)
			}
			same := func(a, b []float64) bool {
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						return false
					}
				}
				return true
			}
			if !same(r1.FitHistory, r2.FitHistory) {
				t.Errorf("%v %v: fit histories differ: %v vs %v", spec, solver, r1.FitHistory, r2.FitHistory)
			}
			if !same(k1.Lambda, k2.Lambda) {
				t.Errorf("%v %v: λ differs", spec, solver)
			}
			for m := range k1.Factors {
				if !same(k1.Factors[m].Data, k2.Factors[m].Data) {
					t.Errorf("%v %v: factor %d differs", spec, solver, m)
				}
			}
		}
	}
}

func TestCPDProfilesAgree(t *testing.T) {
	// All three implementation profiles compute the same decomposition —
	// the paper's port preserves semantics, only performance differs.
	tt := testTensor(4)
	base := DefaultOptions()
	base.Rank = 5
	base.MaxIters = 6
	base.Tasks = 3

	var ref *KruskalTensor
	for _, p := range Profiles {
		opts := base
		opts.ApplyProfile(p)
		k, _, err := CPD(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = k
			continue
		}
		for m := range ref.Factors {
			if d := ref.Factors[m].MaxAbsDiff(k.Factors[m]); d > 1e-6 {
				t.Errorf("profile %v factor %d deviates by %g", p, m, d)
			}
		}
	}
}

func TestCPDToleranceStopsEarly(t *testing.T) {
	tt := testTensor(5)
	opts := DefaultOptions()
	opts.Rank = 4
	opts.MaxIters = 200
	opts.Tolerance = 1e-4
	_, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Iterations >= 200 {
		t.Errorf("tolerance did not trigger early stop (ran %d iterations)", report.Iterations)
	}
}

func TestCPDExactRecoveryOfLowRankTensor(t *testing.T) {
	// A tensor that *is* rank-3 must be recovered to near-perfect fit.
	planted := NewRandomKruskal([]int{12, 10, 11}, 3, 99)
	dims := planted.Dims()
	d := planted.ReconstructDense()
	// Densify into COO (every cell, including small values).
	nnz := len(d.Data)
	tt := sptensor.New(dims, nnz)
	x := 0
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				tt.Inds[0][x] = sptensor.Index(i)
				tt.Inds[1][x] = sptensor.Index(j)
				tt.Inds[2][x] = sptensor.Index(k)
				tt.Vals[x] = d.At(sptensor.Index(i), sptensor.Index(j), sptensor.Index(k))
				x++
			}
		}
	}
	opts := DefaultOptions()
	opts.Rank = 3
	opts.MaxIters = 300
	opts.Tolerance = 1e-12
	_, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Fit < 0.999 {
		t.Errorf("rank-3 tensor recovered with fit %g, want > 0.999", report.Fit)
	}
}

func TestCPDNonNegative(t *testing.T) {
	tt := testTensor(6)
	opts := DefaultOptions()
	opts.Rank = 5
	opts.MaxIters = 10
	opts.NonNegative = true
	k, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for m, f := range k.Factors {
		for _, v := range f.Data {
			if v < 0 {
				t.Fatalf("factor %d contains negative entry %g", m, v)
			}
		}
	}
	if report.Fit <= 0 {
		t.Errorf("nonnegative fit %g <= 0", report.Fit)
	}
}

func TestCPDArbitraryOrder(t *testing.T) {
	tt := sptensor.Random([]int{10, 8, 9, 7}, 1200, 7)
	opts := DefaultOptions()
	opts.Rank = 4
	opts.MaxIters = 10
	opts.Tasks = 2
	k, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k.Order() != 4 {
		t.Fatalf("order = %d", k.Order())
	}
	if report.Fit <= 0 {
		t.Errorf("order-4 fit %g <= 0", report.Fit)
	}
}

func TestCPDRecordsStrategiesAndTimes(t *testing.T) {
	tt := testTensor(8)
	opts := DefaultOptions()
	opts.Rank = 5
	opts.MaxIters = 5
	opts.Tasks = 4
	opts.Strategy = mttkrp.StrategyLock
	opts.LockKind = locks.FIFO
	opts.Alloc = csf.AllocOne
	opts.SortVariant = tsort.ArrayOpt
	_, report, err := CPD(tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !report.UsedLocks() {
		t.Error("forced lock strategy not reflected in report")
	}
	for _, key := range []string{"MTTKRP", "SORT", "INVERSE", "MAT A^TA", "MAT NORM", "CPD FIT"} {
		if report.Times[key] <= 0 {
			t.Errorf("routine %q has no recorded time", key)
		}
	}
}

func TestCPDRejectsBadOptions(t *testing.T) {
	tt := testTensor(9)
	bad := []Options{
		{Rank: 0, MaxIters: 5},
		{Rank: 4, MaxIters: 0},
		{Rank: 4, MaxIters: 5, Tasks: -1},
		{Rank: 4, MaxIters: 5, Tolerance: -1},
		{Rank: 4, MaxIters: 5, Ridge: -0.1},
	}
	for i, opts := range bad {
		if _, _, err := CPD(tt, opts); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestCPDRidgeRegularization(t *testing.T) {
	// A ridge keeps the solve well-posed and still converges; heavier
	// ridge should not beat the unregularized fit on clean data.
	tt := testTensor(10)
	base := DefaultOptions()
	base.Rank = 5
	base.MaxIters = 10
	_, plain, err := CPD(tt, base)
	if err != nil {
		t.Fatal(err)
	}
	ridged := base
	ridged.Ridge = 0.01
	_, reg, err := CPD(tt, ridged)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Fit <= 0 {
		t.Errorf("ridge fit %g", reg.Fit)
	}
	// A small ridge is a small perturbation: the fit stays close to the
	// unregularized one (it may land on either side of it).
	if math.Abs(reg.Fit-plain.Fit) > 0.01 {
		t.Errorf("small ridge moved fit from %g to %g", plain.Fit, reg.Fit)
	}
	// Rank-deficient stress: rank far above data rank, ridge must keep
	// every factor finite.
	hard := DefaultOptions()
	hard.Rank = 30
	hard.MaxIters = 8
	hard.Ridge = 1e-6
	k, _, err := CPD(sptensor.Random([]int{12, 10, 8}, 200, 99), hard)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}
