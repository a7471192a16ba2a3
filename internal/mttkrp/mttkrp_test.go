package mttkrp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/parallel"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// groundTruth computes the MTTKRP by explicit unfolding × Khatri-Rao
// product — the textbook definition the paper's §III gives, with the
// full dense fill-in the CSF kernels exist to avoid.
func groundTruth(t *sptensor.Tensor, factors []*dense.Matrix, mode int, rank int) *dense.Matrix {
	out := dense.NewMatrix(t.Dims[mode], rank)
	acc := make([]float64, rank)
	for x := range t.Vals {
		for i := range acc {
			acc[i] = t.Vals[x]
		}
		for m := range t.Inds {
			if m == mode {
				continue
			}
			row := factors[m].Row(int(t.Inds[m][x]))
			for i := range acc {
				acc[i] *= row[i]
			}
		}
		orow := out.Row(int(t.Inds[mode][x]))
		for i := range orow {
			orow[i] += acc[i]
		}
	}
	return out
}

func randomFactors(dims []int, rank int, seed int64) []*dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	factors := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		factors[m] = dense.NewRandomMatrix(d, rank, rng)
	}
	return factors
}

func TestCOOMatchesUnfoldedKhatriRao(t *testing.T) {
	// Small 3-mode tensor: verify COO against the explicit
	// unfolding-times-Khatri-Rao definition, column order per Kolda &
	// Bader: X(1) column (k·J + j), KhatriRao(A3, A2) row (k·J + j).
	tt := sptensor.Random([]int{5, 4, 3}, 30, 7)
	const rank = 4
	factors := randomFactors(tt.Dims, rank, 11)

	dt := tt.ToDense()
	i1, j1, k1 := tt.Dims[0], tt.Dims[1], tt.Dims[2]
	unfold := dense.NewMatrix(i1, j1*k1)
	for i := 0; i < i1; i++ {
		for j := 0; j < j1; j++ {
			for k := 0; k < k1; k++ {
				unfold.Set(i, k*j1+j, dt.At(sptensor.Index(i), sptensor.Index(j), sptensor.Index(k)))
			}
		}
	}
	kr := dense.KhatriRao(factors[2], factors[1])
	want := dense.NewMatrix(i1, rank)
	dense.Gemm(unfold, kr, want)

	got := dense.NewMatrix(i1, rank)
	COO(tt, factors, 0, got)
	if d := got.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("COO MTTKRP deviates from unfolded definition by %g", d)
	}
}

// checkAllModes verifies an operator configuration against COO on every
// mode of the tensor.
func checkAllModes(t *testing.T, tt *sptensor.Tensor, rank, tasks int, opts Options, alloc csf.AllocPolicy) {
	t.Helper()
	team := parallel.NewTeam(tasks)
	defer team.Close()
	set := csf.NewSet(tt, alloc, team, tsort.AllOpt)
	op := NewOperator(set, team, rank, opts)
	factors := randomFactors(tt.Dims, rank, 23)
	for mode := 0; mode < tt.NModes(); mode++ {
		want := dense.NewMatrix(tt.Dims[mode], rank)
		COO(tt, factors, mode, want)
		got := dense.NewMatrix(tt.Dims[mode], rank)
		op.Apply(mode, factors, got)
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("mode %d (access=%v strategy=%v alloc=%v tasks=%d): deviates by %g",
				mode, opts.Access, op.LastStrategy(), alloc, tasks, d)
		}
	}
}

func TestOperatorMatchesCOOAllVariants(t *testing.T) {
	tt := sptensor.Random([]int{40, 25, 60}, 2000, 3)
	const rank = 8
	accesses := []AccessMode{AccessReference, AccessPointer, AccessIndex2D, AccessSlice}
	strategies := []ConflictStrategy{StrategyAuto, StrategyLock, StrategyPrivatize}
	for _, access := range accesses {
		for _, strategy := range strategies {
			for _, tasks := range []int{1, 3} {
				opts := Options{Access: access, Strategy: strategy, LockKind: locks.Spin}
				checkAllModes(t, tt, rank, tasks, opts, csf.AllocTwo)
			}
		}
	}
}

// TestReferenceMatchesPointerKernels is the kernel-family parity pin. The
// C analogue (flat-offset bodies) and the Pointer port (accessor and sink
// bodies) call the same dispatched dense kernels, so they must agree at
// every 3rd-order level under every strategy. Ranks 1, 3, 4, 8 and 35
// reach the 8-wide AVX2 body and its 4-wide and scalar tails (under
// -tags purego, the unrolled Go bodies and their tails). Root-mode outputs
// run the identical kernel sequence over the identical slice partition,
// so they must match bit for bit; scattered modes differ only in how the
// flush rounds (one fused multiply-add against a product, then an add).
func TestReferenceMatchesPointerKernels(t *testing.T) {
	tt := sptensor.Random([]int{40, 25, 60}, 3000, 41)
	for _, tasks := range []int{1, 3} {
		team := parallel.NewTeam(tasks)
		// One CSF serves every mode, so the three modes hit all three levels.
		set := csf.NewSet(tt, csf.AllocOne, team, tsort.AllOpt)
		for _, strategy := range []ConflictStrategy{StrategyNone, StrategyLock, StrategyPrivatize, StrategyTile} {
			if strategy == StrategyNone && tasks > 1 {
				continue // forced none runs the lock pool at tasks > 1
			}
			for _, rank := range []int{1, 3, 4, 8, 35} {
				factors := randomFactors(tt.Dims, rank, int64(43+rank))
				ref := NewOperator(set, team, rank, Options{Access: AccessReference, Strategy: strategy, LockKind: locks.Spin})
				ptr := NewOperator(set, team, rank, Options{Access: AccessPointer, Strategy: strategy, LockKind: locks.Spin})
				for mode := 0; mode < tt.NModes(); mode++ {
					_, level := set.For(mode)
					c := dense.NewMatrix(tt.Dims[mode], rank)
					p := dense.NewMatrix(tt.Dims[mode], rank)
					ref.Apply(mode, factors, c)
					ptr.Apply(mode, factors, p)
					if level == 0 {
						for i := range c.Data {
							if c.Data[i] != p.Data[i] {
								t.Errorf("tasks=%d strategy=%v rank=%d root mode %d: entry %d C=%v Pointer=%v",
									tasks, strategy, rank, mode, i, c.Data[i], p.Data[i])
								break
							}
						}
						continue
					}
					largest := 0.0
					for i := range c.Data {
						largest = math.Max(largest, math.Max(math.Abs(c.Data[i]), math.Abs(p.Data[i])))
					}
					if d := c.MaxAbsDiff(p); d > 1e-12*largest {
						t.Errorf("tasks=%d strategy=%v rank=%d mode %d (level %d, ran %v): C and Pointer differ by %g (largest |entry| %g)",
							tasks, strategy, rank, mode, level, ref.LastStrategy(), d, largest)
					}
				}
			}
		}
		team.Close()
	}
}

func TestOperatorAllocPolicies(t *testing.T) {
	tt := sptensor.Random([]int{30, 20, 50}, 1500, 5)
	for _, alloc := range []csf.AllocPolicy{csf.AllocOne, csf.AllocTwo, csf.AllocAll} {
		checkAllModes(t, tt, 6, 2, DefaultOptions(), alloc)
	}
}

func TestOperatorLockKinds(t *testing.T) {
	tt := sptensor.Random([]int{30, 20, 50}, 1500, 9)
	for _, kind := range []locks.Kind{locks.Spin, locks.Sync, locks.FIFO} {
		opts := Options{Access: AccessReference, Strategy: StrategyLock, LockKind: kind}
		checkAllModes(t, tt, 6, 4, opts, csf.AllocTwo)
	}
}

func TestOperatorArbitraryOrder(t *testing.T) {
	for _, dims := range [][]int{
		{9, 7},
		{8, 6, 5, 7},
		{5, 4, 6, 3, 4},
		{3, 4, 3, 3, 4, 3},
	} {
		tt := sptensor.Random(dims, 300, 13)
		checkAllModes(t, tt, 5, 2, DefaultOptions(), csf.AllocTwo)
		checkAllModes(t, tt, 5, 3, Options{Access: AccessReference, Strategy: StrategyLock, LockKind: locks.Spin}, csf.AllocOne)
	}
}

func TestCOOParallelMatchesSerial(t *testing.T) {
	tt := sptensor.Random([]int{25, 35, 45}, 2500, 17)
	const rank = 7
	factors := randomFactors(tt.Dims, rank, 29)
	team := parallel.NewTeam(4)
	defer team.Close()
	pool := locks.NewPool(locks.Spin, 0)
	for mode := 0; mode < 3; mode++ {
		want := dense.NewMatrix(tt.Dims[mode], rank)
		COO(tt, factors, mode, want)
		got := dense.NewMatrix(tt.Dims[mode], rank)
		COOParallel(tt, factors, mode, got, team, pool)
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("mode %d: parallel COO deviates by %g", mode, d)
		}
	}
}

func TestDecide(t *testing.T) {
	// Serial never needs conflict handling.
	if got := Decide(1000, 100000, 1, 0); got != StrategyNone {
		t.Errorf("serial: got %v, want none", got)
	}
	// YELP-like ratio (~107 nnz per slice of the longest mode): privatize
	// at 2 tasks, lock at 4+ — the paper's "locks beyond two" behaviour.
	modeLen, nnz := 75000, 8000000
	if got := Decide(modeLen, nnz, 2, 0); got != StrategyPrivatize {
		t.Errorf("yelp@2: got %v, want privatize", got)
	}
	if got := Decide(modeLen, nnz, 4, 0); got != StrategyLock {
		t.Errorf("yelp@4: got %v, want lock", got)
	}
	// NELL-2-like ratio (~2655): privatize at every task count evaluated.
	modeLen, nnz = 29000, 77000000
	for _, tasks := range []int{2, 4, 8, 16, 32} {
		if got := Decide(modeLen, nnz, tasks, 0); got != StrategyPrivatize {
			t.Errorf("nell-2@%d: got %v, want privatize", tasks, got)
		}
	}
	// The rule is scale invariant: the twins at 1/64 scale decide the same.
	if got := Decide(75000/64, 8000000/64, 4, 0); got != StrategyLock {
		t.Errorf("yelp/64@4: got %v, want lock", got)
	}
	if got := Decide(29000/64, 77000000/64, 32, 0); got != StrategyPrivatize {
		t.Errorf("nell-2/64@32: got %v, want privatize", got)
	}
}

func TestStrategyForSplit(t *testing.T) {
	// The YELP twin must require locks at 4 tasks while the NELL-2 twin
	// privatizes everywhere — the §V-D split the reproduction hinges on.
	yelp := sptensor.Datasets["yelp"].Generate(1.0 / 256)
	nell := sptensor.Datasets["nell-2"].Generate(1.0 / 256)

	check := func(name string, tt *sptensor.Tensor, tasks int, wantLock bool) {
		team := parallel.NewTeam(tasks)
		defer team.Close()
		set := csf.NewSet(tt, csf.AllocTwo, team, tsort.AllOpt)
		op := NewOperator(set, team, 8, DefaultOptions())
		locked := false
		for m := 0; m < tt.NModes(); m++ {
			if op.StrategyFor(m) == StrategyLock {
				locked = true
			}
		}
		if locked != wantLock {
			t.Errorf("%s tasks=%d: locked=%v, want %v", name, tasks, locked, wantLock)
		}
	}
	check("yelp", yelp, 1, false)
	check("yelp", yelp, 2, false)
	check("yelp", yelp, 8, true)
	check("nell-2", nell, 8, false)
	check("nell-2", nell, 32, false)
}
