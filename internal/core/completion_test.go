package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// plantedObservations samples observed entries from a random rank-r model.
func plantedObservations(dims []int, rank, nObs int, seed int64) (*sptensor.Tensor, *KruskalTensor) {
	planted := NewRandomKruskal(dims, rank, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	seen := map[[8]int32]bool{}
	t := &sptensor.Tensor{Dims: append([]int(nil), dims...), Inds: make([][]sptensor.Index, len(dims))}
	coord := make([]sptensor.Index, len(dims))
	for len(t.Vals) < nObs {
		var key [8]int32
		for m, d := range dims {
			coord[m] = sptensor.Index(rng.Intn(d))
			key[m] = coord[m]
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		for m := range dims {
			t.Inds[m] = append(t.Inds[m], coord[m])
		}
		t.Vals = append(t.Vals, planted.At(coord))
	}
	return t, planted
}

func TestCompletionRecoversPlantedModel(t *testing.T) {
	dims := []int{25, 20, 15}
	obs, _ := plantedObservations(dims, 3, 4000, 7)
	opts := DefaultCompletionOptions()
	opts.Rank = 3
	opts.MaxIters = 60
	opts.Tolerance = 1e-9
	opts.Ridge = 1e-6
	k, report, err := CPDComplete(obs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.RMSE > 0.01 {
		t.Errorf("observed RMSE %g, want < 0.01 for noiseless planted data", report.RMSE)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionGeneralizesToHeldOut(t *testing.T) {
	dims := []int{25, 20, 15}
	obs, planted := plantedObservations(dims, 3, 5000, 11)
	// Split 90/10.
	n := obs.NNZ()
	hold := n / 10
	train := &sptensor.Tensor{Dims: obs.Dims, Inds: make([][]sptensor.Index, 3)}
	for m := 0; m < 3; m++ {
		train.Inds[m] = obs.Inds[m][hold:]
	}
	train.Vals = obs.Vals[hold:]

	opts := DefaultCompletionOptions()
	opts.Rank = 3
	opts.MaxIters = 60
	opts.Ridge = 1e-6
	opts.Tasks = 2
	k, _, err := CPDComplete(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	var se float64
	coord := make([]sptensor.Index, 3)
	for x := 0; x < hold; x++ {
		for m := 0; m < 3; m++ {
			coord[m] = obs.Inds[m][x]
		}
		d := k.At(coord) - planted.At(coord)
		se += d * d
	}
	rmse := math.Sqrt(se / float64(hold))
	if rmse > 0.05 {
		t.Errorf("held-out RMSE %g, want < 0.05", rmse)
	}
}

func TestCompletionRMSEMonotoneNonIncreasing(t *testing.T) {
	obs, _ := plantedObservations([]int{15, 12, 10}, 2, 1500, 13)
	opts := DefaultCompletionOptions()
	opts.Rank = 2
	opts.MaxIters = 20
	opts.Tolerance = 0
	_, report, err := CPDComplete(obs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(report.RMSEHistory); i++ {
		// ALS on the observed loss is monotone up to tiny numerical slack.
		if report.RMSEHistory[i] > report.RMSEHistory[i-1]+1e-9 {
			t.Errorf("RMSE rose at iteration %d: %g -> %g",
				i, report.RMSEHistory[i-1], report.RMSEHistory[i])
		}
	}
}

func TestCompletionTasksAgree(t *testing.T) {
	obs, _ := plantedObservations([]int{20, 15, 12}, 3, 2500, 17)
	opts := DefaultCompletionOptions()
	opts.Rank = 3
	opts.MaxIters = 10
	opts.Tolerance = 0
	kSerial, _, err := CPDComplete(obs, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Tasks = 4
	kPar, _, err := CPDComplete(obs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for m := range kSerial.Factors {
		if d := kSerial.Factors[m].MaxAbsDiff(kPar.Factors[m]); d > 1e-8 {
			t.Errorf("factor %d deviates across task counts by %g", m, d)
		}
	}
}

func TestCompletionNonNegative(t *testing.T) {
	obs, _ := plantedObservations([]int{15, 12, 10}, 2, 1200, 19)
	opts := DefaultCompletionOptions()
	opts.Rank = 2
	opts.MaxIters = 15
	opts.NonNegative = true
	k, _, err := CPDComplete(obs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for m, f := range k.Factors {
		for _, v := range f.Data {
			if v < 0 {
				t.Fatalf("factor %d has negative entry %g", m, v)
			}
		}
	}
}

func TestCompletionUnobservedSliceKeepsRow(t *testing.T) {
	// A mode index with no observations must not be touched (no NaNs).
	t3 := sptensor.New([]int{4, 3, 3}, 3)
	t3.Inds[0] = []sptensor.Index{0, 1, 3} // slice 2 of mode 0 unobserved
	t3.Inds[1] = []sptensor.Index{0, 1, 2}
	t3.Inds[2] = []sptensor.Index{0, 1, 2}
	t3.Vals = []float64{1, 2, 3}
	opts := DefaultCompletionOptions()
	opts.Rank = 2
	opts.MaxIters = 5
	k, _, err := CPDComplete(t3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range k.Factors[0].Row(2) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("unobserved row corrupted")
		}
	}
}

// TestCompletionPseudoInverseFallback pins the fallback of a row solve
// whose Cholesky factorization fails partway: the pseudo-inverse must
// solve the row's system, not what the failed factorization left of it.
// Rows of 1e9 in factors 1 and 2 make the system 1e36·[[1,1],[1,1]], in
// which the 1e-8 ridge rounds away, so the factorization fails at column
// 1. The minimum-norm solution reconstructs the observed value.
func TestCompletionPseudoInverseFallback(t *testing.T) {
	x := sptensor.New([]int{1, 2, 2}, 1)
	x.Vals[0] = 1
	k := NewRandomKruskal(x.Dims, 2, 1)
	for m := 1; m < x.NModes(); m++ {
		copy(k.Factors[m].Row(0), []float64{1e9, 1e9})
	}
	team := parallel.NewTeam(1)
	defer team.Close()
	updateCompletionMode(x, k, groupByMode(x, 0), 0, 1e-8, false, team)
	if got := k.At([]sptensor.Index{0, 0, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("updated row %v reconstructs %g, want the observed 1", k.Factors[0].Row(0), got)
	}
}

func TestCompletionRejectsBadOptions(t *testing.T) {
	obs, _ := plantedObservations([]int{5, 5, 5}, 2, 50, 23)
	if _, _, err := CPDComplete(obs, CompletionOptions{Rank: 0, MaxIters: 5}); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, _, err := CPDComplete(obs, CompletionOptions{Rank: 2, MaxIters: 0}); err == nil {
		t.Error("iters 0 accepted")
	}
}

func TestGroupByMode(t *testing.T) {
	t3 := sptensor.New([]int{3, 2, 2}, 5)
	t3.Inds[0] = []sptensor.Index{2, 0, 1, 0, 2}
	t3.Inds[1] = []sptensor.Index{0, 1, 0, 1, 1}
	t3.Inds[2] = []sptensor.Index{1, 0, 1, 0, 0}
	t3.Vals = []float64{1, 2, 3, 4, 5}
	g := groupByMode(t3, 0)
	if g.starts[0] != 0 || g.starts[1] != 2 || g.starts[2] != 3 || g.starts[3] != 5 {
		t.Fatalf("starts = %v", g.starts)
	}
	// Slice 0 holds nonzeros {1, 3}, slice 1 {2}, slice 2 {0, 4}.
	want := map[int][]int32{0: {1, 3}, 1: {2}, 2: {0, 4}}
	for slice, ids := range want {
		got := g.order[g.starts[slice]:g.starts[slice+1]]
		if len(got) != len(ids) {
			t.Fatalf("slice %d: %v", slice, got)
		}
		for i, id := range ids {
			if got[i] != id {
				t.Fatalf("slice %d: got %v want %v", slice, got, ids)
			}
		}
	}
}
