// Integration tests exercising the public API end to end: the workflows a
// downstream user runs (load → decompose → inspect; generate → save →
// reload; kernel-level MTTKRP; completion), across the paper's
// configuration axes.
package splatt_test

import (
	"math"
	"path/filepath"
	"testing"

	splatt "repro"
	"repro/internal/dense"
)

func TestPublicQuickstartFlow(t *testing.T) {
	tensor := splatt.NewRandomTensor([]int{40, 30, 20}, 3000, 1)
	opts := splatt.DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 10
	opts.Tasks = 2
	model, report, err := splatt.CPD(tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	if model.Rank() != 8 || model.Order() != 3 {
		t.Fatalf("model shape: rank %d order %d", model.Rank(), model.Order())
	}
	if report.Fit <= 0 || report.Fit > 1 {
		t.Errorf("fit %g out of range", report.Fit)
	}
	if report.Times["MTTKRP"] <= 0 {
		t.Error("missing MTTKRP timing")
	}
	// Model evaluation at a stored coordinate is finite.
	v := model.At(tensor.Coord(0))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("model value %g", v)
	}
}

func TestPublicSaveLoadDecompose(t *testing.T) {
	dir := t.TempDir()
	orig := splatt.MustDataset("yelp", 1.0/1024)
	path := filepath.Join(dir, "yelp.tns")
	if err := splatt.SaveTensor(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := splatt.LoadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != orig.NNZ() {
		t.Fatalf("nnz %d != %d after round trip", back.NNZ(), orig.NNZ())
	}
	opts := splatt.DefaultOptions()
	opts.Rank = 6
	opts.MaxIters = 5
	_, report, err := splatt.CPD(back, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Iterations != 5 {
		t.Errorf("iterations %d", report.Iterations)
	}
}

func TestPublicMTTKRP(t *testing.T) {
	tensor := splatt.NewRandomTensor([]int{25, 20, 15}, 1500, 3)
	const rank = 6
	factors := make([]*splatt.Matrix, 3)
	for m, d := range tensor.Dims {
		factors[m] = dense.NewMatrix(d, rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = float64(i%13) / 13
		}
	}
	out1 := dense.NewMatrix(tensor.Dims[0], rank)
	if err := splatt.MTTKRP(tensor, factors, 0, out1, 1); err != nil {
		t.Fatal(err)
	}
	out4 := dense.NewMatrix(tensor.Dims[0], rank)
	if err := splatt.MTTKRP(tensor, factors, 0, out4, 4); err != nil {
		t.Fatal(err)
	}
	if d := out1.MaxAbsDiff(out4); d > 1e-9 {
		t.Errorf("task counts disagree by %g", d)
	}
	if err := splatt.MTTKRP(tensor, factors, 9, out1, 1); err == nil {
		t.Error("bad mode accepted")
	}
	if err := splatt.MTTKRP(tensor, factors[:2], 0, out1, 1); err == nil {
		t.Error("wrong factor count accepted")
	}
	// The CSF kernels gather factor rows in assembly, so a factor too short
	// for the tensor, or of another rank, is refused before any kernel runs.
	short := append([]*splatt.Matrix(nil), factors...)
	short[2] = dense.NewMatrix(tensor.Dims[2]-1, rank)
	if err := splatt.MTTKRP(tensor, short, 0, out1, 1); err == nil {
		t.Error("factor with too few rows accepted")
	}
	short[2] = dense.NewMatrix(tensor.Dims[2], rank+1)
	if err := splatt.MTTKRP(tensor, short, 0, out1, 1); err == nil {
		t.Error("factor of another rank accepted")
	}
	if err := splatt.MTTKRP(tensor, factors, 0, dense.NewMatrix(tensor.Dims[0]-1, rank), 1); err == nil {
		t.Error("mis-shaped output accepted")
	}
}

func TestPublicProfilesAndAxes(t *testing.T) {
	tensor := splatt.MustDataset("yelp", 1.0/1024)
	base := splatt.DefaultOptions()
	base.Rank = 6
	base.MaxIters = 4
	base.Tasks = 4

	var ref *splatt.KruskalTensor
	for _, p := range []splatt.Profile{splatt.ProfileReference, splatt.ProfileInitial, splatt.ProfileOptimized} {
		opts := base
		opts.ApplyProfile(p)
		model, _, err := splatt.CPD(tensor, opts)
		if err != nil {
			t.Fatalf("profile %v: %v", p, err)
		}
		if ref == nil {
			ref = model
			continue
		}
		for m := range ref.Factors {
			if d := ref.Factors[m].MaxAbsDiff(model.Factors[m]); d > 1e-6 {
				t.Errorf("profile %v factor %d deviates by %g", p, m, d)
			}
		}
	}

	// Axis overrides compose: every lock kind and access mode still
	// produces the same decomposition.
	for _, lock := range []interface{ String() string }{splatt.LockAtomic, splatt.LockSync, splatt.LockFIFO} {
		_ = lock
	}
	opts := base
	opts.Access = splatt.AccessIndex2D
	opts.LockKind = splatt.LockSync
	opts.SortVariant = splatt.SortSliceOpt
	opts.Alloc = splatt.AllocAll
	model, _, err := splatt.CPD(tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	for m := range ref.Factors {
		if d := ref.Factors[m].MaxAbsDiff(model.Factors[m]); d > 1e-6 {
			t.Errorf("axis combination deviates at factor %d by %g", m, d)
		}
	}
}

func TestPublicStrategySplit(t *testing.T) {
	// The reproduction's central behavioural claim, via the public API:
	// the YELP twin uses locks at high task counts, the NELL-2 twin never
	// does.
	check := func(name string, wantLocks bool) {
		tensor := splatt.MustDataset(name, 1.0/256)
		opts := splatt.DefaultOptions()
		opts.Rank = 8
		opts.MaxIters = 2
		opts.Tasks = 8
		_, report, err := splatt.CPD(tensor, opts)
		if err != nil {
			t.Fatal(err)
		}
		if report.UsedLocks() != wantLocks {
			t.Errorf("%s at 8 tasks: UsedLocks=%v, want %v (strategies %v)",
				name, report.UsedLocks(), wantLocks, report.Strategies)
		}
	}
	check("yelp", true)
	check("nell-2", false)
}

func TestPublicCompletion(t *testing.T) {
	tensor := splatt.NewRandomTensor([]int{20, 15, 10}, 1000, 5)
	opts := splatt.DefaultCompletionOptions()
	opts.Rank = 4
	opts.MaxIters = 10
	opts.Tasks = 2
	model, report, err := splatt.CPDComplete(tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.RMSE < 0 || math.IsNaN(report.RMSE) {
		t.Errorf("RMSE %g", report.RMSE)
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicStats(t *testing.T) {
	tensor := splatt.MustDataset("nell-2", 1.0/1024)
	s := splatt.ComputeStats("NELL-2", tensor)
	if s.NNZ != tensor.NNZ() || s.Density <= 0 {
		t.Errorf("stats %+v", s)
	}
	if _, err := splatt.Dataset("unknown", 0.1); err == nil {
		t.Error("unknown dataset accepted")
	}
}
