package sptensor

import (
	"math"
	"testing"
)

func tensorFrom(t *testing.T, dims []int, coords [][]int, vals []float64) *Tensor {
	t.Helper()
	tt := New(dims, len(vals))
	for x, c := range coords {
		for m := range dims {
			tt.Inds[m][x] = Index(c[m])
		}
		tt.Vals[x] = vals[x]
	}
	if err := tt.Validate(); err != nil {
		t.Fatalf("fixture tensor invalid: %v", err)
	}
	return tt
}

func TestAppendBatchMergesAcrossBoundary(t *testing.T) {
	base := tensorFrom(t, []int{3, 3, 3},
		[][]int{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}}, []float64{1, 2, 3})
	// One batch nonzero collides with base's (1,1,1), one is new, and the
	// batch itself repeats (0,2,1) twice — both kinds of duplicate must
	// collapse onto summed survivors.
	batch := tensorFrom(t, []int{3, 3, 3},
		[][]int{{1, 1, 1}, {0, 2, 1}, {0, 2, 1}}, []float64{10, 4, 6})

	merged, dups, err := AppendBatch(base, batch)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if dups != 2 {
		t.Errorf("merged duplicates = %d, want 2", dups)
	}
	if merged.NNZ() != 4 {
		t.Fatalf("merged nnz = %d, want 4", merged.NNZ())
	}
	// base's nonzeros keep their places, the cross-boundary collision
	// summed into base's; the batch's new coordinate follows at its first
	// occurrence.
	want := []struct {
		c [3]Index
		v float64
	}{{[3]Index{0, 0, 0}, 1}, {[3]Index{1, 1, 1}, 12}, {[3]Index{2, 2, 2}, 3}, {[3]Index{0, 2, 1}, 10}}
	for x, w := range want {
		c := [3]Index{merged.Inds[0][x], merged.Inds[1][x], merged.Inds[2][x]}
		if c != w.c || merged.Vals[x] != w.v {
			t.Errorf("nonzero %d = %v:%g, want %v:%g", x, c, merged.Vals[x], w.c, w.v)
		}
	}
	// Snapshot isolation: the inputs are untouched.
	if base.NNZ() != 3 || math.Abs(base.Vals[1]-2) > 0 {
		t.Errorf("base mutated by append: nnz=%d vals=%v", base.NNZ(), base.Vals)
	}
	if batch.NNZ() != 3 {
		t.Errorf("batch mutated by append: nnz=%d", batch.NNZ())
	}
}

func TestAppendBatchGrowsModes(t *testing.T) {
	base := tensorFrom(t, []int{2, 2, 2}, [][]int{{0, 0, 0}, {1, 1, 1}}, []float64{1, 2})
	batch := tensorFrom(t, []int{5, 2, 7}, [][]int{{4, 0, 6}}, []float64{9})
	merged, dups, err := AppendBatch(base, batch)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if dups != 0 {
		t.Errorf("dups = %d, want 0", dups)
	}
	wantDims := []int{5, 2, 7}
	for m, d := range merged.Dims {
		if d != wantDims[m] {
			t.Errorf("merged dim %d = %d, want %d", m, d, wantDims[m])
		}
	}
	if merged.NNZ() != 3 {
		t.Errorf("merged nnz = %d, want 3", merged.NNZ())
	}
	// Base dims must be unchanged (the old revision keeps its shape).
	if base.Dims[0] != 2 || base.Dims[2] != 2 {
		t.Errorf("base dims mutated: %v", base.Dims)
	}
}

func TestAppendBatchRejectsEmptyAndOrderMismatch(t *testing.T) {
	base := tensorFrom(t, []int{2, 2, 2}, [][]int{{0, 0, 0}}, []float64{1})
	empty := New([]int{2, 2, 2}, 0)
	if _, _, err := AppendBatch(base, empty); err == nil {
		t.Error("empty batch: want error, got nil")
	}
	matrix := tensorFrom(t, []int{2, 2}, [][]int{{0, 0}}, []float64{1})
	if _, _, err := AppendBatch(base, matrix); err == nil {
		t.Error("order mismatch: want error, got nil")
	}
}
