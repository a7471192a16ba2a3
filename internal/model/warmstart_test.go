package model

import (
	"math"
	"testing"

	"repro/internal/sptensor"
)

// TestKruskalRoundTrip pins the warm-start extraction: the Kruskal tensor
// reconstructed from the serving slabs evaluates identically (1e-12) to the
// source model at every coordinate, including under negative weights and
// dead components.
func TestKruskalRoundTrip(t *testing.T) {
	dims := []int{9, 7, 5}
	k := testKruskal(t, dims, 6, 11)
	k.Lambda[2] = -1.25 // sign folded into mode 0
	k.Lambda[4] = 0     // dead component stays dead
	m, err := Build(k)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rt := m.Kruskal()
	if err := rt.Validate(); err != nil {
		t.Fatalf("round-tripped tensor invalid: %v", err)
	}
	if rt.Rank() != 6 || rt.Order() != 3 {
		t.Fatalf("round-trip shape: rank %d order %d", rt.Rank(), rt.Order())
	}
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for l := 0; l < dims[2]; l++ {
				coord := []sptensor.Index{sptensor.Index(i), sptensor.Index(j), sptensor.Index(l)}
				got, want := rt.At(coord), directAt(k, []int{i, j, l})
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("Kruskal().At(%v) = %.15g, source = %.15g", coord, got, want)
				}
			}
		}
	}
	// No shared storage: mutating the reconstruction must not reach the
	// model's slabs.
	rt.Factors[0].Data[0] += 100
	if got := m.Row(0, 0)[0]; got == rt.Factors[0].Data[0] {
		t.Fatal("Kruskal() shares factor storage with the model")
	}
}

// TestKruskalSeedsRebuild closes the publish→seed loop: building a model
// from the reconstruction dedupes onto different content (weights folded)
// but reproduces the same values, so warm-start chains do not drift.
func TestKruskalSeedsRebuild(t *testing.T) {
	k := testKruskal(t, []int{6, 5, 4}, 3, 7)
	m1, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(m1.Kruskal())
	if err != nil {
		t.Fatalf("rebuilding from reconstruction: %v", err)
	}
	ws := NewWorkspace()
	for _, coord := range [][]int{{0, 0, 0}, {5, 4, 3}, {2, 1, 3}} {
		a, _ := m1.At(ws, coord)
		b, _ := m2.At(ws, coord)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("rebuilt model drifts at %v: %.15g vs %.15g", coord, a, b)
		}
	}
}
