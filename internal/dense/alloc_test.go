package dense

import (
	"math"
	"testing"

	"repro/internal/parallel"
)

// The workspace contract: after construction (one warm-up call so lazily
// grown state settles), the iteration-loop routines perform zero heap
// allocations — serial and parallel. testing.AllocsPerRun measures across
// all goroutines, so the team workers are covered too.

func workspaceFixture(t *testing.T, tasks, rows, rank int) (*parallel.Team, *Workspace, *Matrix, *Matrix) {
	t.Helper()
	var team *parallel.Team
	if tasks > 1 {
		team = parallel.NewTeam(tasks)
		t.Cleanup(team.Close)
	}
	ws := NewWorkspace(team, parallel.NewArena(tasks), rank)
	a := NewMatrix(rows, rank)
	for i := range a.Data {
		a.Data[i] = 1 + float64(i%13)/13
	}
	return team, ws, ws0Matrix(rank), a
}

func ws0Matrix(rank int) *Matrix { return NewMatrix(rank, rank) }

func TestWorkspaceSyrkAllocationFree(t *testing.T) {
	for _, tasks := range []int{1, 4} {
		_, ws, gram, a := workspaceFixture(t, tasks, 500, 16)
		ws.Syrk(a, gram) // warm-up
		if n := testing.AllocsPerRun(10, func() { ws.Syrk(a, gram) }); n != 0 {
			t.Errorf("tasks=%d: Workspace.Syrk allocates %.1f per call, want 0", tasks, n)
		}
		// Parity with the allocating package-level route.
		want := NewMatrix(16, 16)
		Syrk(nil, a, want)
		if !gram.Equal(want, 1e-9) {
			t.Errorf("tasks=%d: Workspace.Syrk diverges from Syrk", tasks)
		}
	}
}

func TestWorkspaceNormalizeColumnsAllocationFree(t *testing.T) {
	for _, tasks := range []int{1, 4} {
		for _, kind := range []NormKind{Norm2, NormMax} {
			_, ws, _, a := workspaceFixture(t, tasks, 500, 16)
			lambda := make([]float64, 16)
			ws.NormalizeColumns(a, lambda, kind, nil) // warm-up
			if n := testing.AllocsPerRun(10, func() { ws.NormalizeColumns(a, lambda, kind, nil) }); n != 0 {
				t.Errorf("tasks=%d kind=%v: NormalizeColumns allocates %.1f per call, want 0",
					tasks, kind, n)
			}
		}
	}
}

func TestWorkspaceNormalizeColumnsMatchesPackageLevel(t *testing.T) {
	_, ws, _, a := workspaceFixture(t, 4, 321, 16)
	b := a.Clone()
	lws := make([]float64, 16)
	lpkg := make([]float64, 16)
	ws.NormalizeColumns(a, lws, Norm2, nil)
	NormalizeColumns(nil, b, lpkg, Norm2)
	if !a.Equal(b, 1e-9) {
		t.Fatal("normalized matrices diverge")
	}
	for j := range lws {
		if diff := lws[j] - lpkg[j]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("lambda[%d]: workspace %g vs package %g", j, lws[j], lpkg[j])
		}
	}
}

// TestWorkspaceNormalizeColumnsAcrossBlocks splits a matrix into two row
// blocks and normalizes each through its own workspace, with a reducer
// that folds in the other block's norm partials, as a distributed run's
// locales do: every block must end up scaled by its whole column's norm.
func TestWorkspaceNormalizeColumnsAcrossBlocks(t *testing.T) {
	const rows, split, rank = 300, 110, 8
	for _, kind := range []NormKind{Norm2, NormMax} {
		whole := randMatrix(rows, rank, 5)
		top := NewMatrixFrom(split, rank, append([]float64(nil), whole.Data[:split*rank]...))
		bottom := NewMatrixFrom(rows-split, rank, append([]float64(nil), whole.Data[split*rank:]...))
		partTop, partBottom := make([]float64, rank), make([]float64, rank)
		normBlock(top, partTop, kind, 0, top.Rows)
		normBlock(bottom, partBottom, kind, 0, bottom.Rows)
		want := make([]float64, rank)
		NormalizeColumns(nil, whole, want, kind)
		for _, b := range []struct {
			block *Matrix
			other foldIn
			lo    int
		}{{top, partBottom, 0}, {bottom, partTop, split}} {
			lambda := make([]float64, rank)
			NewWorkspace(nil, nil, rank).NormalizeColumns(b.block, lambda, kind, b.other)
			for j := range lambda {
				if math.Abs(lambda[j]-want[j]) > 1e-12*want[j] {
					t.Errorf("kind=%v rows from %d: lambda[%d] = %g, whole matrix %g", kind, b.lo, j, lambda[j], want[j])
				}
			}
			if !b.block.Equal(NewMatrixFrom(b.block.Rows, rank, whole.Data[b.lo*rank:(b.lo+b.block.Rows)*rank]), 1e-12) {
				t.Errorf("kind=%v rows from %d: block scaled unlike the whole matrix", kind, b.lo)
			}
		}
	}
}

// foldIn is a NormReducer standing in for one other row block: it folds
// that block's norm partials into the caller's.
type foldIn []float64

func (f foldIn) ReduceNorms(part []float64, kind NormKind) {
	foldNorms([][]float64{part, f}, part, kind)
}

func TestWorkspaceSolveNormalsAllocationFree(t *testing.T) {
	// Each task's row range ends in a partial panel block at tasks 1 and 4.
	const rows = 8*solveBlock + 7
	for _, rank := range []int{16, 35} {
		for _, tasks := range []int{1, 4} {
			team, ws, v, a := workspaceFixture(t, tasks, rows, rank)
			// SPD system: Gram of a well-conditioned matrix plus a ridge.
			Syrk(team, a, v)
			for i := 0; i < rank; i++ {
				v.Set(i, i, v.At(i, i)+1)
			}
			m := a.Clone()
			ws.SolveNormals(v, m) // warm-up (Cholesky fast path)
			if n := testing.AllocsPerRun(10, func() { ws.SolveNormals(v, m) }); n != 0 {
				t.Errorf("rank=%d tasks=%d: SolveNormals (Cholesky) allocates %.1f per call, want 0",
					rank, tasks, n)
			}
			// Rank-deficient V forces the eigen pseudo-inverse fallback, which
			// must also run out of the cached Jacobi scratch.
			v.Zero()
			ws.SolveNormals(v, m) // warm-up fallback
			if n := testing.AllocsPerRun(10, func() { ws.SolveNormals(v, m) }); n != 0 {
				t.Errorf("rank=%d tasks=%d: SolveNormals (pseudo-inverse) allocates %.1f per call, want 0",
					rank, tasks, n)
			}
		}
	}
}

func TestWorkspaceSolveNormalsMatchesPackageLevel(t *testing.T) {
	_, ws, v, a := workspaceFixture(t, 4, 123, 16)
	Syrk(nil, a, v)
	for i := 0; i < 16; i++ {
		v.Set(i, i, v.At(i, i)+0.5)
	}
	m1 := a.Clone()
	m2 := a.Clone()
	ws.SolveNormals(v, m1)
	SolveNormals(nil, v, m2)
	if d := m1.MaxAbsDiff(m2); d > 1e-10 {
		t.Fatalf("workspace solve diverges from package solve by %g", d)
	}
}

// TestWorkspacePseudoInverseMatchesPackageLevel checks PseudoInverseInto,
// which the workspace's solve fallback and the sampler's leverage refresh
// run on buffers they keep, against the package-level PseudoInverse, and
// that it allocates nothing.
func TestWorkspacePseudoInverseMatchesPackageLevel(t *testing.T) {
	_, _, v, a := workspaceFixture(t, 1, 64, 16)
	Syrk(nil, a, v)
	out, w, q := NewMatrix(16, 16), NewMatrix(16, 16), NewMatrix(16, 16)
	vals, inv := make([]float64, 16), make([]float64, 16)
	PseudoInverseInto(v, 0, out, w, q, vals, inv)
	want := PseudoInverse(v, 0)
	if d := out.MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("PseudoInverseInto diverges by %g", d)
	}
	if n := testing.AllocsPerRun(10, func() { PseudoInverseInto(v, 0, out, w, q, vals, inv) }); n != 0 {
		t.Errorf("PseudoInverseInto allocates %.1f per call, want 0", n)
	}
}

func TestHadamardOfGrams(t *testing.T) {
	r := 8
	grams := make([]*Matrix, 3)
	for m := range grams {
		grams[m] = NewMatrix(r, r)
		for i := range grams[m].Data {
			grams[m].Data[i] = float64((i+m)%7) + 1
		}
	}
	for skip := -1; skip < 3; skip++ {
		got := NewMatrix(r, r)
		HadamardOfGrams(got, grams, skip)
		want := NewMatrix(r, r)
		want.Fill(1)
		for m := range grams {
			if m != skip {
				HadamardProduct(want, grams[m])
			}
		}
		if !got.Equal(want, 0) {
			t.Fatalf("skip=%d: fused Hadamard-of-Grams diverges", skip)
		}
	}
}
