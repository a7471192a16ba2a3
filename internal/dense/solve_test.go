package dense

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
)

// The blocked solve behind every SolveNormals entry point, checked against
// per-row CholeskySolve (its reference) and against the explicit
// pseudo-inverse product. The row counts straddle every block boundary.
// Run both kernel lanes: `go test` uses the dispatched native kernels
// where the CPU has them, `go test -tags purego` the pure-Go bodies.

var (
	solveRanks  = []int{1, 2, 3, 4, 5, 8, 16, 35, 64}
	solveTasks  = []int{1, 3}
	solveCounts = []int{0, 1, solveBlock - 1, solveBlock, solveBlock + 1, 3*solveBlock + 7}
)

// signedMatrix returns a rows×cols matrix with entries in [-1, 1).
func signedMatrix(rows, cols int, seed int64) *Matrix {
	m := randMatrix(rows, cols, seed)
	for i, x := range m.Data {
		m.Data[i] = 2*x - 1
	}
	return m
}

// randomSPD returns the Gram of a random (2r+3)×r matrix plus a unit ridge.
func randomSPD(r int, seed int64) *Matrix {
	v := NewMatrix(r, r)
	Syrk(nil, signedMatrix(2*r+3, r, seed), v)
	for i := 0; i < r; i++ {
		v.Set(i, i, v.At(i, i)+1)
	}
	return v
}

// nearSingularSPD returns Q·diag(λ)·Qᵀ for a random orthogonal Q, with λ
// log-spaced from 1 down to 1e-10.
func nearSingularSPD(r int, seed int64) *Matrix {
	s := signedMatrix(r, r, seed)
	sym := NewMatrix(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			sym.Set(i, j, s.At(i, j)+s.At(j, i))
		}
	}
	_, q := JacobiEigen(sym)
	eig := make([]float64, r)
	for k := range eig {
		eig[k] = 1e-10
		if r > 1 {
			eig[k] = math.Pow(10, -10*float64(k)/float64(r-1))
		}
	}
	v := NewMatrix(r, r)
	for i := 0; i < r; i++ {
		for j := i; j < r; j++ {
			s := 0.0
			for k := 0; k < r; k++ {
				s += q.At(i, k) * eig[k] * q.At(j, k)
			}
			v.Set(i, j, s)
			v.Set(j, i, s)
		}
	}
	return v
}

// rankDeficientGram returns a ridge-free Gram whose first column is zero
// and, from rank 3, whose last column repeats the second, so Cholesky
// fails and the pseudo-inverse projects out more than one direction.
func rankDeficientGram(r int, seed int64) *Matrix {
	b := signedMatrix(2*r+3, r, seed)
	for i := 0; i < b.Rows; i++ {
		b.Set(i, 0, 0)
		if r >= 3 {
			b.Set(i, r-1, b.At(i, 1))
		}
	}
	v := NewMatrix(r, r)
	Syrk(nil, b, v)
	return v
}

// perRowSolve is the reference: Cholesky once, then CholeskySolve per row.
func perRowSolve(t *testing.T, v, m *Matrix) *Matrix {
	t.Helper()
	l := v.Clone()
	if err := Cholesky(l); err != nil {
		t.Fatalf("reference Cholesky: %v", err)
	}
	x := m.Clone()
	for i := 0; i < x.Rows; i++ {
		CholeskySolve(l, x.Row(i))
	}
	return x
}

// workspaceSolve returns m·V† through Workspace.SolveNormals at tasks.
func workspaceSolve(tasks int, v, m *Matrix) *Matrix {
	var team *parallel.Team
	if tasks > 1 {
		team = parallel.NewTeam(tasks)
		defer team.Close()
	}
	x := m.Clone()
	NewWorkspace(team, parallel.NewArena(tasks), v.Rows).SolveNormals(v, x)
	return x
}

func maxAbsEntry(m *Matrix) float64 {
	s := 0.0
	for _, x := range m.Data {
		s = math.Max(s, math.Abs(x))
	}
	return s
}

// backwardError returns ‖X·V − M‖_F.
func backwardError(x, v, m *Matrix) float64 {
	xv := NewMatrix(x.Rows, x.Cols)
	Gemm(x, v, xv)
	for i := range xv.Data {
		xv.Data[i] -= m.Data[i]
	}
	return xv.FrobeniusNorm()
}

func TestBlockedSolveMatchesPerRow(t *testing.T) {
	for _, r := range solveRanks {
		v := randomSPD(r, int64(r))
		for _, rows := range solveCounts {
			m := signedMatrix(rows, r, int64(1000*r+rows))
			want := perRowSolve(t, v, m)
			tol := 1e-12 * maxAbsEntry(want)
			for _, tasks := range solveTasks {
				if d := workspaceSolve(tasks, v, m).MaxAbsDiff(want); d > tol {
					t.Errorf("rank %d rows %d tasks %d: blocked solve differs from per-row by %g (tol %g)",
						r, rows, tasks, d, tol)
				}
			}
		}
	}
}

// TestBlockedSolveNearSingular bounds the blocked solve's backward error
// ‖X·V − M‖_F by four times the per-row solve's on systems with condition
// number 1e10: the same substitution order keeps it as stable as the
// reference (the largest ratio measured is 1.95, at rank 1, where both
// errors sit at the eps·‖M‖_F floor the bound also allows).
func TestBlockedSolveNearSingular(t *testing.T) {
	const factor = 4
	for _, r := range solveRanks {
		v := nearSingularSPD(r, int64(r))
		for _, rows := range solveCounts {
			m := signedMatrix(rows, r, int64(2000*r+rows))
			want := perRowSolve(t, v, m)
			bound := factor * math.Max(backwardError(want, v, m), 0x1p-52*m.FrobeniusNorm())
			for _, tasks := range solveTasks {
				if e := backwardError(workspaceSolve(tasks, v, m), v, m); e > bound {
					t.Errorf("rank %d rows %d tasks %d: backward error %g, want <= %g",
						r, rows, tasks, e, bound)
				}
			}
		}
	}
}

func TestBlockedSolveRankDeficientFallsBack(t *testing.T) {
	for _, r := range solveRanks {
		v := rankDeficientGram(r, int64(r))
		if Cholesky(v.Clone()) == nil {
			t.Fatalf("rank %d: Cholesky accepted a Gram with a zero column", r)
		}
		pinv := PseudoInverse(v, 0)
		for _, rows := range solveCounts {
			m := signedMatrix(rows, r, int64(3000*r+rows))
			want := NewMatrix(rows, r)
			Gemm(m, pinv, want)
			tol := 1e-12 * maxAbsEntry(want)
			for _, tasks := range solveTasks {
				if d := workspaceSolve(tasks, v, m).MaxAbsDiff(want); d > tol {
					t.Errorf("rank %d rows %d tasks %d: fallback differs from M·V† by %g (tol %g)",
						r, rows, tasks, d, tol)
				}
			}
		}
	}
}

// TestBlockedSolveRowInvariance pins each row's result bitwise: it must not
// depend on the task count, the entry point, or the row's position in its
// block (every panel column runs the same kernel sequence, and the native
// kernels' scalar tails fuse multiply-adds like their vector bodies).
func TestBlockedSolveRowInvariance(t *testing.T) {
	const rows, shift = 3*solveBlock + 7, 37
	team := parallel.NewTeam(3)
	defer team.Close()
	for _, r := range solveRanks {
		for _, v := range []*Matrix{randomSPD(r, int64(r)), rankDeficientGram(r, int64(r))} {
			m := signedMatrix(rows+shift, r, int64(4000*r))
			tail := NewMatrixFrom(rows, r, m.Data[shift*r:])
			want := workspaceSolve(1, v, tail)

			pkg, blas := tail.Clone(), tail.Clone()
			SolveNormals(team, v, pkg)
			SolveNormalsBLAS(&BLASPool{Threads: 3}, v, blas)
			shifted := NewMatrixFrom(rows, r, workspaceSolve(3, v, m).Data[shift*r:])
			for name, got := range map[string]*Matrix{
				"tasks=3, rows shifted by 37": shifted,
				"package SolveNormals":        pkg,
				"SolveNormalsBLAS":            blas,
			} {
				requireBitwise(t, r, name, got, want)
			}
			ws := NewWorkspace(nil, nil, r)
			for i := 0; i < rows; i += 13 {
				one := NewMatrixFrom(1, r, tail.RowCopy(i))
				ws.SolveNormals(v, one)
				requireBitwise(t, r, "single row", one, NewMatrixFrom(1, r, want.RowCopy(i)))
			}
		}
	}
}

func requireBitwise(t *testing.T, r int, name string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("rank %d, %s: entry %d is %v, want %v bitwise", r, name, i, got.Data[i], want.Data[i])
		}
	}
}

// BenchmarkSolveNormals times one round of Workspace solves at the YELP 1/8
// twin's factor shapes (5125, 1375 and 9375 rows) at tasks=2, the solve
// share of a cpd-yelp-alto iteration. Each solve starts from a fresh copy
// of M, as in the iteration.
func BenchmarkSolveNormals(b *testing.B) {
	for _, rank := range []int{35, 16} {
		b.Run(fmt.Sprintf("rank=%d", rank), func(b *testing.B) {
			team := parallel.NewTeam(2)
			defer team.Close()
			ws := NewWorkspace(team, parallel.NewArena(2), rank)
			v := randomSPD(rank, 1)
			var src, dst []*Matrix
			for i, rows := range []int{5125, 1375, 9375} {
				src = append(src, signedMatrix(rows, rank, int64(i)))
				dst = append(dst, NewMatrix(rows, rank))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, m := range dst {
					m.CopyFrom(src[j])
					ws.SolveNormals(v, m)
				}
			}
		})
	}
}
