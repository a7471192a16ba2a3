package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func randMatrix(rows, cols int, seed int64) *Matrix {
	return NewRandomMatrix(rows, cols, rand.New(rand.NewSource(seed)))
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At mismatch")
	}
	row := m.Row(1)
	row[2] = 7
	if m.At(1, 2) != 7 {
		t.Error("Row is not a view")
	}
	cp := m.RowCopy(1)
	cp[2] = 9
	if m.At(1, 2) != 7 {
		t.Error("RowCopy aliases storage")
	}
	j := m.Jagged()
	j[1][2] = 11
	if m.At(1, 2) != 11 {
		t.Error("Jagged is not a view")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone aliases storage")
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := randMatrix(5, 3, 1)
	tr := m.Transpose()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestGemmAgainstManual(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := NewMatrix(2, 2)
	Gemm(a, b, c)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if math.Abs(c.Data[i]-v) > 1e-12 {
			t.Fatalf("Gemm[%d] = %g, want %g", i, c.Data[i], v)
		}
	}
}

func TestSyrkMatchesExplicitGram(t *testing.T) {
	for _, tasks := range []int{1, 3} {
		a := randMatrix(50, 6, 4)
		want := NewMatrix(6, 6)
		Gemm(a.Transpose(), a, want)
		got := NewMatrix(6, 6)
		team := parallel.NewTeam(tasks)
		Syrk(team, a, got)
		team.Close()
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Errorf("tasks=%d: syrk deviates by %g", tasks, d)
		}
		// Symmetry.
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatal("syrk result not symmetric")
				}
			}
		}
	}
}

func TestSyrkNilTeam(t *testing.T) {
	a := randMatrix(10, 3, 5)
	got := NewMatrix(3, 3)
	Syrk(nil, a, got)
	want := NewMatrix(3, 3)
	Gemm(a.Transpose(), a, want)
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Errorf("nil-team syrk deviates by %g", d)
	}
}

func TestHadamard(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{5, 6, 7, 8})
	HadamardProduct(a, b)
	want := []float64{5, 12, 21, 32}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("hadamard[%d] = %g, want %g", i, a.Data[i], v)
		}
	}
}

func TestKhatriRao(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(3, 2, []float64{5, 6, 7, 8, 9, 10})
	kr := KhatriRao(a, b)
	if kr.Rows != 6 || kr.Cols != 2 {
		t.Fatalf("shape %dx%d", kr.Rows, kr.Cols)
	}
	// Row (i*3+j) = a[i] ∘ b[j].
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for r := 0; r < 2; r++ {
				want := a.At(i, r) * b.At(j, r)
				if kr.At(i*3+j, r) != want {
					t.Fatalf("kr(%d,%d) wrong", i*3+j, r)
				}
			}
		}
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	// Build SPD matrix A = BᵀB + I and verify LLᵀ = A.
	b := randMatrix(12, 6, 7)
	a := NewMatrix(6, 6)
	Syrk(nil, b, a)
	for i := 0; i < 6; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	l := a.Clone()
	if err := Cholesky(l); err != nil {
		t.Fatal(err)
	}
	recon := NewMatrix(6, 6)
	Gemm(l, l.Transpose(), recon)
	if d := recon.MaxAbsDiff(a); d > 1e-10 {
		t.Errorf("LLᵀ deviates from A by %g", d)
	}
	// Strict upper triangle zeroed.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if l.At(i, j) != 0 {
				t.Fatal("upper triangle not zeroed")
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if err := Cholesky(a); err == nil {
		t.Error("indefinite matrix accepted")
	}
}

func TestCholeskySolve(t *testing.T) {
	b := randMatrix(10, 5, 8)
	a := NewMatrix(5, 5)
	Syrk(nil, b, a)
	for i := 0; i < 5; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	orig := a.Clone()
	if err := Cholesky(a); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2, 3, -4, 5}
	rhs := make([]float64, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			rhs[i] += orig.At(i, j) * x[j]
		}
	}
	CholeskySolve(a, rhs)
	for i := range x {
		if math.Abs(rhs[i]-x[i]) > 1e-8 {
			t.Fatalf("solve[%d] = %g, want %g", i, rhs[i], x[i])
		}
	}
}

func TestJacobiEigenReconstructs(t *testing.T) {
	b := randMatrix(14, 7, 9)
	a := NewMatrix(7, 7)
	Syrk(nil, b, a)
	vals, q := JacobiEigen(a)
	// Q diag(vals) Qᵀ = A.
	recon := NewMatrix(7, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			s := 0.0
			for k := 0; k < 7; k++ {
				s += q.At(i, k) * vals[k] * q.At(j, k)
			}
			recon.Set(i, j, s)
		}
	}
	if d := recon.MaxAbsDiff(a); d > 1e-8 {
		t.Errorf("eigen reconstruction deviates by %g", d)
	}
	// Q orthogonal.
	qtq := NewMatrix(7, 7)
	Gemm(q.Transpose(), q, qtq)
	if d := qtq.MaxAbsDiff(Identity(7)); d > 1e-8 {
		t.Errorf("QᵀQ deviates from I by %g", d)
	}
}

// penroseCheck verifies the four Moore-Penrose conditions.
func penroseCheck(t *testing.T, a, pinv *Matrix, tol float64) {
	t.Helper()
	n := a.Rows
	apa := NewMatrix(n, n)
	tmp := NewMatrix(n, n)
	Gemm(a, pinv, tmp)
	Gemm(tmp, a, apa)
	if d := apa.MaxAbsDiff(a); d > tol {
		t.Errorf("A·A†·A deviates from A by %g", d)
	}
	pap := NewMatrix(n, n)
	Gemm(pinv, a, tmp)
	Gemm(tmp, pinv, pap)
	if d := pap.MaxAbsDiff(pinv); d > tol {
		t.Errorf("A†·A·A† deviates from A† by %g", d)
	}
	// Symmetric input: A·A† and A†·A must be symmetric.
	Gemm(a, pinv, tmp)
	if d := tmp.MaxAbsDiff(tmp.Transpose()); d > tol {
		t.Errorf("A·A† asymmetric by %g", d)
	}
}

func TestPseudoInverseFullRank(t *testing.T) {
	b := randMatrix(12, 5, 10)
	a := NewMatrix(5, 5)
	Syrk(nil, b, a)
	for i := 0; i < 5; i++ {
		a.Set(i, i, a.At(i, i)+0.5)
	}
	pinv := PseudoInverse(a, 0)
	prod := NewMatrix(5, 5)
	Gemm(a, pinv, prod)
	if d := prod.MaxAbsDiff(Identity(5)); d > 1e-8 {
		t.Errorf("full-rank pinv: A·A† deviates from I by %g", d)
	}
}

func TestPseudoInverseRankDeficient(t *testing.T) {
	// Rank-2 Gram of a 5x2 matrix lifted to 5x5.
	b := randMatrix(5, 2, 11)
	a := NewMatrix(5, 5)
	g := NewMatrix(2, 2)
	Syrk(nil, b, g)
	// a = b g bᵀ is rank <= 2 and symmetric PSD.
	tmp := NewMatrix(5, 2)
	Gemm(b, g, tmp)
	Gemm(tmp, b.Transpose(), a)
	pinv := PseudoInverse(a, 1e-10)
	penroseCheck(t, a, pinv, 1e-7)
}

func TestSolveNormalsMatchesExplicitInverse(t *testing.T) {
	for _, tasks := range []int{1, 3} {
		b := randMatrix(30, 6, 12)
		v := NewMatrix(6, 6)
		Syrk(nil, b, v)
		for i := 0; i < 6; i++ {
			v.Set(i, i, v.At(i, i)+1)
		}
		m := randMatrix(40, 6, 13)
		want := m.Clone()
		pinv := PseudoInverse(v, 0)
		tmp := want.Clone()
		Gemm(tmp, pinv, want)

		got := m.Clone()
		team := parallel.NewTeam(tasks)
		SolveNormals(team, v, got)
		team.Close()
		if d := got.MaxAbsDiff(want); d > 1e-7 {
			t.Errorf("tasks=%d: SolveNormals deviates by %g", tasks, d)
		}
	}
}

func TestSolveNormalsSingularFallsBack(t *testing.T) {
	v := NewMatrix(4, 4) // all-zero: not PD, pinv is zero
	m := randMatrix(10, 4, 14)
	team := parallel.NewTeam(2)
	defer team.Close()
	SolveNormals(team, v, m)
	for _, x := range m.Data {
		if x != 0 {
			t.Fatal("singular solve should project to zero")
		}
	}
}

func TestSolveNormalsBLASMatchesTeam(t *testing.T) {
	b := randMatrix(20, 5, 15)
	v := NewMatrix(5, 5)
	Syrk(nil, b, v)
	for i := 0; i < 5; i++ {
		v.Set(i, i, v.At(i, i)+1)
	}
	m := randMatrix(30, 5, 16)
	want := m.Clone()
	team := parallel.NewTeam(1)
	SolveNormals(team, v, want)
	team.Close()

	for _, pool := range []*BLASPool{nil, {Threads: 1}, {Threads: 3}, {Threads: 2, SpinCount: 1000}} {
		got := m.Clone()
		SolveNormalsBLAS(pool, v, got)
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Errorf("pool %+v deviates by %g", pool, d)
		}
	}
}

func TestNormalizeColumns2Norm(t *testing.T) {
	for _, tasks := range []int{1, 4} {
		a := randMatrix(50, 4, 17)
		orig := a.Clone()
		lambda := make([]float64, 4)
		team := parallel.NewTeam(tasks)
		NormalizeColumns(team, a, lambda, Norm2)
		team.Close()
		for j := 0; j < 4; j++ {
			// Column norm is now 1; lambda restores the original.
			ss := 0.0
			for i := 0; i < 50; i++ {
				ss += a.At(i, j) * a.At(i, j)
				if math.Abs(a.At(i, j)*lambda[j]-orig.At(i, j)) > 1e-10 {
					t.Fatalf("λ·col does not restore original at (%d,%d)", i, j)
				}
			}
			if math.Abs(math.Sqrt(ss)-1) > 1e-10 {
				t.Fatalf("tasks=%d column %d norm %g", tasks, j, math.Sqrt(ss))
			}
		}
	}
}

func TestNormalizeColumnsMaxNormClamps(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{0.5, 3, -0.25, -4})
	lambda := make([]float64, 2)
	team := parallel.NewTeam(1)
	defer team.Close()
	NormalizeColumns(team, a, lambda, NormMax)
	if lambda[0] != 1 { // max |col 0| = 0.5 < 1 → clamped to 1
		t.Errorf("lambda[0] = %g, want 1 (clamp)", lambda[0])
	}
	if lambda[1] != 4 {
		t.Errorf("lambda[1] = %g, want 4", lambda[1])
	}
}

func TestKhatriRaoQuickDims(t *testing.T) {
	// Property: KhatriRao output shape and first/last entries.
	f := func(ar, br uint8) bool {
		ra := int(ar%6) + 1
		rb := int(br%6) + 1
		a := randMatrix(ra, 3, 18)
		b := randMatrix(rb, 3, 19)
		kr := KhatriRao(a, b)
		if kr.Rows != ra*rb || kr.Cols != 3 {
			return false
		}
		return kr.At(0, 0) == a.At(0, 0)*b.At(0, 0) &&
			kr.At(ra*rb-1, 2) == a.At(ra-1, 2)*b.At(rb-1, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
