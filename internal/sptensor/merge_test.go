package sptensor

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestMergeDuplicates(t *testing.T) {
	tt := New([]int{4, 4, 4}, 5)
	coords := [][3]Index{{1, 2, 3}, {0, 0, 0}, {1, 2, 3}, {2, 1, 0}, {1, 2, 3}}
	for x, c := range coords {
		for m := 0; m < 3; m++ {
			tt.Inds[m][x] = c[m]
		}
		tt.Vals[x] = float64(x + 1)
	}
	if merged := MergeDuplicates(tt); merged != 2 {
		t.Fatalf("merged %d duplicates, want 2", merged)
	}
	if tt.NNZ() != 3 {
		t.Fatalf("nnz %d after merge, want 3", tt.NNZ())
	}
	// (1,2,3) appeared with values 1, 3, 5 → 9.
	found := false
	for x := 0; x < tt.NNZ(); x++ {
		if tt.Inds[0][x] == 1 && tt.Inds[1][x] == 2 && tt.Inds[2][x] == 3 {
			found = true
			if tt.Vals[x] != 9 {
				t.Errorf("merged value %g, want 9", tt.Vals[x])
			}
		}
	}
	if !found {
		t.Error("merged coordinate lost")
	}
}

func TestMergeDuplicatesPreservesOrderWhenClean(t *testing.T) {
	tt := New([]int{4, 4}, 3)
	coords := [][2]Index{{3, 1}, {0, 2}, {1, 0}} // deliberately unsorted
	for x, c := range coords {
		tt.Inds[0][x], tt.Inds[1][x] = c[0], c[1]
		tt.Vals[x] = float64(x)
	}
	if merged := MergeDuplicates(tt); merged != 0 {
		t.Fatalf("merged %d on a duplicate-free tensor", merged)
	}
	for x, c := range coords {
		if tt.Inds[0][x] != c[0] || tt.Inds[1][x] != c[1] || tt.Vals[x] != float64(x) {
			t.Fatalf("duplicate-free tensor reordered at %d", x)
		}
	}
}

func TestMergeDuplicatesSortedFastPath(t *testing.T) {
	// Already lexicographically sorted with adjacent duplicates: the
	// in-place linear pass must compact without reordering survivors.
	tt := New([]int{5, 5}, 5)
	coords := [][2]Index{{0, 1}, {0, 1}, {1, 0}, {1, 0}, {2, 4}}
	for x, c := range coords {
		tt.Inds[0][x], tt.Inds[1][x] = c[0], c[1]
		tt.Vals[x] = float64(x + 1)
	}
	if merged := MergeDuplicates(tt); merged != 2 {
		t.Fatalf("merged %d, want 2", merged)
	}
	wantCoords := [][2]Index{{0, 1}, {1, 0}, {2, 4}}
	wantVals := []float64{3, 7, 5}
	if tt.NNZ() != 3 {
		t.Fatalf("nnz %d, want 3", tt.NNZ())
	}
	for x := range wantCoords {
		if tt.Inds[0][x] != wantCoords[x][0] || tt.Inds[1][x] != wantCoords[x][1] || tt.Vals[x] != wantVals[x] {
			t.Errorf("survivor %d = (%d,%d)=%g, want (%d,%d)=%g", x,
				tt.Inds[0][x], tt.Inds[1][x], tt.Vals[x],
				wantCoords[x][0], wantCoords[x][1], wantVals[x])
		}
	}
	if err := tt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadMergesDuplicateCoordinates is the regression test for the
// load path: duplicated lines in a .tns file (and duplicated records in
// the binary container) must accumulate instead of inflating nnz.
func TestLoadMergesDuplicateCoordinates(t *testing.T) {
	text := "2 3 1 1.5\n1 1 1 1.0\n2 3 1 2.0\n2 3 1 0.5\n"
	got, err := LoadTensorReader(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 2 {
		t.Fatalf("text load: nnz %d, want 2 (duplicates merged)", got.NNZ())
	}
	sum := 0.0
	for x := 0; x < got.NNZ(); x++ {
		if got.Inds[0][x] == 1 && got.Inds[1][x] == 2 && got.Inds[2][x] == 0 {
			sum = got.Vals[x]
		}
	}
	if sum != 4.0 {
		t.Errorf("text load: duplicate values summed to %g, want 4", sum)
	}

	// Binary path: write a tensor that carries duplicates (the writer does
	// not merge; only loading does).
	dup := New([]int{3, 3}, 3)
	dup.Inds[0] = []Index{2, 2, 0}
	dup.Inds[1] = []Index{1, 1, 0}
	dup.Vals = []float64{1, 2, 3}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, dup); err != nil {
		t.Fatal(err)
	}
	rb, err := LoadTensorReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rb.NNZ() != 2 {
		t.Fatalf("binary load: nnz %d, want 2", rb.NNZ())
	}
	for x := 0; x < rb.NNZ(); x++ {
		if rb.Inds[0][x] == 2 && rb.Vals[x] != 3 {
			t.Errorf("binary load: merged value %g, want 3", rb.Vals[x])
		}
	}
}

// mergeDuplicatesRef is the comparison-sort MergeDuplicates that the radix
// path replaced, kept as the differential reference. Its sort.Slice
// breaks coordinate ties by nonzero id, so duplicate values are summed in
// input order, as the stable radix sort sums them.
func mergeDuplicatesRef(t *Tensor) int {
	n := t.NNZ()
	if n < 2 {
		return 0
	}
	order := t.NModes()
	cmp := func(x, y int) int {
		for m := 0; m < order; m++ {
			if t.Inds[m][x] != t.Inds[m][y] {
				if t.Inds[m][x] < t.Inds[m][y] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	sorted := true
	for i := 1; i < n; i++ {
		if cmp(i-1, i) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return mergeAdjacent(t, cmp)
	}

	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		if c := cmp(perm[a], perm[b]); c != 0 {
			return c < 0
		}
		return perm[a] < perm[b]
	})
	dups := 0
	for i := 1; i < n; i++ {
		if cmp(perm[i-1], perm[i]) == 0 {
			dups++
		}
	}
	if dups == 0 {
		return 0
	}
	outInds := make([][]Index, order)
	for m := range outInds {
		outInds[m] = make([]Index, 0, n-dups)
	}
	outVals := make([]float64, 0, n-dups)
	for i := 0; i < n; {
		x := perm[i]
		v := t.Vals[x]
		j := i + 1
		for j < n && cmp(x, perm[j]) == 0 {
			v += t.Vals[perm[j]]
			j++
		}
		for m := 0; m < order; m++ {
			outInds[m] = append(outInds[m], t.Inds[m][x])
		}
		outVals = append(outVals, v)
		i = j
	}
	t.Inds = outInds
	t.Vals = outVals
	return dups
}

// checkMergeMatchesRef merges a clone of in with MergeDuplicates and
// another with the reference, and fails unless the duplicate counts and
// the resulting nonzeros (order, coordinates, value bits) agree.
func checkMergeMatchesRef(t testing.TB, in *Tensor) {
	t.Helper()
	got, want := in.Clone(), in.Clone()
	gotDups, wantDups := MergeDuplicates(got), mergeDuplicatesRef(want)
	if gotDups != wantDups || got.NNZ() != want.NNZ() {
		t.Fatalf("merged %d duplicates to %d nonzeros, reference %d to %d",
			gotDups, got.NNZ(), wantDups, want.NNZ())
	}
	for x := 0; x < got.NNZ(); x++ {
		for m := range got.Inds {
			if got.Inds[m][x] != want.Inds[m][x] {
				t.Fatalf("nonzero %d mode %d: index %d, reference %d", x, m, got.Inds[m][x], want.Inds[m][x])
			}
		}
		if math.Float64bits(got.Vals[x]) != math.Float64bits(want.Vals[x]) {
			t.Fatalf("nonzero %d: value %v, reference %v", x, got.Vals[x], want.Vals[x])
		}
	}
}

// TestMergeDuplicatesMatchesReference runs the radix path against the
// comparison-sort reference on shuffled tensors: 2-way and 3-or-more-way
// duplicates whose values differ in magnitude (so summation order shows
// in the bits), order 3 and order 5 with 2^31-wide modes, and the radix
// edge cases (n = 0 and 1, all coordinates equal, only the high byte
// varying).
func TestMergeDuplicatesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	build := func(dims []int, n int, coord func(m int) Index) *Tensor {
		tt := New(dims, n)
		for x := 0; x < n; x++ {
			for m := range dims {
				tt.Inds[m][x] = coord(m)
			}
			tt.Vals[x] = math.Ldexp(rng.Float64()-0.5, rng.Intn(60)-30)
		}
		return tt
	}
	wide := []int{1 << 31, 1 << 31, 1 << 31, 1 << 31, 1 << 31}
	wideCoord := func(int) Index {
		return []Index{0, 255, 1 << 24, 1<<31 - 1, 1<<31 - 256}[rng.Intn(5)]
	}
	cases := []struct {
		name string
		t    *Tensor
	}{
		{"empty", New([]int{3, 3, 3}, 0)},
		{"one", build([]int{3, 3, 3}, 1, func(m int) Index { return Index(m) })},
		{"2-way", build([]int{300, 200, 100}, 3000, func(m int) Index {
			return Index(rng.Intn([]int{300, 200, 100}[m]))
		})},
		{"3-or-more-way", build([]int{3, 4, 5}, 2000, func(m int) Index { return Index(rng.Intn(3 + m)) })},
		{"all equal", build([]int{9, 9, 9}, 700, func(int) Index { return 8 })},
		{"high byte only", build([]int{1 << 31, 1 << 31, 1 << 31}, 900, func(int) Index {
			return Index(rng.Intn(4)) << 24
		})},
		{"order-5 wide", build(wide, 3000, wideCoord)},
		{"order-5 wide duplicate-free", build(wide, 3000, func(int) Index { return Index(rng.Int31()) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.t.Validate(); err != nil {
				t.Fatal(err)
			}
			checkMergeMatchesRef(t, tc.t)
		})
	}
}

// TestMergeDuplicatesScratchBound pins the unsorted, duplicate-free path
// at 8 bytes per nonzero of allocation (the int32 permutation and the
// radix sort's one swap buffer) plus a constant, and checks that it
// leaves the tensor untouched.
func TestMergeDuplicatesScratchBound(t *testing.T) {
	const n = 1 << 18
	tt := Random([]int{1 << 20, 1 << 12, 1 << 16}, n, 9)
	rand.New(rand.NewSource(2)).Shuffle(tt.NNZ(), tt.Swap)
	before := tt.Clone()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dups := MergeDuplicates(tt)
	runtime.ReadMemStats(&m1)
	if dups != 0 {
		t.Fatalf("merged %d duplicates in a duplicate-free tensor", dups)
	}
	assertTensorsEqual(t, tt, before)
	for x := range tt.Vals {
		if tt.Vals[x] != before.Vals[x] {
			t.Fatalf("value %d changed", x)
		}
	}
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(8*tt.NNZ()+64<<10); got > limit {
		t.Errorf("allocated %d bytes for %d nonzeros, want at most %d (8 B/nnz + 64 KiB)", got, tt.NNZ(), limit)
	}
}
