package alto

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

func TestEncodingRoundTrip(t *testing.T) {
	cases := [][]int{
		{5, 4, 3},
		{1, 8, 1},
		{41000, 11000, 75000},
		{7, 7, 7, 7},
		{100, 3, 1000, 20, 9},
		{1 << 20, 1 << 20, 1 << 20},         // 60 bits, single word
		{1 << 24, 1 << 24, 1 << 24},         // 72 bits, two words
		{1 << 30, 1 << 30, 1 << 30, 1 << 7}, // 97 bits, two words
	}
	for _, dims := range cases {
		enc, err := NewEncoding(dims)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		rng := rand.New(rand.NewSource(7))
		coord := make([]sptensor.Index, len(dims))
		got := make([]sptensor.Index, len(dims))
		for trial := 0; trial < 200; trial++ {
			for m, d := range dims {
				coord[m] = sptensor.Index(rng.Intn(d))
			}
			lo, hi := enc.Linearize(coord)
			if !enc.Wide() && hi != 0 {
				t.Fatalf("%v: narrow encoding produced high bits", dims)
			}
			enc.Delinearize(lo, hi, got)
			for m := range dims {
				if got[m] != coord[m] {
					t.Fatalf("%v: mode %d: %d -> (%x,%x) -> %d", dims, m, coord[m], hi, lo, got[m])
				}
			}
		}
	}
}

func TestEncodingPreservesSortOrderPerMode(t *testing.T) {
	// Within fixed other-mode coordinates, increasing one mode's index must
	// increase the linearized index (bit interleaving is order-preserving
	// per mode).
	enc, err := NewEncoding([]int{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	coord := []sptensor.Index{13, 0, 57}
	var prev uint64
	for i := 0; i < 64; i++ {
		coord[1] = sptensor.Index(i)
		lo, _ := enc.Linearize(coord)
		if i > 0 && lo <= prev {
			t.Fatalf("linearized index not monotone in mode 1 at %d", i)
		}
		prev = lo
	}
}

func TestEncodingRejectsOverwideDims(t *testing.T) {
	// 5 modes near the int32 limit: 5 x 31 = 155 bits > 128.
	huge := 1 << 31
	if _, err := NewEncoding([]int{huge, huge, huge, huge, huge}); err == nil {
		t.Fatal("155-bit encoding accepted")
	}
	if _, err := NewEncoding(nil); err == nil {
		t.Fatal("zero-mode encoding accepted")
	}
	if _, err := NewEncoding([]int{4, 0, 4}); err == nil {
		t.Fatal("zero-length mode accepted")
	}
}

func TestFromCOORoundTrip(t *testing.T) {
	for _, dims := range [][]int{
		{12, 9, 7},
		{6, 5, 4, 3},
		{1 << 24, 1 << 24, 1 << 24}, // wide path
	} {
		tt := sptensor.Random(dims, 300, 11)
		at, err := FromCOO(tt, nil)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if at.NNZ() != tt.NNZ() {
			t.Fatalf("%v: nnz %d != %d", dims, at.NNZ(), tt.NNZ())
		}
		back := at.ToCOO()
		if err := back.Validate(); err != nil {
			t.Fatalf("%v: reconstructed tensor invalid: %v", dims, err)
		}
		// Linearization only reorders nonzeros: compare them as a set.
		key := func(x *sptensor.Tensor, i int) [8]sptensor.Index {
			var k [8]sptensor.Index
			for m := range x.Inds {
				k[m] = x.Inds[m][i]
			}
			return k
		}
		want := make(map[[8]sptensor.Index]float64, tt.NNZ())
		for i := 0; i < tt.NNZ(); i++ {
			want[key(tt, i)] = tt.Vals[i]
		}
		for i := 0; i < back.NNZ(); i++ {
			v, ok := want[key(back, i)]
			if !ok || v != back.Vals[i] {
				t.Fatalf("%v: nonzero %d not in original (val %g)", dims, i, back.Vals[i])
			}
		}
	}
}

// keyOrder returns the nonzero ids ordered by (hi, lo) with ids breaking
// ties: the comparison-sort reference for FromCOO's radix sort.
func keyOrder(lo, hi []uint64) []int {
	ids := make([]int, len(lo))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		x, y := ids[a], ids[b]
		if hi != nil && hi[x] != hi[y] {
			return hi[x] < hi[y]
		}
		if lo[x] != lo[y] {
			return lo[x] < lo[y]
		}
		return x < y
	})
	return ids
}

// TestFromCOOMatchesComparisonSort pins FromCOO's radix sort bitwise to a
// comparison sort by (hi, lo) on shuffled input, narrow and wide. Keys
// are unique except in the dups case, where equal keys must keep their
// input order (the sort is stable).
func TestFromCOOMatchesComparisonSort(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
		nnz  int
		dups bool
	}{
		{"empty", []int{5, 4, 3}, 0, false},
		{"one", []int{5, 4, 3}, 1, false},
		{"order3", []int{12, 9, 7}, 300, false},
		{"order3-skewed", []int{41086, 11, 204}, 3000, false},
		{"order5", []int{31, 17, 1000, 2, 90}, 2000, false},
		{"wide", []int{1 << 24, 1 << 24, 1 << 24}, 3000, false},
		{"dups", []int{6, 5, 4}, 400, true},
		{"wide-dups", []int{1 << 24, 1 << 24, 1 << 24}, 400, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tt := sptensor.Random(tc.dims, tc.nnz, 13)
			if tc.dups {
				// Repeat every nonzero's coordinates with a new value.
				n := tt.NNZ()
				for m := range tt.Inds {
					tt.Inds[m] = append(tt.Inds[m], tt.Inds[m][:n]...)
				}
				for x := 0; x < n; x++ {
					tt.Vals = append(tt.Vals, float64(x))
				}
			}
			rng.Shuffle(tt.NNZ(), tt.Swap)
			in := tt.Clone()
			at, err := FromCOO(tt, nil)
			if err != nil {
				t.Fatal(err)
			}
			for m := range tt.Inds {
				for x := range tt.Inds[m] {
					if tt.Inds[m][x] != in.Inds[m][x] || tt.Vals[x] != in.Vals[x] {
						t.Fatal("FromCOO modified its input")
					}
				}
			}
			n := tt.NNZ()
			lo := make([]uint64, n)
			var hi []uint64
			if at.Enc.Wide() {
				hi = make([]uint64, n)
			}
			for x := 0; x < n; x++ {
				l, h := at.Enc.linearizeSegs(tt.Coord(x))
				lo[x] = l
				if hi != nil {
					hi[x] = h
				}
			}
			if at.NNZ() != n || len(at.Lo) != n || (hi == nil) != (at.Hi == nil) {
				t.Fatalf("shape: nnz %d, %d lo words, hi %v; want %d, wide %v",
					at.NNZ(), len(at.Lo), at.Hi != nil, n, hi != nil)
			}
			for i, x := range keyOrder(lo, hi) {
				if at.Lo[i] != lo[x] || at.Vals[i] != tt.Vals[x] || (hi != nil && at.Hi[i] != hi[x]) {
					t.Fatalf("position %d holds nonzero (%#x, %g), want input nonzero %d (%#x, %g)",
						i, at.Lo[i], at.Vals[i], x, lo[x], tt.Vals[x])
				}
			}
		})
	}
}

// TestFromCOOTeamInvariant builds each fixture serially and on teams of 1,
// 2, 3 and 7 tasks and requires bitwise-equal builds: keys, values, run
// counts, block bounds and Window over random ranges. The fixtures span
// orders 2 to 5, narrow and wide keys, nonzero counts that are not a
// multiple of delinTile, fewer nonzeros than tasks, and duplicate keys
// (which keep their input order). The larger fixtures hold more than
// sptensor.SortPerm's serial cutoff, so the teams split the sort too.
func TestFromCOOTeamInvariant(t *testing.T) {
	teams := []*parallel.Team{parallel.NewTeam(1), parallel.NewTeam(2), parallel.NewTeam(3), parallel.NewTeam(7)}
	for _, team := range teams {
		defer team.Close()
	}
	for _, tc := range []struct {
		name string
		dims []int
		nnz  int
		dups bool
	}{
		{"empty", []int{5, 4, 3}, 0, false},
		{"one", []int{5, 4, 3}, 1, false},
		{"fewer-than-tasks", []int{5, 4, 3}, 3, false},
		{"order2", []int{3000, 77}, 17001, false},
		{"order2-dups", []int{50, 40}, 700, true},
		{"order3", []int{41086, 11, 204}, 20037, false},
		{"order3-wide-dups", []int{1 << 30, 1 << 30, 1 << 25}, 9100, true},
		{"order4-wide", []int{1 << 20, 1 << 20, 1 << 20, 1 << 16}, 18005, false},
		{"order5-dups", []int{31, 17, 1000, 2, 90}, 8777, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			tt := sptensor.Random(tc.dims, tc.nnz, 23)
			if tc.dups {
				n := tt.NNZ()
				for m := range tt.Inds {
					tt.Inds[m] = append(tt.Inds[m], tt.Inds[m][:n]...)
				}
				for x := 0; x < n; x++ {
					tt.Vals = append(tt.Vals, float64(x)+0.5)
				}
			}
			rng.Shuffle(tt.NNZ(), tt.Swap)
			want, err := FromCOO(tt, nil)
			if err != nil {
				t.Fatal(err)
			}
			n, order := want.NNZ(), want.Order()
			ranges := [][2]int{{0, n}, {0, 0}}
			for i := 0; i < 20 && n > 0; i++ {
				a, b := rng.Intn(n+1), rng.Intn(n+1)
				ranges = append(ranges, [2]int{min(a, b), max(a, b)})
			}
			for _, team := range teams {
				got, err := FromCOO(tt, team)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("tasks=%d", team.N())
				if !slices.Equal(got.Lo, want.Lo) || !slices.Equal(got.Hi, want.Hi) {
					t.Fatalf("%s: keys differ from the serial build", where)
				}
				for x := range want.Vals {
					if math.Float64bits(got.Vals[x]) != math.Float64bits(want.Vals[x]) {
						t.Fatalf("%s: value %d is %v, serial build %v", where, x, got.Vals[x], want.Vals[x])
					}
				}
				if !slices.Equal(got.runs, want.runs) {
					t.Fatalf("%s: runs %v, serial build %v", where, got.runs, want.runs)
				}
				if !slices.Equal(got.blockMin, want.blockMin) || !slices.Equal(got.blockMax, want.blockMax) {
					t.Fatalf("%s: block bounds differ from the serial build", where)
				}
				for _, r := range ranges {
					glo, ghi := make([]int, order), make([]int, order)
					wlo, whi := make([]int, order), make([]int, order)
					got.Window(r[0], r[1], glo, ghi)
					want.Window(r[0], r[1], wlo, whi)
					if !slices.Equal(glo, wlo) || !slices.Equal(ghi, whi) {
						t.Fatalf("%s: Window%v = %v..%v, serial build %v..%v", where, r, glo, ghi, wlo, whi)
					}
				}
			}
		})
	}
}

// TestLinearizeAllocationFree pins Encoding.Linearize at zero
// allocations, narrow and wide.
func TestLinearizeAllocationFree(t *testing.T) {
	for _, dims := range [][]int{{41086, 11, 204}, {1 << 24, 1 << 24, 1 << 24}} {
		enc, err := NewEncoding(dims)
		if err != nil {
			t.Fatal(err)
		}
		coord := []sptensor.Index{3, 5, 7}
		if allocs := testing.AllocsPerRun(100, func() { enc.Linearize(coord) }); allocs != 0 {
			t.Errorf("%v: Linearize allocates %v times per call", dims, allocs)
		}
	}
}

// naiveMTTKRP is the quadratic reference: out[i_mode] += v · ∘ rows.
func naiveMTTKRP(t *sptensor.Tensor, factors []*dense.Matrix, mode int, out *dense.Matrix) {
	out.Zero()
	rank := out.Cols
	for x := 0; x < t.NNZ(); x++ {
		acc := make([]float64, rank)
		for j := range acc {
			acc[j] = t.Vals[x]
		}
		for m := range t.Inds {
			if m == mode {
				continue
			}
			row := factors[m].Row(int(t.Inds[m][x]))
			for j := range acc {
				acc[j] *= row[j]
			}
		}
		dst := out.Row(int(t.Inds[mode][x]))
		for j := range dst {
			dst[j] += acc[j]
		}
	}
}

func randomFactors(dims []int, rank int, seed int64) []*dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	factors := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		factors[m] = dense.NewRandomMatrix(d, rank, rng)
	}
	return factors
}

// TestOperatorMatchesReferenceAcrossOrdersAndStrategies runs every forced
// strategy and auto against the coordinate-form reference, at team sizes
// that split the nonzeros unevenly and at more tasks than nonzeros.
func TestOperatorMatchesReferenceAcrossOrdersAndStrategies(t *testing.T) {
	const rank = 5
	fixtures := differentialTensors(t)
	for _, dims := range [][]int{
		{15, 11, 9},
		{10, 8, 6, 5},
		{7, 6, 5, 4, 3},
	} {
		at, err := FromCOO(sptensor.Random(dims, 500, 21), nil)
		if err != nil {
			t.Fatal(err)
		}
		fixtures[fmt.Sprint(dims)] = at
	}
	for name, at := range fixtures {
		tt := at.ToCOO()
		dims := tt.Dims
		factors := randomFactors(dims, rank, 23)
		want := make([]*dense.Matrix, len(dims))
		for mode := range dims {
			want[mode] = dense.NewMatrix(dims[mode], rank)
			mttkrp.COO(tt, factors, mode, want[mode])
		}
		teams := []int{1, 2, 3, 4, 7}
		if at.NNZ() < 7 {
			teams = append(teams, at.NNZ()+3)
		}
		for _, tasks := range teams {
			team := parallel.NewTeam(tasks)
			for _, strat := range []mttkrp.ConflictStrategy{
				mttkrp.StrategyAuto, mttkrp.StrategyLock, mttkrp.StrategyPrivatize, mttkrp.StrategyTile,
			} {
				op := NewOperator(at, team, rank, mttkrp.Options{
					Strategy: strat, LockKind: locks.Spin,
				})
				for mode := range dims {
					got := dense.NewMatrix(dims[mode], rank)
					op.Apply(mode, factors, got)
					if d := got.MaxAbsDiff(want[mode]); d > 1e-9 {
						t.Errorf("%s strat=%v tasks=%d mode=%d: deviates by %g",
							name, strat, tasks, mode, d)
					}
					if got, want := op.LastStrategy(), op.StrategyFor(mode); got != want {
						t.Errorf("LastStrategy %v != StrategyFor %v", got, want)
					}
					if tasks > 1 && (strat == mttkrp.StrategyLock || strat == mttkrp.StrategyPrivatize) &&
						op.LastStrategy() != strat {
						t.Errorf("%s tasks=%d: forced %v ran %v", name, tasks, strat, op.LastStrategy())
					}
				}
			}
			team.Close()
		}
	}
}

func TestOperatorDegenerateShapes(t *testing.T) {
	const rank = 3
	cases := []*sptensor.Tensor{}
	// Single nonzero.
	one := sptensor.New([]int{5, 4, 3}, 1)
	one.Inds[0][0], one.Inds[1][0], one.Inds[2][0] = 2, 3, 1
	one.Vals[0] = 2.5
	cases = append(cases, one)
	// Unit dimensions collapse modes to zero bits.
	unit := sptensor.New([]int{1, 8, 1}, 8)
	for x := 0; x < 8; x++ {
		unit.Inds[1][x] = sptensor.Index(x)
		unit.Vals[x] = float64(x + 1)
	}
	cases = append(cases, unit)
	// Hub row: every nonzero hits mode-1 row 0.
	hub := sptensor.Random([]int{9, 1, 9}, 60, 31)
	cases = append(cases, hub)

	for _, tt := range cases {
		at, err := FromCOO(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		factors := randomFactors(tt.Dims, rank, 37)
		for _, tasks := range []int{1, 4, 16} {
			team := parallel.NewTeam(tasks)
			op := NewOperator(at, team, rank, mttkrp.Options{LockKind: locks.Spin})
			for mode := 0; mode < tt.NModes(); mode++ {
				want := dense.NewMatrix(tt.Dims[mode], rank)
				naiveMTTKRP(tt, factors, mode, want)
				got := dense.NewMatrix(tt.Dims[mode], rank)
				op.Apply(mode, factors, got)
				if d := got.MaxAbsDiff(want); d > 1e-9 {
					t.Errorf("%v tasks=%d mode=%d: deviates by %g", tt, tasks, mode, d)
				}
			}
			team.Close()
		}
	}
}

func TestReuseStatsDriveDecision(t *testing.T) {
	// A tensor where mode 0 has a single index: its linearized runs
	// collapse to 1 run (maximal reuse), while mode 2 varies fastest.
	tt := sptensor.New([]int{4, 4, 64}, 64)
	for x := 0; x < 64; x++ {
		tt.Inds[0][x] = 1
		tt.Inds[1][x] = sptensor.Index(x % 4)
		tt.Inds[2][x] = sptensor.Index(x)
		tt.Vals[x] = 1
	}
	at, err := FromCOO(tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if at.Runs(0) != 1 {
		t.Errorf("constant mode 0 has %d runs, want 1", at.Runs(0))
	}
	if at.Reuse(0) != 64 {
		t.Errorf("mode 0 reuse = %g, want 64", at.Reuse(0))
	}
	if at.Runs(2) < at.Runs(0) {
		t.Errorf("fast-varying mode 2 has fewer runs (%d) than constant mode 0 (%d)",
			at.Runs(2), at.Runs(0))
	}

	team := parallel.NewTeam(4)
	defer team.Close()
	op := NewOperator(at, team, 2, mttkrp.Options{LockKind: locks.Spin})
	// Mode 0: 1 run, so runs/PrivRatio = 0 < its window rows (one per
	// task) → locks win under the reuse-driven rule.
	if got := op.StrategyFor(0); got != mttkrp.StrategyLock {
		t.Errorf("high-reuse mode chose %v, want lock", got)
	}
	// Mode 2 varies fastest (runs ≈ nnz), and its window rows far exceed
	// 64 runs / 50 → locks there too; a serial operator always reports
	// StrategyNone.
	serial := NewOperator(at, nil, 2, mttkrp.Options{})
	if got := serial.StrategyFor(0); got != mttkrp.StrategyNone {
		t.Errorf("serial operator chose %v, want none", got)
	}
}

func TestOperatorRejectsBadOutputShape(t *testing.T) {
	tt := sptensor.Random([]int{10, 8, 9}, 100, 41)
	at, err := FromCOO(tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := NewOperator(at, nil, 4, mttkrp.Options{})
	factors := randomFactors(tt.Dims, 4, 43)
	defer func() {
		if recover() == nil {
			t.Error("mis-shaped output accepted")
		}
	}()
	op.Apply(0, factors, dense.NewMatrix(3, 4))
}

func TestMemoryBytesReflectsWideEncoding(t *testing.T) {
	narrow := sptensor.Random([]int{16, 16, 16}, 100, 51)
	wide := sptensor.Random([]int{1 << 24, 1 << 24, 1 << 24}, 100, 51)
	an, err := FromCOO(narrow, nil)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := FromCOO(wide, nil)
	if err != nil {
		t.Fatal(err)
	}
	if an.Enc.Wide() || !aw.Enc.Wide() {
		t.Fatalf("wideness wrong: narrow=%v wide=%v", an.Enc.Wide(), aw.Enc.Wide())
	}
	perNarrow := an.MemoryBytes() / int64(an.NNZ())
	perWide := aw.MemoryBytes() / int64(aw.NNZ())
	if perWide != perNarrow+8 {
		t.Errorf("wide overhead %d bytes/nnz, want %d+8", perWide, perNarrow)
	}
}
