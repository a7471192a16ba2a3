package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dense"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

func TestParseSolver(t *testing.T) {
	cases := []struct {
		in   string
		want Solver
	}{
		{"", ALS}, {"als", ALS}, {"exact", ALS},
		{"arls", ARLS}, {"sampled", ARLS}, {"ARLS", ARLS},
		{"auto", Auto}, {" Auto ", Auto},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("Parse accepted bogus solver")
	}
	for _, s := range []Solver{ALS, ARLS, Auto} {
		back, err := Parse(s.String())
		if err != nil || back != s {
			t.Errorf("round trip %v failed: %v, %v", s, back, err)
		}
	}
}

func TestChooseHeuristic(t *testing.T) {
	dims := []int{1000, 1000, 1000}
	if s, reason := Choose(100, dims, 8); s != ALS {
		t.Errorf("tiny tensor chose %v (%s)", s, reason)
	}
	if s, reason := Choose(100_000_000, dims, 8); s != ARLS {
		t.Errorf("huge tensor chose %v (%s)", s, reason)
	}
	// Just above the nnz floor but under the sample-advantage ratio.
	small := DefaultSamples(dims, 64)
	if s, reason := Choose(AutoNNZThreshold, dims, 64); small*AutoSampleAdvantage > AutoNNZThreshold && s != ALS {
		t.Errorf("marginal tensor chose %v (%s)", s, reason)
	}
}

func TestSampledIters(t *testing.T) {
	if got := SampledIters(20, 0); got != 20-DefaultRefineIters {
		t.Errorf("SampledIters(20, 0) = %d", got)
	}
	if got := SampledIters(20, 5); got != 15 {
		t.Errorf("SampledIters(20, 5) = %d", got)
	}
	if got := SampledIters(2, 5); got != 0 {
		t.Errorf("SampledIters(2, 5) = %d (budget smaller than refinement)", got)
	}
}

func TestSeedSplitIndependence(t *testing.T) {
	a := splitSeed(1, purposeMTTKRP, 0, 0)
	b := splitSeed(1, purposeMTTKRP, 0, 1)
	c := splitSeed(1, purposeMTTKRP, 1, 0)
	d := splitSeed(2, purposeMTTKRP, 0, 0)
	if a == b || a == c || a == d || b == c {
		t.Errorf("seed splits collide: %x %x %x %x", a, b, c, d)
	}
	r := newRNG(a)
	for i := 0; i < 1000; i++ {
		if f := r.float64(); f < 0 || f >= 1 {
			t.Fatalf("float64 out of range: %g", f)
		}
	}
}

// cooSource adapts a coordinate tensor to NonzeroSource for direct tests.
type cooSource struct{ t *sptensor.Tensor }

func (s cooSource) NNZ() int { return s.t.NNZ() }

func (s cooSource) Nonzeros(coords [][]sptensor.Index, vals []float64) {
	for m, col := range s.t.Inds {
		copy(coords[m], col)
	}
	copy(vals, s.t.Vals)
}

func testFactors(dims []int, rank int, seed uint64) []*dense.Matrix {
	rng := newRNG(seed)
	fs := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		fs[m] = dense.NewMatrix(d, rank)
		for i := range fs[m].Data {
			fs[m].Data[i] = rng.float64()
		}
	}
	return fs
}

func grams(fs []*dense.Matrix) []*dense.Matrix {
	gs := make([]*dense.Matrix, len(fs))
	for m, f := range fs {
		gs[m] = dense.NewMatrix(f.Cols, f.Cols)
		dense.Syrk(nil, f, gs[m])
	}
	return gs
}

func refreshAll(s *Sampler, fs, gs []*dense.Matrix) {
	for m := range fs {
		s.RefreshLeverage(m, fs[m], gs[m])
	}
}

func TestLeverageDistribution(t *testing.T) {
	dims := []int{40, 30, 20}
	tt := sptensor.Random(dims, 2000, 3)
	s, err := NewSampler(cooSource{tt}, dims, Config{Rank: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs := testFactors(dims, 6, 9)
	gs := grams(fs)
	refreshAll(s, fs, gs)
	for m, tbl := range s.lev {
		sum := 0.0
		for _, p := range tbl.p {
			if p <= 0 {
				t.Fatalf("mode %d: non-positive probability %g", m, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("mode %d: probabilities sum to %g", m, sum)
		}
		if got := tbl.cum[len(tbl.cum)-1]; math.Abs(got-1) > 1e-9 {
			t.Errorf("mode %d: final cumulative %g", m, got)
		}
	}
}

func TestComplementKeyRoundTrip(t *testing.T) {
	dims := []int{7, 5, 3, 4}
	s, err := NewSampler(nil, dims, Config{Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < len(dims); mode++ {
		// Enumerate a few multi-indices, encode, decode, compare.
		rng := newRNG(uint64(mode) + 5)
		for trial := 0; trial < 100; trial++ {
			want := make([]int, len(dims))
			key := uint64(0)
			for n := range dims {
				if n == mode {
					continue
				}
				want[n] = rng.intn(dims[n])
				key += uint64(want[n]) * s.radix[mode][n]
			}
			got := make([]int, len(dims))
			s.decode(mode, key, got)
			for n := range dims {
				if n != mode && got[n] != want[n] {
					t.Fatalf("mode %d: decode(%d) = %v, want %v", mode, key, got, want)
				}
			}
		}
	}
}

func TestSamplerOverflowRejected(t *testing.T) {
	huge := 1 << 21
	dims := []int{huge, huge, huge, huge} // complement ≈ 2^63
	if _, err := NewSampler(nil, dims, Config{Rank: 4}); err == nil {
		t.Fatal("oversized complement index space accepted")
	}
}

func TestSamplerRejectsBadConfig(t *testing.T) {
	if _, err := NewSampler(nil, []int{5}, Config{Rank: 4}); err == nil {
		t.Error("order-1 tensor accepted")
	}
	if _, err := NewSampler(nil, []int{5, 5}, Config{Rank: 0}); err == nil {
		t.Error("rank 0 accepted")
	}
	if _, err := NewSampler(nil, []int{5, 5}, Config{Rank: 2, Offsets: []int{1}}); err == nil {
		t.Error("mismatched offsets accepted")
	}
	if _, err := NewSampler(hugeSource{t}, []int{5, 5}, Config{Rank: 2}); err == nil {
		t.Error("more nonzeros than an int32 fiber index addresses accepted")
	}
}

// hugeSource claims one nonzero more than sptensor.MaxNNZ; NewSampler
// must refuse it before copying anything.
type hugeSource struct{ t *testing.T }

func (h hugeSource) NNZ() int { return sptensor.MaxNNZ + 1 }

func (h hugeSource) Nonzeros([][]sptensor.Index, []float64) {
	h.t.Error("NewSampler copied a source above the nonzero bound")
}

// TestFiberIndexMatchesComparisonSort pins the counting-sorted fiber
// indexes bitwise to the comparison order they replaced: complement key,
// then nonzero id. The nonzeros are shuffled and share complement keys, so
// the id tie-break decides most positions; order 2 has a mode longer than
// nnz, and the sharded case keys local mode-0 coordinates shifted by their
// offset. Teams of 1, 2 and 3 tasks split every counting pass differently
// and must agree; the large case gives each task thousands of nonzeros
// per pass.
func TestFiberIndexMatchesComparisonSort(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dims    []int // global mode lengths
		local   []int // source mode lengths (nil = dims)
		offsets []int
		nnz     int
	}{
		{"order3", []int{50, 40, 30}, nil, nil, 4000},
		{"order4", []int{7, 300, 5, 1000}, nil, nil, 3000},
		{"order2", []int{3000, 2}, nil, nil, 2500},
		{"sharded", []int{30, 10, 8}, []int{10, 10, 8}, []int{20, 0, 0}, 600},
		{"large", []int{300, 200, 100}, nil, nil, 60000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tasks := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("tasks=%d", tasks), func(t *testing.T) {
					local := tc.local
					if local == nil {
						local = tc.dims
					}
					tt := sptensor.Random(local, tc.nnz, 3)
					rand.New(rand.NewSource(4)).Shuffle(tt.NNZ(), tt.Swap)
					team := parallel.NewTeam(tasks)
					defer team.Close()
					s, err := NewSampler(cooSource{tt}, tc.dims, Config{Rank: 2, Offsets: tc.offsets, Team: team})
					if err != nil {
						t.Fatal(err)
					}
					s.buildFiberIndexes()
					n := tt.NNZ()
					for m := range tc.dims {
						keys := make([]uint64, n)
						ids := make([]int, n)
						for x := range ids {
							ids[x] = x
							for k := range tc.dims {
								if k != m {
									c := int(tt.Inds[k][x])
									if tc.offsets != nil {
										c += tc.offsets[k]
									}
									keys[x] += uint64(c) * s.radix[m][k]
								}
							}
						}
						sort.Slice(ids, func(a, b int) bool {
							x, y := ids[a], ids[b]
							if keys[x] != keys[y] {
								return keys[x] < keys[y]
							}
							return x < y
						})
						if len(s.keys[m]) != n || len(s.perm[m]) != n {
							t.Fatalf("mode %d: index holds %d keys, %d ids; want %d", m, len(s.keys[m]), len(s.perm[m]), n)
						}
						for i, x := range ids {
							if s.keys[m][i] != keys[x] || s.perm[m][i] != int32(x) {
								t.Fatalf("mode %d position %d: (key %d, id %d), want (%d, %d)",
									m, i, s.keys[m][i], s.perm[m][i], keys[x], x)
							}
						}
					}
				})
			}
		})
	}
}

// TestEmptySamplerSampledMTTKRP covers an empty distributed shard: a
// sampler without a source builds empty fiber indexes, adds no output rows
// and computes the same sampled normal matrix as a populated sampler with
// the same seed and team size.
func TestEmptySamplerSampledMTTKRP(t *testing.T) {
	dims := []int{20, 15, 10}
	const rank = 4
	tt := sptensor.Random(dims, 500, 5)
	fs := testFactors(dims, rank, 2)
	gs := grams(fs)
	for _, tasks := range []int{1, 2} {
		t.Run(fmt.Sprintf("tasks=%d", tasks), func(t *testing.T) {
			team := parallel.NewTeam(tasks)
			defer team.Close()
			cfg := Config{Rank: rank, Seed: 7, Samples: 200, Team: team}
			empty, err := NewSampler(nil, dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewSampler(cooSource{tt}, dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refreshAll(empty, fs, gs)
			refreshAll(full, fs, gs)
			for m := range dims {
				out := dense.NewMatrix(dims[m], rank)
				normal := dense.NewMatrix(rank, rank)
				empty.SampledMTTKRP(m, 1, fs, out, normal)
				for i, v := range out.Data {
					if v != 0 {
						t.Fatalf("mode %d: empty sampler wrote out[%d] = %g", m, i, v)
					}
				}
				fullOut := dense.NewMatrix(dims[m], rank)
				want := dense.NewMatrix(rank, rank)
				full.SampledMTTKRP(m, 1, fs, fullOut, want)
				for i := range want.Data {
					if normal.Data[i] != want.Data[i] {
						t.Fatalf("mode %d: normal[%d] = %g, populated sampler %g", m, i, normal.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

func TestSampledMTTKRPDeterminism(t *testing.T) {
	dims := []int{50, 40, 30}
	tt := sptensor.Random(dims, 5000, 17)
	fs := testFactors(dims, 5, 2)
	gs := grams(fs)

	run := func(team *parallel.Team) (*dense.Matrix, *dense.Matrix) {
		s, err := NewSampler(cooSource{tt}, dims, Config{Rank: 5, Seed: 42, Samples: 500, Team: team})
		if err != nil {
			t.Fatal(err)
		}
		refreshAll(s, fs, gs)
		out := dense.NewMatrix(dims[1], 5)
		normal := dense.NewMatrix(5, 5)
		s.SampledMTTKRP(1, 3, fs, out, normal)
		return out, normal
	}

	o1, n1 := run(nil)
	o2, n2 := run(nil)
	for i := range o1.Data {
		if o1.Data[i] != o2.Data[i] {
			t.Fatalf("out not bitwise deterministic at %d: %g vs %g", i, o1.Data[i], o2.Data[i])
		}
	}
	for i := range n1.Data {
		if n1.Data[i] != n2.Data[i] {
			t.Fatalf("normal not bitwise deterministic at %d", i)
		}
	}

	// Parallel teams of the same size are bitwise deterministic too.
	teamA := parallel.NewTeam(4)
	defer teamA.Close()
	teamB := parallel.NewTeam(4)
	defer teamB.Close()
	o3, n3 := run(teamA)
	o4, n4 := run(teamB)
	for i := range o3.Data {
		if o3.Data[i] != o4.Data[i] {
			t.Fatalf("parallel out not deterministic at %d", i)
		}
	}
	for i := range n3.Data {
		if n3.Data[i] != n4.Data[i] {
			t.Fatalf("parallel normal not deterministic at %d", i)
		}
	}
	// At 2 and 3 tasks the outputs are, bit for bit, the task-order sums of
	// per-task partials, each accumulated over a parallel.Partition chunk
	// of the drawn keys.
	for _, tasks := range []int{2, 3} {
		team := parallel.NewTeam(tasks)
		s, err := NewSampler(cooSource{tt}, dims, Config{Rank: 5, Seed: 42, Samples: 500, Team: team})
		if err != nil {
			t.Fatal(err)
		}
		refreshAll(s, fs, gs)
		out := dense.NewMatrix(dims[1], 5)
		normal := dense.NewMatrix(5, 5)
		s.SampledMTTKRP(1, 3, fs, out, normal)
		team.Close()
		wantOut, wantNormal := make([]float64, len(out.Data)), make([]float64, len(normal.Data))
		h, idx := make([]float64, 5), make([]int, len(dims))
		for tid := 0; tid < tasks; tid++ {
			part, partNormal := make([]float64, len(wantOut)), make([]float64, len(wantNormal))
			begin, end := parallel.Partition(len(s.keyBuf), tasks, tid)
			for i := begin; i < end; i++ {
				s.accumulateSample(1, s.keyBuf[i], s.countBuf[i], fs, part, partNormal, h, idx)
			}
			dense.VecAdd(wantOut, part)
			dense.VecAdd(wantNormal, partNormal)
		}
		for i, v := range wantOut {
			if out.Data[i] != v {
				t.Fatalf("%d tasks: out[%d] = %v, task-order sum of partials %v", tasks, i, out.Data[i], v)
			}
		}
		for i := 0; i < 5; i++ {
			for j := i; j < 5; j++ {
				if v := wantNormal[i*5+j]; normal.At(i, j) != v || normal.At(j, i) != v {
					t.Fatalf("%d tasks: normal[%d,%d] = %v, task-order sum of partials %v", tasks, i, j, normal.At(i, j), v)
				}
			}
		}
	}

	// And a different seed draws a different sample set.
	s, _ := NewSampler(cooSource{tt}, dims, Config{Rank: 5, Seed: 43, Samples: 500})
	refreshAll(s, fs, gs)
	out := dense.NewMatrix(dims[1], 5)
	normal := dense.NewMatrix(5, 5)
	s.SampledMTTKRP(1, 3, fs, out, normal)
	same := true
	for i := range out.Data {
		if out.Data[i] != o1.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sampled MTTKRP")
	}
}

// TestSampledEstimatesUnbiased drives the sample count far above the
// complement space so the sampled normal matrix and sampled MTTKRP
// concentrate on their exact expectations: normal → ∘_{n≠m} Gram_n and
// out → exact MTTKRP.
func TestSampledEstimatesUnbiased(t *testing.T) {
	dims := []int{12, 8, 6}
	tt := sptensor.Random(dims, 300, 5)
	rank := 4
	fs := testFactors(dims, rank, 7)
	gs := grams(fs)
	s, err := NewSampler(cooSource{tt}, dims, Config{Rank: rank, Seed: 9, Samples: 400000})
	if err != nil {
		t.Fatal(err)
	}
	refreshAll(s, fs, gs)

	mode := 0
	out := dense.NewMatrix(dims[mode], rank)
	normal := dense.NewMatrix(rank, rank)
	s.SampledMTTKRP(mode, 0, fs, out, normal)

	// Exact normal: Hadamard of the other modes' Grams.
	exactN := dense.NewMatrix(rank, rank)
	exactN.Fill(1)
	for n := range fs {
		if n != mode {
			dense.HadamardProduct(exactN, gs[n])
		}
	}
	for i := range normal.Data {
		rel := math.Abs(normal.Data[i]-exactN.Data[i]) / (math.Abs(exactN.Data[i]) + 1e-12)
		if rel > 0.05 {
			t.Fatalf("normal[%d] = %g, exact %g (rel %.3f)", i, normal.Data[i], exactN.Data[i], rel)
		}
	}

	// Exact MTTKRP by brute force over nonzeros.
	exactM := dense.NewMatrix(dims[mode], rank)
	for x := range tt.Vals {
		i0 := int(tt.Inds[0][x])
		row := exactM.Row(i0)
		for j := 0; j < rank; j++ {
			row[j] += tt.Vals[x] * fs[1].At(int(tt.Inds[1][x]), j) * fs[2].At(int(tt.Inds[2][x]), j)
		}
	}
	maxAbs := 0.0
	for _, v := range exactM.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for i := range out.Data {
		if math.Abs(out.Data[i]-exactM.Data[i]) > 0.05*maxAbs {
			t.Fatalf("out[%d] = %g, exact %g", i, out.Data[i], exactM.Data[i])
		}
	}
}

func TestEstimateInnerMatchesExactOnFullSample(t *testing.T) {
	dims := []int{20, 15, 10}
	tt := sptensor.Random(dims, 500, 3)
	rank := 3
	fs := testFactors(dims, rank, 4)
	lambda := []float64{1.5, 0.5, 2.0}
	// FitSamples ≥ nnz means every draw is a uniform resample of the full
	// set; the estimate stays an unbiased uniform estimator, so with
	// samples ≫ nnz it concentrates tightly.
	s, err := NewSampler(cooSource{tt}, dims, Config{Rank: rank, Seed: 2, FitSamples: 200000})
	if err != nil {
		t.Fatal(err)
	}
	exact := 0.0
	for x := range tt.Vals {
		v := 0.0
		for c := 0; c < rank; c++ {
			term := lambda[c]
			for m := 0; m < 3; m++ {
				term *= fs[m].At(int(tt.Inds[m][x]), c)
			}
			v += term
		}
		exact += tt.Vals[x] * v
	}
	got := s.EstimateInner(0, 0, lambda, fs)
	if rel := math.Abs(got-exact) / (math.Abs(exact) + 1e-12); rel > 0.02 {
		t.Errorf("EstimateInner = %g, exact %g (rel %.3f)", got, exact, rel)
	}
	// Empty shard estimates zero.
	empty, _ := NewSampler(nil, dims, Config{Rank: rank})
	if got := empty.EstimateInner(0, 0, lambda, fs); got != 0 {
		t.Errorf("empty sampler estimated %g", got)
	}
}

// TestShardOffsetsMatchGlobal checks that a sharded sampler (local mode-0
// coords + offset) produces the same fiber keys and out rows as a global
// sampler restricted to the shard, serially and at 2 and 3 tasks, where
// the shard's privatized mode-0 output covers its 10 rows against the
// global mode's 30.
func TestShardOffsetsMatchGlobal(t *testing.T) {
	for _, tasks := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("tasks=%d", tasks), func(t *testing.T) {
			team := parallel.NewTeam(tasks)
			defer team.Close()
			testShardOffsetsMatchGlobal(t, team)
		})
	}
}

func testShardOffsetsMatchGlobal(t *testing.T, team *parallel.Team) {
	dims := []int{30, 10, 8}
	tt := sptensor.Random(dims, 1500, 21)
	rank := 4
	fs := testFactors(dims, rank, 6)
	gs := grams(fs)

	lo, hi := 10, 20
	shard := sptensor.New([]int{hi - lo, dims[1], dims[2]}, 0)
	for x := range tt.Vals {
		i0 := int(tt.Inds[0][x])
		if i0 < lo || i0 >= hi {
			continue
		}
		shard.Inds[0] = append(shard.Inds[0], sptensor.Index(i0-lo))
		shard.Inds[1] = append(shard.Inds[1], tt.Inds[1][x])
		shard.Inds[2] = append(shard.Inds[2], tt.Inds[2][x])
		shard.Vals = append(shard.Vals, tt.Vals[x])
	}

	cfg := Config{Rank: rank, Seed: 77, Samples: 2000, Team: team}
	global, err := NewSampler(cooSource{tt}, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local := cfg
	local.Offsets = []int{lo, 0, 0}
	sharded, err := NewSampler(cooSource{shard}, dims, local)
	if err != nil {
		t.Fatal(err)
	}
	refreshAll(global, fs, gs)
	refreshAll(sharded, fs, gs)

	// Mode-1 update: global sums over all nonzeros; the shard contributes
	// only its rows, but for identical draws every sampled fiber entry the
	// shard holds must appear identically.
	outG := dense.NewMatrix(dims[1], rank)
	nG := dense.NewMatrix(rank, rank)
	global.SampledMTTKRP(1, 0, fs, outG, nG)
	outS := dense.NewMatrix(dims[1], rank)
	nS := dense.NewMatrix(rank, rank)
	sharded.SampledMTTKRP(1, 0, fs, outS, nS)

	for i := range nG.Data {
		if nG.Data[i] != nS.Data[i] {
			t.Fatalf("normal diverges between global and sharded sampler at %d", i)
		}
	}
	// Complement keys for mode 0 (the sharded out) are global: mode-0
	// output rows land at local positions.
	outG0 := dense.NewMatrix(dims[0], rank)
	global.SampledMTTKRP(0, 1, fs, outG0, nG)
	outS0 := dense.NewMatrix(hi-lo, rank)
	sharded.SampledMTTKRP(0, 1, fs, outS0, nS)
	for i := 0; i < hi-lo; i++ {
		for j := 0; j < rank; j++ {
			if outS0.At(i, j) != outG0.At(lo+i, j) {
				t.Fatalf("shard row %d col %d: %g vs global %g", i, j, outS0.At(i, j), outG0.At(lo+i, j))
			}
		}
	}
}
