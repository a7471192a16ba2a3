package alto

import (
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/mttkrp"
	"repro/internal/sptensor"
)

// Table-driven parity of the fast paths (ExtractAll, Step,
// DelinearizeRange) against the segment-based reference accessors
// (Extract, Delinearize) across random encodings, including wide two-word
// layouts and degenerate single-mode tensors.

var parityLayouts = []struct {
	name string
	dims []int
}{
	{"order2", []int{3000, 77}},
	{"order3-small", []int{7, 5, 3}},
	{"order3-skewed", []int{41086, 11, 204}},
	{"order3-pow2", []int{64, 64, 64}},
	{"order4", []int{100, 200, 50, 9}},
	{"order5", []int{31, 17, 1000, 2, 90}},
	{"single-mode", []int{1000}},
	{"unit-modes", []int{1, 5, 1, 9}},
	{"wide-two-word", []int{1 << 20, 1 << 20, 1 << 20, 1 << 16}},              // 76 bits
	{"wide-max", []int{1 << 21, 1 << 21, 1 << 21, 1 << 21, 1 << 21, 1 << 21}}, // 126 bits
	{"wide-order3", []int{1 << 30, 1 << 30, 1 << 25}},                         // 85 bits
	{"wide-order5", []int{1 << 20, 1 << 18, 1 << 15, 1 << 14, 1 << 10}},       // 77 bits
}

// randomKeys generates n sorted (lo, hi) keys of random valid coordinates.
func randomKeys(t *testing.T, e *Encoding, rng *rand.Rand, n int) (lo, hi []uint64, coords [][]sptensor.Index) {
	t.Helper()
	order := len(e.Dims)
	rawLo := make([]uint64, n)
	var rawHi []uint64
	if e.Wide() {
		rawHi = make([]uint64, n)
	}
	coord := make([]sptensor.Index, order)
	for x := 0; x < n; x++ {
		for m, d := range e.Dims {
			coord[m] = sptensor.Index(rng.Intn(d))
		}
		l, h := e.Linearize(coord)
		rawLo[x] = l
		if rawHi != nil {
			rawHi[x] = h
		}
	}
	at := &Tensor{Enc: e, Lo: make([]uint64, n)}
	if rawHi != nil {
		at.Hi = make([]uint64, n)
	}
	for i, x := range keyOrder(rawLo, rawHi) {
		at.Lo[i] = rawLo[x]
		if at.Hi != nil {
			at.Hi[i] = rawHi[x]
		}
	}
	coords = make([][]sptensor.Index, order)
	for m := range coords {
		coords[m] = make([]sptensor.Index, n)
	}
	for x := 0; x < n; x++ {
		var h uint64
		if at.Hi != nil {
			h = at.Hi[x]
		}
		for m := 0; m < order; m++ {
			coords[m][x] = e.Extract(at.Lo[x], h, m)
		}
	}
	return at.Lo, at.Hi, coords
}

func TestExtractAllMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, layout := range parityLayouts {
		t.Run(layout.name, func(t *testing.T) {
			e, err := NewEncoding(layout.dims)
			if err != nil {
				t.Fatal(err)
			}
			order := len(layout.dims)
			coord := make([]sptensor.Index, order)
			all := make([]uint64, order)
			for trial := 0; trial < 200; trial++ {
				for m, d := range layout.dims {
					coord[m] = sptensor.Index(rng.Intn(d))
				}
				lo, hi := e.Linearize(coord)
				e.ExtractAll(lo, hi, all)
				for m := 0; m < order; m++ {
					ref := e.Extract(lo, hi, m)
					if sptensor.Index(all[m]) != ref {
						t.Fatalf("mode %d: ExtractAll %d != Extract %d (coord %v)",
							m, all[m], ref, coord)
					}
					if ref != coord[m] {
						t.Fatalf("mode %d: Extract %d != original %d", m, ref, coord[m])
					}
				}
			}
		})
	}
}

func TestStepMatchesExtractAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, layout := range parityLayouts {
		t.Run(layout.name, func(t *testing.T) {
			e, err := NewEncoding(layout.dims)
			if err != nil {
				t.Fatal(err)
			}
			order := len(layout.dims)
			lo, hi, coords := randomKeys(t, e, rng, 300)
			cur := make([]uint64, order)
			var h0 uint64
			if hi != nil {
				h0 = hi[0]
			}
			e.ExtractAll(lo[0], h0, cur)
			for x := 1; x < len(lo); x++ {
				var ph, ch uint64
				if hi != nil {
					ph, ch = hi[x-1], hi[x]
				}
				mask := e.Step(lo[x-1], ph, lo[x], ch, cur)
				for m := 0; m < order; m++ {
					if sptensor.Index(cur[m]) != coords[m][x] {
						t.Fatalf("nonzero %d mode %d: Step state %d != reference %d",
							x, m, cur[m], coords[m][x])
					}
					// Exact mask semantics (all layouts here have < 32 modes).
					changed := coords[m][x] != coords[m][x-1]
					if flagged := mask&(1<<uint(m)) != 0; flagged != changed {
						t.Fatalf("nonzero %d mode %d: mask bit %v, actually changed %v",
							x, m, flagged, changed)
					}
				}
			}
		})
	}
}

// TestDelinearizeRangeMatchesDelinearize checks DelinearizeRange against
// the segment-walk Delinearize on every layout (orders 1 to 5, narrow and
// wide keys), through both bodies: the native tiled extraction (on builds
// that have it) and the portable byte tables. The windows include empty
// and single-key ranges, ranges that start mid-tile, and ranges longer
// than one delinTile, which the native body splits into several tiles.
func TestDelinearizeRangeMatchesDelinearize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, layout := range parityLayouts {
		t.Run(layout.name, func(t *testing.T) {
			e, err := NewEncoding(layout.dims)
			if err != nil {
				t.Fatal(err)
			}
			order := len(layout.dims)
			n := 2*delinTile + 500
			lo, hi, coords := randomKeys(t, e, rng, n)
			windows := [][2]int{{0, n}, {0, 1}, {3, 3}, {7, 130}, {n - 1, n}, {5, delinTile + 9}, {delinTile - 1, 2*delinTile + 1}}
			bodies := []*Encoding{forceTables(e)}
			if e.native {
				bodies = append(bodies, e)
			}
			for _, enc := range bodies {
				for _, w := range windows {
					begin, end := w[0], w[1]
					out := make([][]sptensor.Index, order)
					for m := range out {
						out[m] = make([]sptensor.Index, end-begin)
					}
					enc.DelinearizeRange(lo, hi, begin, end, out)
					for i := 0; i < end-begin; i++ {
						for m := 0; m < order; m++ {
							if out[m][i] != coords[m][begin+i] {
								t.Fatalf("native=%v window %v nonzero %d mode %d: %d != %d",
									enc.native, w, i, m, out[m][i], coords[m][begin+i])
							}
						}
					}
				}
			}
		})
	}
}

// TestApplyHighModeMaskFolding pins the mask-folding edge: every mode
// >= 31 shares change-mask bit 31, so a target mode of 31 must not treat
// the bit as its own (that would mask mode 32's changes and reuse a stale
// Hadamard product). Regression test for the order>=33 MTTKRP bug.
func TestApplyHighModeMaskFolding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := make([]int, 33)
	for m := range dims {
		dims[m] = 1
	}
	dims[31], dims[32] = 4, 4 // the only information-carrying modes
	tensor := sptensor.New(dims, 0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for m := range dims {
				v := sptensor.Index(0)
				if m == 31 {
					v = sptensor.Index(i)
				} else if m == 32 {
					v = sptensor.Index(j)
				}
				tensor.Inds[m] = append(tensor.Inds[m], v)
			}
			tensor.Vals = append(tensor.Vals, rng.NormFloat64())
		}
	}
	at, err := FromCOO(tensor, nil)
	if err != nil {
		t.Fatal(err)
	}
	const rank = 5
	factors := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		factors[m] = dense.NewMatrix(d, rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.Float64() + 0.5
		}
	}
	op := NewOperator(at, nil, rank, mttkrp.DefaultOptions())
	for _, mode := range []int{0, 31, 32} {
		got := dense.NewMatrix(dims[mode], rank)
		op.Apply(mode, factors, got)
		want := dense.NewMatrix(dims[mode], rank)
		mttkrp.COO(tensor, factors, mode, want)
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("mode %d: ALTO MTTKRP diverges from COO by %g", mode, d)
		}
	}
}

// TestOperatorStepKernelAgainstGenericWalk pins the fused order-3 kernel's
// walker against full per-nonzero delinearization on a real tensor walk.
func TestOperatorStepKernelAgainstGenericWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tensor := sptensor.New([]int{37, 19, 53}, 0)
	seen := map[[3]int]bool{}
	for len(tensor.Vals) < 800 {
		c := [3]int{rng.Intn(37), rng.Intn(19), rng.Intn(53)}
		if seen[c] {
			continue
		}
		seen[c] = true
		for m := 0; m < 3; m++ {
			tensor.Inds[m] = append(tensor.Inds[m], sptensor.Index(c[m]))
		}
		tensor.Vals = append(tensor.Vals, rng.NormFloat64())
	}
	at, err := FromCOO(tensor, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := make([]uint64, 3)
	ref := make([]sptensor.Index, 3)
	at.Enc.ExtractAll(at.Lo[0], 0, cur)
	for x := 1; x < at.NNZ(); x++ {
		at.Enc.Step(at.Lo[x-1], 0, at.Lo[x], 0, cur)
		at.Enc.Delinearize(at.Lo[x], 0, ref)
		for m := 0; m < 3; m++ {
			if sptensor.Index(cur[m]) != ref[m] {
				t.Fatalf("nonzero %d mode %d: walker %d != delinearize %d", x, m, cur[m], ref[m])
			}
		}
	}
}
