package alto

import (
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/mttkrp"
	"repro/internal/sptensor"
)

// Differential parity of the BMI2 pdep/pext kernels against the portable
// byte-table and segment-walk implementations. Bit extraction is exact
// integer work, so every comparison here is bitwise — values AND change
// masks. On builds without native extraction these tests verify the
// portable paths against themselves and the fuzz corpus still runs.

// forceTables returns a copy of e with the native dispatch disabled, so
// the same Encoding state can be driven down both paths.
func forceTables(e *Encoding) *Encoding {
	t := *e
	t.native = false
	return &t
}

func TestNativeExtractAllMatchesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, layout := range parityLayouts {
		t.Run(layout.name, func(t *testing.T) {
			e, err := NewEncoding(layout.dims)
			if err != nil {
				t.Fatal(err)
			}
			tab := forceTables(e)
			order := len(layout.dims)
			coord := make([]sptensor.Index, order)
			got := make([]uint64, order)
			want := make([]uint64, order)
			for trial := 0; trial < 300; trial++ {
				for m, d := range layout.dims {
					coord[m] = sptensor.Index(rng.Intn(d))
				}
				lo, hi := e.Linearize(coord)
				e.ExtractAll(lo, hi, got)
				tab.ExtractAll(lo, hi, want)
				for m := 0; m < order; m++ {
					if got[m] != want[m] {
						t.Fatalf("mode %d: native %d != tables %d (key %x,%x)",
							m, got[m], want[m], hi, lo)
					}
				}
			}
		})
	}
}

// TestLinearizeRangeMatchesSegs checks the tiled column linearization,
// native (pdepColumn) and portable, against the per-key segment walk on
// every parity layout: orders 1-5, narrow and wide, with the range
// starting and ending inside a tile and spanning several.
func TestLinearizeRangeMatchesSegs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, layout := range parityLayouts {
		t.Run(layout.name, func(t *testing.T) {
			e, err := NewEncoding(layout.dims)
			if err != nil {
				t.Fatal(err)
			}
			const n = 3*delinTile + 41
			inds := make([][]sptensor.Index, len(layout.dims))
			for m, d := range layout.dims {
				inds[m] = make([]sptensor.Index, n)
				for x := range inds[m] {
					inds[m][x] = sptensor.Index(rng.Intn(d))
				}
				inds[m][n-1] = sptensor.Index(d - 1)
			}
			checkLinearizeRange(t, e, inds, 37, n)
			checkLinearizeRange(t, forceTables(e), inds, 0, n-5)
		})
	}
}

// checkLinearizeRange fails unless e.linearizeRange writes, for every
// nonzero in [begin, end) of inds, the key linearizeSegs gives, and
// leaves every other key zero.
func checkLinearizeRange(t *testing.T, e *Encoding, inds [][]sptensor.Index, begin, end int) {
	t.Helper()
	n := len(inds[0])
	lo := make([]uint64, n)
	var hi []uint64
	if e.Wide() {
		hi = make([]uint64, n)
	}
	e.linearizeRange(inds, begin, end, lo, hi)
	coord := make([]sptensor.Index, len(inds))
	for x := 0; x < n; x++ {
		var wantLo, wantHi uint64
		if x >= begin && x < end {
			for m := range inds {
				coord[m] = inds[m][x]
			}
			wantLo, wantHi = e.linearizeSegs(coord)
		}
		var gotHi uint64
		if hi != nil {
			gotHi = hi[x]
		}
		if lo[x] != wantLo || gotHi != wantHi {
			t.Fatalf("native=%v nonzero %d: key (%x,%x), segment walk (%x,%x)", e.native, x, gotHi, lo[x], wantHi, wantLo)
		}
	}
}

func TestNativeStepMatchesTables(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, layout := range parityLayouts {
		t.Run(layout.name, func(t *testing.T) {
			e, err := NewEncoding(layout.dims)
			if err != nil {
				t.Fatal(err)
			}
			tab := forceTables(e)
			order := len(layout.dims)
			lo, hi, _ := randomKeys(t, e, rng, 400)
			curN := make([]uint64, order)
			curT := make([]uint64, order)
			var h0 uint64
			if hi != nil {
				h0 = hi[0]
			}
			e.ExtractAll(lo[0], h0, curN)
			tab.ExtractAll(lo[0], h0, curT)
			for x := 1; x < len(lo); x++ {
				var ph, ch uint64
				if hi != nil {
					ph, ch = hi[x-1], hi[x]
				}
				mN := e.Step(lo[x-1], ph, lo[x], ch, curN)
				mT := tab.Step(lo[x-1], ph, lo[x], ch, curT)
				if mN != mT {
					t.Fatalf("nonzero %d: native mask %x != tables mask %x", x, mN, mT)
				}
				for m := 0; m < order; m++ {
					if curN[m] != curT[m] {
						t.Fatalf("nonzero %d mode %d: native %d != tables %d",
							x, m, curN[m], curT[m])
					}
				}
			}
		})
	}
}

func TestPext3TileMatchesExtract(t *testing.T) {
	if !NativeExtract() {
		t.Skip("no native bit extraction on this build")
	}
	rng := rand.New(rand.NewSource(37))
	for _, dims := range [][]int{{37, 19, 53}, {1 << 20, 1 << 20, 1 << 20}, {2, 3, 5}} {
		e, err := NewEncoding(dims)
		if err != nil {
			t.Fatal(err)
		}
		// Uneven length exercises the partial final tile of the walker.
		const n = tileN + 137
		keys := make([]uint64, n)
		coord := make([]sptensor.Index, 3)
		for x := range keys {
			for m, d := range dims {
				coord[m] = sptensor.Index(rng.Intn(d))
			}
			keys[x], _ = e.Linearize(coord)
		}
		outT := make([]uint32, n)
		outA := make([]uint32, n)
		outB := make([]uint32, n)
		pext3Tile(keys, e.pextMasks[0], e.pextMasks[3], e.pextMasks[6], outT, outA, outB)
		for x, key := range keys {
			for m, out := range [][]uint32{outT, outA, outB} {
				if want := e.Extract(key, 0, m); sptensor.Index(out[x]) != want {
					t.Fatalf("dims %v key %d mode %d: tile %d != Extract %d",
						dims, x, m, out[x], want)
				}
			}
		}
	}
}

// TestOperatorNativeMatchesPortableWalker runs the same MTTKRP through the
// native tile walker and the portable byte-patch walker. Both execute the
// identical sequence of run flushes and Hadamard recomputes, so the
// outputs must agree bitwise, not just within tolerance.
func TestOperatorNativeMatchesPortableWalker(t *testing.T) {
	if !NativeExtract() {
		t.Skip("no native bit extraction on this build")
	}
	rng := rand.New(rand.NewSource(41))
	tensor := sptensor.New([]int{43, 29, 61}, 0)
	seen := map[[3]int]bool{}
	for len(tensor.Vals) < 1500 {
		c := [3]int{rng.Intn(43), rng.Intn(29), rng.Intn(61)}
		if seen[c] {
			continue
		}
		seen[c] = true
		for m := 0; m < 3; m++ {
			tensor.Inds[m] = append(tensor.Inds[m], sptensor.Index(c[m]))
		}
		tensor.Vals = append(tensor.Vals, rng.NormFloat64())
	}
	atNative, err := FromCOO(tensor, nil)
	if err != nil {
		t.Fatal(err)
	}
	atPortable, err := FromCOO(tensor, nil)
	if err != nil {
		t.Fatal(err)
	}
	atPortable.Enc = forceTables(atPortable.Enc)

	const rank = 9
	factors := make([]*dense.Matrix, 3)
	for m, d := range tensor.Dims {
		factors[m] = dense.NewMatrix(d, rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = rng.NormFloat64()
		}
	}
	opN := NewOperator(atNative, nil, rank, mttkrp.DefaultOptions())
	opP := NewOperator(atPortable, nil, rank, mttkrp.DefaultOptions())
	for mode := 0; mode < 3; mode++ {
		outN := dense.NewMatrix(tensor.Dims[mode], rank)
		outP := dense.NewMatrix(tensor.Dims[mode], rank)
		opN.Apply(mode, factors, outN)
		opP.Apply(mode, factors, outP)
		for i, v := range outN.Data {
			if v != outP.Data[i] {
				t.Fatalf("mode %d elem %d: native %v != portable %v", mode, i, v, outP.Data[i])
			}
		}
	}
}

// FuzzEncodingParity drives random coordinate pairs through both the
// native and portable ExtractAll/Step paths and requires bitwise
// agreement on extracted indices and change masks. Both bodies of
// linearizeRange must give Linearize's keys, and the keys then go through
// DelinearizeRange's native tiled body and its byte-table body, which
// must both return the coordinates.
func FuzzEncodingParity(f *testing.F) {
	f.Add(uint16(37), uint16(19), uint16(53), int64(1))
	f.Add(uint16(1), uint16(1), uint16(1), int64(2))
	f.Add(uint16(65535), uint16(65535), uint16(65535), int64(3))
	f.Add(uint16(2), uint16(60000), uint16(3), int64(4))
	f.Fuzz(func(t *testing.T, d0, d1, d2 uint16, seed int64) {
		dims := []int{int(d0) + 1, int(d1) + 1, int(d2) + 1}
		e, err := NewEncoding(dims)
		if err != nil {
			t.Skip()
		}
		tab := forceTables(e)
		rng := rand.New(rand.NewSource(seed))
		const trials = 32
		coord := make([]sptensor.Index, 3)
		coords := make([][]sptensor.Index, 3)
		curN := make([]uint64, 3)
		curT := make([]uint64, 3)
		los, his := make([]uint64, trials), make([]uint64, trials)
		var prevLo, prevHi uint64
		for trial := 0; trial < trials; trial++ {
			for m, d := range dims {
				coord[m] = sptensor.Index(rng.Intn(d))
				coords[m] = append(coords[m], coord[m])
			}
			lo, hi := e.Linearize(coord)
			los[trial], his[trial] = lo, hi
			if trial == 0 {
				e.ExtractAll(lo, hi, curN)
				tab.ExtractAll(lo, hi, curT)
			} else {
				mN := e.Step(prevLo, prevHi, lo, hi, curN)
				mT := tab.Step(prevLo, prevHi, lo, hi, curT)
				if mN != mT {
					t.Fatalf("trial %d: native mask %x != portable %x", trial, mN, mT)
				}
			}
			for m := 0; m < 3; m++ {
				if curN[m] != curT[m] {
					t.Fatalf("trial %d mode %d: native %d != portable %d", trial, m, curN[m], curT[m])
				}
				if curN[m] != uint64(coord[m]) {
					t.Fatalf("trial %d mode %d: extracted %d != coordinate %d", trial, m, curN[m], coord[m])
				}
			}
			prevLo, prevHi = lo, hi
		}
		if !e.Wide() {
			his = nil
		}
		for _, enc := range []*Encoding{e, tab} {
			checkLinearizeRange(t, enc, coords, 0, trials)
		}
		for _, enc := range []*Encoding{e, tab} {
			out := [][]sptensor.Index{make([]sptensor.Index, trials), make([]sptensor.Index, trials), make([]sptensor.Index, trials)}
			enc.DelinearizeRange(los, his, 0, trials, out)
			for m := range out {
				for x, c := range out[m] {
					if c != coords[m][x] {
						t.Fatalf("DelinearizeRange (native=%v) key %d mode %d: %d != coordinate %d", enc.native, x, m, c, coords[m][x])
					}
				}
			}
		}
	})
}
