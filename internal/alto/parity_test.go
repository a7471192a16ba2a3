package alto

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"testing"

	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
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

// checkExtract3Tile fails unless e.extract3Tile, for every order of the
// three modes, writes each key's coordinates as Extract reads them.
func checkExtract3Tile(t *testing.T, e *Encoding, keys []uint64) {
	t.Helper()
	n := len(keys)
	cols := [3][]uint32{make([]uint32, n), make([]uint32, n), make([]uint32, n)}
	for _, modes := range [][3]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}, {2, 1, 0}} {
		e.extract3Tile(keys, modes[0], modes[1], modes[2], cols[0], cols[1], cols[2])
		for x, key := range keys {
			for c, m := range modes {
				if want := e.Extract(key, 0, m); sptensor.Index(cols[c][x]) != want {
					t.Fatalf("dims %v native=%v modes %v tile of %d, key %d (%x) mode %d: %d != Extract %d",
						e.Dims, e.native, modes, n, x, key, m, cols[c][x], want)
				}
			}
		}
	}
}

// TestExtract3TileMatchesExtract checks the order-3 walkers' tile
// extractor against Extract on every key: the byte-table body on every
// build, and pext3Tile too where BMI2 is compiled in. The encodings are
// random narrow order-3 ones, with unit-length modes and power-of-two
// dims among them. The tiles hold sorted keys, runs of repeated keys,
// keys that share their low byte and differ only in higher ones, and
// arbitrary bits under the encoding's width, at lengths 1, 2, 511 and
// 512.
func TestExtract3TileMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	layouts := [][]int{{37, 19, 53}, {7, 300, 3}, {1, 1, 1}, {1, 64, 1}, {64, 64, 64}, {1 << 21, 1 << 21, 1 << 21}, {1 << 21, 3, 1 << 20}}
	for len(layouts) < 40 {
		dims := make([]int, 3)
		for m := range dims {
			switch b := rng.Intn(22); rng.Intn(3) {
			case 0:
				dims[m] = 1 << b // power of two; 1 when b = 0
			case 1:
				dims[m] = 1
			default:
				dims[m] = 1 + rng.Intn(1<<b)
			}
		}
		layouts = append(layouts, dims)
	}
	coord := make([]sptensor.Index, 3)
	for _, dims := range layouts {
		e, err := NewEncoding(dims)
		if err != nil {
			t.Fatal(err)
		}
		bodies := []*Encoding{forceTables(e)}
		if e.native {
			bodies = append(bodies, e)
		}
		width := ^uint64(0) >> (64 - e.TotalBits) // the key's used bits
		randomKey := func() uint64 {
			for m, d := range dims {
				coord[m] = sptensor.Index(rng.Intn(d))
			}
			key, _ := e.Linearize(coord)
			return key
		}
		for _, n := range []int{1, 2, 511, 512} {
			sorted := make([]uint64, n)
			for x := range sorted {
				sorted[x] = randomKey()
			}
			slices.Sort(sorted)
			repeated := make([]uint64, n)
			for x := range repeated {
				repeated[x] = randomKey()
				if x > 0 && rng.Intn(4) != 0 {
					repeated[x] = repeated[x-1]
				}
			}
			highOnly := make([]uint64, n)
			low := randomKey() & 0xFF
			for x := range highOnly {
				highOnly[x] = low | rng.Uint64()&width&^0xFF
			}
			arbitrary := make([]uint64, n)
			for x := range arbitrary {
				arbitrary[x] = rng.Uint64() & width
			}
			for _, enc := range bodies {
				for _, keys := range [][]uint64{sorted, repeated, highOnly, arbitrary} {
					checkExtract3Tile(t, enc, keys)
				}
			}
		}
	}
}

// TestOperatorNativeMatchesPortableWalker runs the same MTTKRP through the
// native walkers (the walk3Tile assembly for the lock-free strategies, the
// pext3Tile Go loop under locks) and the portable byte-patch walker. Both
// execute the identical sequence of run flushes and Hadamard recomputes,
// so without locks the outputs must agree bitwise, not just within
// tolerance, at every rank tail (8, 4 and 1 lanes), at teams of 1-3 tasks
// and under automatic and forced privatization. Under StrategyLock the
// order in which tasks take a shared row's lock varies between runs, so
// that comparison is within tolerance only.
func TestOperatorNativeMatchesPortableWalker(t *testing.T) {
	if !NativeExtract() {
		t.Skip("no native bit extraction on this build")
	}
	rng := rand.New(rand.NewSource(41))
	random := sptensor.New([]int{43, 29, 61}, 0)
	seen := map[[3]int]bool{}
	for len(random.Vals) < 1500 {
		c := [3]int{rng.Intn(43), rng.Intn(29), rng.Intn(61)}
		if seen[c] {
			continue
		}
		seen[c] = true
		for m := 0; m < 3; m++ {
			random.Inds[m] = append(random.Inds[m], sptensor.Index(c[m]))
		}
		random.Vals = append(random.Vals, rng.NormFloat64())
	}
	tensors := map[string]*sptensor.Tensor{"random": random, "runs": runsTensor(t)}
	strategies := []mttkrp.ConflictStrategy{mttkrp.StrategyAuto, mttkrp.StrategyPrivatize, mttkrp.StrategyLock}
	for name, tensor := range tensors {
		atNative, err := FromCOO(tensor, nil)
		if err != nil {
			t.Fatal(err)
		}
		atPortable := *atNative
		atPortable.Enc = forceTables(atNative.Enc)
		for _, rank := range []int{1, 3, 4, 5, 8, 9, 16, 35} {
			factors := randomFactors(tensor.Dims, rank, int64(rank))
			for tasks := 1; tasks <= 3; tasks++ {
				team := parallel.NewTeam(tasks)
				for _, strategy := range strategies {
					opts := mttkrp.Options{Strategy: strategy, LockKind: locks.Spin}
					opN := NewOperator(atNative, team, rank, opts)
					opP := NewOperator(&atPortable, team, rank, opts)
					if opN.tile != dense.Native() || opP.tile {
						t.Fatalf("tile walk selected %v (portable %v), want %v", opN.tile, opP.tile, dense.Native())
					}
					for mode, rows := range tensor.Dims {
						outN := dense.NewMatrix(rows, rank)
						outP := dense.NewMatrix(rows, rank)
						opN.Apply(mode, factors, outN)
						opP.Apply(mode, factors, outP)
						where := fmt.Sprintf("%s rank %d tasks %d %v mode %d", name, rank, tasks, opN.LastStrategy(), mode)
						if opN.LastStrategy() == mttkrp.StrategyLock {
							if d := outN.MaxAbsDiff(outP); d > 1e-9 {
								t.Fatalf("%s: native deviates from portable by %g", where, d)
							}
							continue
						}
						for i, v := range outN.Data {
							if v != outP.Data[i] {
								t.Fatalf("%s elem %d: native %v != portable %v", where, i, v, outP.Data[i])
							}
						}
					}
				}
				team.Close()
			}
		}
	}
}

// runsTensor builds an order-3 tensor, 6×37×29, whose sorted keys hold
// long runs across the walkers' 512-key tile boundaries. Its bits
// interleave as m0 m1 m2 | m0 m1 m2 | m0 m1 m2 | m1 m2 | m1 m2 | m1 from
// bit 0 up, so keys with i1, i2 < 16 sort first and keys with i1 ≥ 32,
// i2 < 16 last. The first region is 700 nonzeros all at i0 = 2 (one
// mode-0 run whose (i1, i2) changes materialize the accumulator), the
// last 600 all at i1 = 33 (one mode-1 run), and between them 800 random
// nonzeros with 16 ≤ i1 < 32 and one coordinate repeated 600 times. The
// two runs repeat their 256 and 96 coordinates, so both hold duplicate
// keys.
func runsTensor(t *testing.T) *sptensor.Tensor {
	t.Helper()
	rng := rand.New(rand.NewSource(59))
	tensor := sptensor.New([]int{6, 37, 29}, 0)
	add := func(i0, i1, i2 int) {
		for m, i := range []int{i0, i1, i2} {
			tensor.Inds[m] = append(tensor.Inds[m], sptensor.Index(i))
		}
		tensor.Vals = append(tensor.Vals, rng.NormFloat64())
	}
	for x := 0; x < 700; x++ {
		add(2, rng.Intn(16), rng.Intn(16))
	}
	for x := 0; x < 800; x++ {
		add(rng.Intn(6), 16+rng.Intn(16), rng.Intn(29))
	}
	for x := 0; x < 600; x++ {
		add(4, 20, 7)
		add(rng.Intn(6), 33, rng.Intn(16))
	}
	at, err := FromCOO(tensor, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The one-task walk3Tile tiles start at keys 1, 513, 1025, …: the
	// mode-0 run (its accumulator in use), the mode-1 run and a duplicate
	// key must each cross one of those boundaries.
	coord := func(x, m int) sptensor.Index { return at.Enc.Extract(at.Lo[x], 0, m) }
	crossed := [3]bool{}
	for b := 1 + tileN; b < at.NNZ(); b += tileN {
		crossed[0] = crossed[0] || coord(b, 0) == 2 && coord(b-1, 0) == 2
		crossed[1] = crossed[1] || coord(b, 1) == 33 && coord(b-1, 1) == 33
		crossed[2] = crossed[2] || at.Lo[b] == at.Lo[b-1]
	}
	if crossed != [3]bool{true, true, true} {
		t.Fatalf("mode-0 run, mode-1 run, duplicate key across a tile boundary: %v", crossed)
	}
	return tensor
}

// TestTileWalkNeedsDenseKernels checks that walk3Tile runs only where
// the dense kernels are the native AVX2+FMA set: it repeats their fused
// rounding, which the generic bodies do not share. On a BMI2 host the
// test re-runs itself with SPLATT_DISABLE_SIMD=1 (dense.Native() false)
// and BMI2 keys forced on, as on a host whose AVX is masked; there the
// Go walker must run instead, bitwise equal to the byte-table walker.
func TestTileWalkNeedsDenseKernels(t *testing.T) {
	child := os.Getenv("ALTO_TILE_WALK_CHILD") == "1"
	at, err := FromCOO(runsTensor(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if child {
		if dense.Native() {
			t.Fatal("SPLATT_DISABLE_SIMD=1 left the dense kernels native")
		}
		at.Enc.native = true // the parent process saw BMI2
	}
	const rank = 11
	op := NewOperator(at, nil, rank, mttkrp.DefaultOptions())
	if want := at.Enc.native && dense.Native(); op.tile != want {
		t.Fatalf("tile walk selected %v with BMI2 keys %v and dense.Native() %v", op.tile, at.Enc.native, dense.Native())
	}
	if child {
		portable := *at
		portable.Enc = forceTables(at.Enc)
		opP := NewOperator(&portable, nil, rank, mttkrp.DefaultOptions())
		factors := randomFactors(at.Enc.Dims, rank, 7)
		for mode, rows := range at.Enc.Dims {
			got, want := dense.NewMatrix(rows, rank), dense.NewMatrix(rows, rank)
			op.Apply(mode, factors, got)
			opP.Apply(mode, factors, want)
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("mode %d elem %d: BMI2 Go walker %v != portable %v", mode, i, v, want.Data[i])
				}
			}
		}
		return
	}
	if !NativeExtract() {
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTileWalkNeedsDenseKernels$", "-test.count=1")
	cmd.Env = append(os.Environ(), "SPLATT_DISABLE_SIMD=1", "ALTO_TILE_WALK_CHILD=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("run with SPLATT_DISABLE_SIMD=1: %v\n%s", err, out)
	}
}

// FuzzOperatorNativeMatchesPortable runs random order-3 tensors, with
// duplicate keys, through the native and the portable walkers at a random
// rank, team of 1-3 tasks and strategy. Without locks the outputs must be
// bitwise equal; under StrategyLock within tolerance.
func FuzzOperatorNativeMatchesPortable(f *testing.F) {
	f.Add(uint8(9), uint8(7), uint8(5), uint16(200), uint8(9), uint8(0), uint8(0), uint8(10), int64(1))
	f.Add(uint8(40), uint8(1), uint8(3), uint16(1500), uint8(35), uint8(1), uint8(1), uint8(50), int64(2))
	f.Add(uint8(2), uint8(2), uint8(2), uint16(3), uint8(1), uint8(2), uint8(2), uint8(0), int64(3))
	f.Add(uint8(200), uint8(150), uint8(90), uint16(2500), uint8(16), uint8(1), uint8(0), uint8(5), int64(4))
	f.Fuzz(func(t *testing.T, d0, d1, d2 uint8, nnz uint16, rank, tasks, strat, dupPct uint8, seed int64) {
		if !NativeExtract() {
			t.Skip("no native bit extraction on this build")
		}
		dims := []int{int(d0) + 1, int(d1) + 1, int(d2) + 1}
		rng := rand.New(rand.NewSource(seed))
		tensor := sptensor.New(dims, 0)
		for x := 0; x < int(nnz%3000)+1; x++ {
			src := -1 // repeat an earlier nonzero's coordinates dupPct% of the time
			if x > 0 && rng.Intn(100) < int(dupPct%101) {
				src = rng.Intn(x)
			}
			for m, d := range dims {
				i := sptensor.Index(rng.Intn(d))
				if src >= 0 {
					i = tensor.Inds[m][src]
				}
				tensor.Inds[m] = append(tensor.Inds[m], i)
			}
			tensor.Vals = append(tensor.Vals, rng.NormFloat64())
		}
		at, err := FromCOO(tensor, nil)
		if err != nil {
			t.Fatal(err)
		}
		portable := *at
		portable.Enc = forceTables(at.Enc)
		r := int(rank%40) + 1
		factors := randomFactors(dims, r, seed)
		team := parallel.NewTeam(int(tasks%3) + 1)
		defer team.Close()
		strategies := []mttkrp.ConflictStrategy{mttkrp.StrategyAuto, mttkrp.StrategyPrivatize, mttkrp.StrategyLock}
		opts := mttkrp.Options{Strategy: strategies[int(strat)%len(strategies)], LockKind: locks.Spin}
		opN := NewOperator(at, team, r, opts)
		opP := NewOperator(&portable, team, r, opts)
		for mode, rows := range dims {
			outN, outP := dense.NewMatrix(rows, r), dense.NewMatrix(rows, r)
			opN.Apply(mode, factors, outN)
			opP.Apply(mode, factors, outP)
			if opN.LastStrategy() == mttkrp.StrategyLock {
				if d := outN.MaxAbsDiff(outP); d > 1e-9 {
					t.Fatalf("dims %v rank %d tasks %d lock mode %d: deviates by %g", dims, r, team.N(), mode, d)
				}
				continue
			}
			for i, v := range outN.Data {
				if v != outP.Data[i] {
					t.Fatalf("dims %v rank %d tasks %d %v mode %d elem %d: native %v != portable %v",
						dims, r, team.N(), opN.LastStrategy(), mode, i, v, outP.Data[i])
				}
			}
		}
	})
}

// FuzzEncodingParity drives random coordinate pairs through both the
// native and portable ExtractAll/Step paths and requires bitwise
// agreement on extracted indices and change masks. Both bodies of
// linearizeRange must give Linearize's keys, and the keys then go through
// DelinearizeRange's native tiled body and its byte-table body, which
// must both return the coordinates. Narrow keys also go through both
// bodies of extract3Tile as one tile.
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
			if !e.Wide() {
				checkExtract3Tile(t, enc, los)
			}
		}
	})
}
