package dense

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// withGenericKernels runs fn with the dispatch table forced to the pure-Go
// bodies, restoring the detected set afterwards. Tests and the native-vs-
// generic benchmarks use it; nothing outside the test binary swaps the
// table after init.
func withGenericKernels(fn func()) {
	sAxpy, sAdd, sMul, sMulAdd, sMulSet, sScaleSet, sDot, sSyrk :=
		vecAxpy, vecAdd, vecMul, vecMulAdd, vecMulSet, vecScaleSet, vecDot, syrkRow
	sAxpyMS, sScaleMS, sMulAxpy, sMulSS, sGather :=
		vecAxpyMulSet, vecScaleMulSet, vecMulAxpy, vecMulScaleSet, gatherAxpy
	vecAxpy, vecAdd, vecMul, vecMulAdd, vecMulSet, vecScaleSet, vecDot, syrkRow =
		vecAxpyGeneric, vecAddGeneric, vecMulGeneric, vecMulAddGeneric,
		vecMulSetGeneric, vecScaleSetGeneric, vecDotGeneric, syrkRowGeneric
	vecAxpyMulSet, vecScaleMulSet, vecMulAxpy, vecMulScaleSet, gatherAxpy =
		vecAxpyMulSetCompose, vecScaleMulSetCompose, vecMulAxpyGeneric, vecMulScaleSetGeneric,
		gatherAxpyCompose
	defer func() {
		vecAxpy, vecAdd, vecMul, vecMulAdd, vecMulSet, vecScaleSet, vecDot, syrkRow =
			sAxpy, sAdd, sMul, sMulAdd, sMulSet, sScaleSet, sDot, sSyrk
		vecAxpyMulSet, vecScaleMulSet, vecMulAxpy, vecMulScaleSet, gatherAxpy =
			sAxpyMS, sScaleMS, sMulAxpy, sMulSS, sGather
	}()
	fn()
}

// closeEnough compares a native result against the generic one with a
// tolerance scaled to the magnitude of the terms: FMA contraction changes
// rounding, so bitwise equality is not expected, but 1e-12 relative to the
// accumulation scale is.
func closeEnough(got, want, scale float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	if scale < 1 {
		scale = 1
	}
	return math.Abs(got-want) <= 1e-12*scale
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 8
		if rng.Intn(16) == 0 {
			v[i] = 0 // exercise the Syrk skip path
		}
	}
	return v
}

// checkKernelParity runs every dispatched kernel against its generic body
// on the given operands and reports mismatches.
func checkKernelParity(t *testing.T, dst, x, y []float64, a float64) {
	t.Helper()
	n := len(dst)
	scale := math.Abs(a)
	for i := 0; i < n; i++ {
		s := math.Abs(dst[i]) + math.Abs(a*x[i]) + math.Abs(x[i]*y[i])
		if s > scale {
			scale = s
		}
	}

	check := func(name string, native, generic func(d []float64)) {
		t.Helper()
		dn := append([]float64(nil), dst...)
		dg := append([]float64(nil), dst...)
		native(dn)
		generic(dg)
		for i := range dn {
			if !closeEnough(dn[i], dg[i], scale) {
				t.Fatalf("%s: n=%d i=%d native=%g generic=%g", name, n, i, dn[i], dg[i])
			}
		}
	}

	check("VecAxpy", func(d []float64) { vecAxpy(d, x, a) }, func(d []float64) { vecAxpyGeneric(d, x, a) })
	check("VecAdd", func(d []float64) { vecAdd(d, x) }, func(d []float64) { vecAddGeneric(d, x) })
	check("VecMul", func(d []float64) { vecMul(d, x) }, func(d []float64) { vecMulGeneric(d, x) })
	check("VecMulAdd", func(d []float64) { vecMulAdd(d, x, y) }, func(d []float64) { vecMulAddGeneric(d, x, y) })
	check("VecMulSet", func(d []float64) { vecMulSet(d, x, y) }, func(d []float64) { vecMulSetGeneric(d, x, y) })
	check("VecScaleSet", func(d []float64) { vecScaleSet(d, x, a) }, func(d []float64) { vecScaleSetGeneric(d, x, a) })
	check("VecMulAxpy", func(d []float64) { vecMulAxpy(d, x, y, a) }, func(d []float64) { vecMulAxpyGeneric(d, x, y, a) })
	check("VecMulScaleSet", func(d []float64) { vecMulScaleSet(d, x, y, a) }, func(d []float64) { vecMulScaleSetGeneric(d, x, y, a) })

	// The fused scale-accumulate kernels mutate both dst and the Hadamard
	// buffer h, so they get a two-output variant of the check.
	h := make([]float64, n)
	for i := range h {
		h[i] = 0.5*x[i] - y[i]
	}
	scale2 := scale
	for i := 0; i < n; i++ {
		if s := math.Abs(a * h[i]); s > scale2 {
			scale2 = s
		}
	}
	check2 := func(name string, native, generic func(d, hh []float64)) {
		t.Helper()
		dn, dg := append([]float64(nil), dst...), append([]float64(nil), dst...)
		hn, hg := append([]float64(nil), h...), append([]float64(nil), h...)
		native(dn, hn)
		generic(dg, hg)
		for i := range dn {
			if !closeEnough(dn[i], dg[i], scale2) {
				t.Fatalf("%s dst: n=%d i=%d native=%g generic=%g", name, n, i, dn[i], dg[i])
			}
			if !closeEnough(hn[i], hg[i], scale2) {
				t.Fatalf("%s h: n=%d i=%d native=%g generic=%g", name, n, i, hn[i], hg[i])
			}
		}
	}
	check2("VecAxpyMulSet",
		func(d, hh []float64) { vecAxpyMulSet(d, hh, x, y, a) },
		func(d, hh []float64) { vecAxpyMulSetCompose(d, hh, x, y, a) })
	check2("VecScaleMulSet",
		func(d, hh []float64) { vecScaleMulSet(d, hh, x, y, a) },
		func(d, hh []float64) { vecScaleMulSetCompose(d, hh, x, y, a) })

	// GatherAxpy over a two-row matrix (x, then y) by a fiber that
	// repeats both rows and ends on the last.
	rows := append(append([]float64(nil), x...), y...)
	checkGatherParity(t, dst, rows, []int32{0, 1, 1, 0, 1}, []float64{a, -0.5 * a, 1.5, a * a, -3})

	gotDot := vecDot(x, y)
	wantDot := vecDotGeneric(x, y)
	dotScale := 0.0
	for i := range x {
		dotScale += math.Abs(x[i] * y[i])
	}
	if !closeEnough(gotDot, wantDot, dotScale) {
		t.Fatalf("VecDot: n=%d native=%g generic=%g", n, gotDot, wantDot)
	}
}

// checkGatherParity pins GatherAxpy on one fiber. Each kernel set must
// equal a loop of its own VecAxpy over the fiber bit for bit, with NaN and
// Inf in the same lanes (a NaN matches any NaN: IEEE 754 leaves payload
// propagation to the hardware); the live set must match the generic one
// within the scaled bound on every lane whose scale is finite.
// Contraction can overflow one side's chain and not the other's, so lanes
// with an infinite or NaN scale are left to the bitwise check.
func checkGatherParity(t *testing.T, dst, rows []float64, idx []int32, vals []float64) {
	t.Helper()
	r := len(dst)
	loop := func() []float64 {
		d := append([]float64(nil), dst...)
		for x, i := range idx {
			off := int(i) * r
			vecAxpy(d, rows[off:off+r], vals[x])
		}
		return d
	}
	gather := func() []float64 {
		d := append([]float64(nil), dst...)
		gatherAxpy(d, rows, idx, vals)
		return d
	}
	sameBits := func(lane string, got, want []float64) {
		t.Helper()
		for c := range got {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) && !(math.IsNaN(got[c]) && math.IsNaN(want[c])) {
				t.Fatalf("GatherAxpy %s: r=%d nnz=%d col %d: gather=%v (%#x) VecAxpy loop=%v (%#x)",
					lane, r, len(idx), c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
	}
	native := gather()
	sameBits(KernelISA(), native, loop())
	var generic []float64
	withGenericKernels(func() {
		generic = gather()
		sameBits("generic", generic, loop())
	})
	for c := 0; c < r; c++ {
		scale := math.Abs(dst[c])
		for x, i := range idx {
			scale += math.Abs(vals[x] * rows[int(i)*r+c])
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			continue
		}
		if !closeEnough(native[c], generic[c], scale) {
			t.Fatalf("GatherAxpy: r=%d nnz=%d col %d: native=%g generic=%g", r, len(idx), c, native[c], generic[c])
		}
	}
}

// TestGatherAxpyParity covers GatherAxpy's column blocks (every count to
// 40, then 64, 100 and 255) against fibers of 0 to 257 nonzeros that
// repeat rows and read the matrix's last row.
func TestGatherAxpyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m = 23
	cols := []int{64, 100, 255}
	for r := 0; r <= 40; r++ {
		cols = append(cols, r)
	}
	for _, r := range cols {
		rows := randVec(rng, m*r)
		for _, nnz := range []int{0, 1, 2, 3, 40, 257} {
			idx := make([]int32, nnz)
			for x := range idx {
				idx[x] = int32(rng.Intn(m))
			}
			if nnz > 0 {
				idx[nnz-1] = m - 1
			}
			if nnz > 2 {
				idx[1] = idx[0]
			}
			checkGatherParity(t, randVec(rng, r), rows, idx, randVec(rng, nnz))
		}
	}
}

func TestKernelParitySizes(t *testing.T) {
	t.Logf("kernel ISA: %s (cpu %s)", KernelISA(), cpu.Summary())
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 32, 33, 63, 64, 100, 255} {
		checkKernelParity(t, randVec(rng, n), randVec(rng, n), randVec(rng, n), rng.NormFloat64()*4)
	}
}

func TestSyrkRowParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, r := range []int{1, 2, 3, 4, 5, 8, 13, 16, 32, 47} {
		row := randVec(rng, r)
		scale := 0.0
		for _, v := range row {
			if math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		scale = scale * scale * float64(r)
		pn := randVec(rng, r*r)
		pg := append([]float64(nil), pn...)
		syrkRow(pn, row)
		syrkRowGeneric(pg, row)
		for i := range pn {
			if !closeEnough(pn[i], pg[i], scale) {
				t.Fatalf("syrkRow r=%d i=%d native=%g generic=%g", r, i, pn[i], pg[i])
			}
		}
	}
}

// FuzzVecKernels is the differential harness of the dispatch layer: the
// fuzzer picks lengths, offsets, and raw float64 payloads, and every
// native kernel must agree with its pure-Go body within 1e-12 of the
// accumulation scale (exactly under purego builds, where both sides are
// the same code).
func FuzzVecKernels(f *testing.F) {
	f.Add(uint16(8), int64(1))
	f.Add(uint16(0), int64(2))
	f.Add(uint16(259), int64(3))
	f.Add(uint16(31), int64(-9))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := int(nRaw % 300)
		rng := rand.New(rand.NewSource(seed))
		checkKernelParity(t, randVec(rng, n), randVec(rng, n), randVec(rng, n), rng.NormFloat64()*4)
	})
}

// FuzzVecKernelsRawBits drives the kernels with arbitrary bit patterns
// (including NaN, Inf, denormals) — the paths where contraction or a
// skipped multiply could diverge structurally rather than in rounding.
// The live VecMulAdd must equal an exact reference in every lane:
// math.FMA where the kernel set fuses (avx2+fma, neon), the generic body
// where it is the generic set. Against the generic body it keeps the
// scaled bound on lanes where both results are finite. A fused and an
// unfused body can disagree beyond rounding: fma(1e200, 1e200, -Inf) is
// -Inf, while the unfused body rounds the product to +Inf first and
// returns NaN.
func FuzzVecKernelsRawBits(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // +Inf
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // NaN
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n == 0 {
			return
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		// Split the payload across the three operands.
		dst := vals
		x := append([]float64(nil), vals...)
		for i, j := 0, len(x)-1; i < j; i, j = i+1, j-1 {
			x[i], x[j] = x[j], x[i]
		}
		dn := append([]float64(nil), dst...)
		dg := append([]float64(nil), dst...)
		vecMulAdd(dn, x, x)
		vecMulAddGeneric(dg, x, x)
		fused := KernelISA() != "generic"
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for i := range dn {
			ref := dg[i]
			if fused {
				ref = math.FMA(x[i], x[i], dst[i])
			}
			if math.IsNaN(dn[i]) != math.IsNaN(ref) || !math.IsNaN(ref) && math.Float64bits(dn[i]) != math.Float64bits(ref) {
				t.Fatalf("VecMulAdd at %d (%s): native=%v reference=%v", i, KernelISA(), dn[i], ref)
			}
			if !finite(dn[i]) || !finite(dg[i]) {
				continue
			}
			scale := math.Abs(dst[i]) + math.Abs(x[i]*x[i])
			if !closeEnough(dn[i], dg[i], scale) {
				t.Fatalf("VecMulAdd at %d: native=%g generic=%g", i, dn[i], dg[i])
			}
		}
		// The gather reads a two-row matrix (x, then the payload) with the
		// payload's own bits as values, so NaN, Inf and denormals reach
		// every column block.
		rows := append(append([]float64(nil), x...), dst...)
		checkGatherParity(t, dst, rows, []int32{0, 1, 1, 0}, []float64{dst[0], x[0], dst[n/2], x[n-1]})
	})
}

func benchSizes(b *testing.B, name string, run func(b *testing.B, n int)) {
	b.Helper()
	for _, n := range []int{16, 1024} {
		b.Run(name+"/n="+itoa(n)+"/isa=native", func(b *testing.B) { run(b, n) })
		b.Run(name+"/n="+itoa(n)+"/isa=generic", func(b *testing.B) {
			withGenericKernels(func() { run(b, n) })
		})
	}
}

func itoa(n int) string {
	if n == 16 {
		return "16"
	}
	return "1024"
}

var benchSink float64

// BenchmarkVecKernels pins the native-vs-generic ratio of the hot vector
// kernels; EXPERIMENTS.md records the measured speedups.
func BenchmarkVecKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	benchSizes(b, "VecDot", func(b *testing.B, n int) {
		x, y := randVec(rng, n), randVec(rng, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += VecDot(x, y)
		}
	})
	benchSizes(b, "VecAxpy", func(b *testing.B, n int) {
		d, x := randVec(rng, n), randVec(rng, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			VecAxpy(d, x, 1.000000001)
		}
	})
	benchSizes(b, "VecMulSet", func(b *testing.B, n int) {
		d, x, y := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			VecMulSet(d, x, y)
		}
	})
	// One CSF fiber at the NELL-2 twin's shape: rank 35, 40 nonzeros
	// over the 453 rows of the leaf factor.
	const r, nnz, m = 35, 40, 453
	rows, acc, vals := randVec(rng, m*r), randVec(rng, r), randVec(rng, nnz)
	idx := make([]int32, nnz)
	for x := range idx {
		idx[x] = int32(rng.Intn(m))
	}
	gather := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			GatherAxpy(acc, rows, idx, vals)
		}
	}
	b.Run("GatherAxpy/r=35/nnz=40/isa=native", gather)
	b.Run("GatherAxpy/r=35/nnz=40/isa=generic", func(b *testing.B) {
		withGenericKernels(func() { gather(b) })
	})
}

// BenchmarkSyrk pins the Gram-kernel ratio on a tall-skinny block shaped
// like a CP-ALS factor (4096×32).
func BenchmarkSyrk(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const rows, rank = 4096, 32
	a := NewMatrix(rows, rank)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	part := make([]float64, rank*rank)
	b.Run("isa=native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			syrkBlock(a, part, 0, rows)
		}
	})
	b.Run("isa=generic", func(b *testing.B) {
		withGenericKernels(func() {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				syrkBlock(a, part, 0, rows)
			}
		})
	})
}
