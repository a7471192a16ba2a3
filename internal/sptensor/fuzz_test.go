package sptensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzLoadTensorReader drives the untrusted-input loader (the serve
// subsystem's ingest path) with arbitrary bytes across both the text and
// binary headers. The invariant: the loader either returns an error or a
// tensor that passes Validate and survives a save/reload round trip — it
// must never panic, hang, or hand invalid data to the kernels.
func FuzzLoadTensorReader(f *testing.F) {
	// Text seeds: plain, comments/blank lines, duplicates, bad field
	// counts, non-finite values, huge indices.
	f.Add([]byte("1 1 1 1.0\n2 2 2 2.0\n"))
	f.Add([]byte("# comment\n\n3 2 1 0.5\n3 2 1 0.5\n"))
	f.Add([]byte("1 2 3\n"))
	f.Add([]byte("1 1 1 NaN\n"))
	f.Add([]byte("0 1 1 1.0\n"))
	f.Add([]byte("2147483647 1 1 1.0\n"))
	f.Add([]byte("not a tensor at all"))

	// Binary seeds: a well-formed container, a truncated one, a bad magic,
	// and a forged header claiming a giant nnz.
	good := New([]int{3, 4, 2}, 3)
	good.Inds[0] = []Index{0, 1, 2}
	good.Inds[1] = []Index{3, 2, 1}
	good.Inds[2] = []Index{1, 0, 1}
	good.Vals = []float64{1, -2, 0.5}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, good); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-9]) // truncated values
	f.Add([]byte("SPTNBIN2garbage"))
	forged := []byte("SPTNBIN1")
	var head [8]byte
	binary.LittleEndian.PutUint64(head[:], 3)
	forged = append(forged, head[:]...)
	binary.LittleEndian.PutUint64(head[:], 1<<40) // implausible nnz
	forged = append(forged, head[:]...)
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		tensor, err := LoadTensorReader(bytes.NewReader(data))
		if err != nil {
			return // rejecting malformed input is the correct outcome
		}
		if err := tensor.Validate(); err != nil {
			t.Fatalf("loader returned invalid tensor: %v", err)
		}
		// Round trip through the binary container: anything the loader
		// accepts must serialize and reload losslessly.
		var out bytes.Buffer
		if err := SaveTensorWriter(&out, tensor, FormatBinary); err != nil {
			t.Fatalf("saving accepted tensor: %v", err)
		}
		re, err := LoadTensorReader(&out)
		if err != nil {
			t.Fatalf("reloading saved tensor: %v", err)
		}
		if re.NNZ() != tensor.NNZ() || re.NModes() != tensor.NModes() {
			t.Fatalf("round trip changed shape: %d/%d nnz, %d/%d modes",
				re.NNZ(), tensor.NNZ(), re.NModes(), tensor.NModes())
		}
	})
}

// FuzzMergeDuplicates drives MergeDuplicates' radix path against the
// comparison-sort reference in merge_test.go. The first byte picks the
// order (1–5) and the second which modes are 2^31 wide; every following
// group of order+1 bytes is one nonzero: a coordinate byte per mode (taken
// modulo a small dim, or spread over all four bytes of a wide index) and
// a value byte whose exponent varies, so summation order shows in the
// result's bits.
func FuzzMergeDuplicates(f *testing.F) {
	f.Add([]byte{2, 0, 3, 1, 7, 0, 2, 9, 3, 1, 5})
	f.Add([]byte{4, 0x1f, 255, 0, 128, 7, 1, 2, 255, 0, 128, 7, 3, 200, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{0, 0, 5, 1, 4, 2, 5, 3, 5, 4, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		order := 1 + int(data[0])%5
		checkMergeMatchesRef(t, fuzzTensor(fuzzDims(order, data[1], 0), data[2:]))
	})
}

// fuzzDims returns order mode lengths of 1, 3, 5, 1, 3 (small enough for
// coordinates to collide often) plus grow, except that the modes whose bit
// is set in wide are 2^31 long.
func fuzzDims(order int, wide byte, grow int) []int {
	dims := make([]int, order)
	for m := range dims {
		dims[m] = 1 + m%3*2 + grow
		if wide&(1<<m) != 0 {
			dims[m] = 1 << 31
		}
	}
	return dims
}

// fuzzTensor decodes every whole group of len(dims)+1 bytes of data into a
// nonzero: a coordinate byte per mode (taken modulo a small dim, or spread
// over all four bytes of a 2^31-wide index) and a value byte whose
// exponent spans 2^-62 to 2^62, wider than a float64 mantissa, so
// summation order shows in the result's bits.
func fuzzTensor(dims []int, data []byte) *Tensor {
	order := len(dims)
	n := len(data) / (order + 1)
	tt := New(dims, n)
	for x := 0; x < n; x++ {
		rec := data[x*(order+1):]
		for m := range dims {
			if dims[m] == 1<<31 {
				tt.Inds[m][x] = Index(uint32(rec[m]) * 0x01010101 & math.MaxInt32)
			} else {
				tt.Inds[m][x] = Index(int(rec[m]) % dims[m])
			}
		}
		b := rec[order]
		tt.Vals[x] = math.Ldexp(float64(int8(b)|1), int(b>>3)*4-62)
	}
	return tt
}

// FuzzAppendBatchMatchesMerge checks AppendBatch's hashed merge against
// MergeDuplicates of base followed by batch. The first byte picks the
// order (1–5), the second which modes are 2^31 wide, and the third how
// many of the decoded nonzeros (fuzzTensor) form the base, which is then
// merged duplicate-free; the rest form a batch one longer in every narrow
// mode, so it repeats its own coordinates, hits base's and grows modes.
// The merged coordinate→value map must equal the reference bit for bit,
// with the same duplicate count, and the batch's collision-free part must
// append as exactly base followed by that part.
func FuzzAppendBatchMatchesMerge(f *testing.F) {
	f.Add([]byte{2, 0, 3, 0, 1, 7, 2, 2, 9, 0, 1, 5, 0, 1, 130, 3, 0, 4, 4, 4, 4})
	f.Add([]byte{0, 0, 2, 0, 7, 1, 9, 0, 200, 3, 5, 1, 6})
	f.Add([]byte{4, 0x15, 2, 255, 0, 128, 7, 1, 2, 255, 0, 128, 7, 3, 200, 9, 9, 9, 9, 9, 9,
		255, 0, 128, 7, 1, 77, 9, 9, 9, 9, 9, 8})
	f.Add([]byte{1, 0x3, 1, 5, 5, 40, 5, 5, 41, 6, 5, 42, 5, 5, 43})
	f.Add([]byte{3, 0x8, 2, 0, 2, 3, 200, 9, 0, 1, 2, 7, 30, 0, 2, 3, 200, 60, 0, 2, 3, 200, 61, 1, 1, 1, 4, 5})
	// Order 2, a 32-nonzero base: the batch hits base's (0,2) twice, with
	// values whose sum changes bits if the two are added to each other
	// before base's.
	f.Add([]byte("80 02\xfa" + strings.Repeat("0", 96) + "02\xfc02\x94"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		order := 1 + int(data[0])%5
		all := fuzzTensor(fuzzDims(order, data[1], 0), data[3:])
		split := int(data[2])
		if split >= all.NNZ() {
			return // the batch must hold a nonzero
		}
		base := New(all.Dims, split)
		for m := range base.Inds {
			copy(base.Inds[m], all.Inds[m])
		}
		copy(base.Vals, all.Vals)
		MergeDuplicates(base)
		batch := fuzzTensor(fuzzDims(order, data[1], 1), data[3+split*(order+1):])

		merged, dups, err := AppendBatch(base, batch)
		if err != nil {
			t.Fatal(err)
		}
		ref := concat(base, batch)
		refDups := MergeDuplicates(ref)
		if dups != refDups || merged.NNZ() != ref.NNZ() {
			t.Fatalf("merged %d duplicates to %d nonzeros, reference %d to %d",
				dups, merged.NNZ(), refDups, ref.NNZ())
		}
		for m, d := range ref.Dims {
			if merged.Dims[m] != d {
				t.Fatalf("mode %d length %d, reference %d", m, merged.Dims[m], d)
			}
		}
		refVals := coordValues(t, ref)
		for coord, bits := range coordValues(t, merged) {
			if refVals[coord] != bits {
				t.Fatalf("coordinate %v: value bits %#x, reference %#x", coord, bits, refVals[coord])
			}
		}

		// The batch's nonzeros whose coordinates neither base nor an earlier
		// batch nonzero holds.
		seen := coordValues(t, base)
		fresh := New(batch.Dims, 0)
		for x := 0; x < batch.NNZ(); x++ {
			var c [5]Index
			for m := range batch.Inds {
				c[m] = batch.Inds[m][x]
			}
			if _, ok := seen[c]; ok {
				continue
			}
			seen[c] = 0
			for m := range fresh.Inds {
				fresh.Inds[m] = append(fresh.Inds[m], c[m])
			}
			fresh.Vals = append(fresh.Vals, batch.Vals[x])
		}
		if fresh.NNZ() == 0 {
			return
		}
		merged, dups, err = AppendBatch(base, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if dups != 0 {
			t.Fatalf("collision-free batch merged %d duplicates", dups)
		}
		want := concat(base, fresh)
		for m, d := range want.Dims {
			if merged.Dims[m] != d {
				t.Fatalf("collision-free append: mode %d length %d, want %d", m, merged.Dims[m], d)
			}
		}
		for x, v := range want.Vals {
			for m := range want.Inds {
				if merged.Inds[m][x] != want.Inds[m][x] {
					t.Fatalf("collision-free append: nonzero %d mode %d index %d, want %d",
						x, m, merged.Inds[m][x], want.Inds[m][x])
				}
			}
			if math.Float64bits(merged.Vals[x]) != math.Float64bits(v) {
				t.Fatalf("collision-free append: nonzero %d value %v, want %v", x, merged.Vals[x], v)
			}
		}
	})
}

// concat returns a followed by b, with each mode as long as the longer of
// the two.
func concat(a, b *Tensor) *Tensor {
	out := New(a.Dims, 0)
	for m := range out.Inds {
		out.Dims[m] = max(a.Dims[m], b.Dims[m])
		out.Inds[m] = append(append(out.Inds[m], a.Inds[m]...), b.Inds[m]...)
	}
	out.Vals = append(append(out.Vals, a.Vals...), b.Vals...)
	return out
}

// coordValues maps each nonzero's coordinates (order ≤ 5) to its value's
// bits, failing on a repeated coordinate.
func coordValues(t testing.TB, tt *Tensor) map[[5]Index]uint64 {
	t.Helper()
	out := make(map[[5]Index]uint64, tt.NNZ())
	for x := 0; x < tt.NNZ(); x++ {
		var c [5]Index
		for m := range tt.Inds {
			c[m] = tt.Inds[m][x]
		}
		if _, ok := out[c]; ok {
			t.Fatalf("coordinate %v stored twice", c)
		}
		out[c] = math.Float64bits(tt.Vals[x])
	}
	return out
}
