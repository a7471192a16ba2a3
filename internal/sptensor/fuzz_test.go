package sptensor

import (
	"bytes"
	"encoding/binary"
	"math"
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
		wide := data[1]
		data = data[2:]
		n := len(data) / (order + 1)
		dims := make([]int, order)
		for m := range dims {
			dims[m] = 1 + m%3*2 // 1, 3, 5: small enough to collide often
			if wide&(1<<m) != 0 {
				dims[m] = 1 << 31
			}
		}
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
			tt.Vals[x] = math.Ldexp(float64(int8(b)|1), int(b>>3))
		}
		checkMergeMatchesRef(t, tt)
	})
}
