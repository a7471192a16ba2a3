package sptensor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// TestReadTNSErrors covers the malformed-text surface: server uploads are
// untrusted, so every bad input must return an error, never panic.
func TestReadTNSErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"comments only", "# nothing here\n\n# still nothing\n"},
		{"one field", "42\n"},
		{"ragged line", "1 2 3 1.0\n1 2 1.0\n"},
		{"extra field", "1 2 3 1.0\n1 2 3 4 1.0\n"},
		{"non-numeric index", "1 x 3 1.0\n"},
		{"zero index", "1 0 3 1.0\n"},
		{"negative index", "1 -2 3 1.0\n"},
		{"index overflows int32", "1 4294967296 3 1.0\n"},
		{"non-numeric value", "1 2 3 pi\n"},
		{"nan value", "1 2 3 NaN\n"},
		{"inf value", "1 2 3 +Inf\n"},
		{"oversized line", "1 2 3 " + strings.Repeat("9", 2<<20) + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTNS(strings.NewReader(tc.input)); err == nil {
				t.Fatalf("ReadTNS(%q) succeeded, want error", tc.name)
			}
		})
	}
}

// validBinary renders a small valid container for corruption tests.
func validBinary(t *testing.T) []byte {
	t.Helper()
	tensor := Random([]int{6, 5, 4}, 30, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tensor); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// forgedHeader forges a binary container header with no payload.
func forgedHeader(order, nnz uint64, dims ...uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString("SPTNBIN1")
	_ = binary.Write(&buf, binary.LittleEndian, []uint64{order, nnz})
	_ = binary.Write(&buf, binary.LittleEndian, dims)
	return buf.Bytes()
}

// TestReadBinaryErrors covers the forged/truncated container surface.
func TestReadBinaryErrors(t *testing.T) {
	valid := validBinary(t)

	cases := []struct {
		name  string
		input []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOTATNSB" + "rest")},
		{"truncated magic", []byte("SPTN")},
		{"truncated header", []byte("SPTNBIN1\x01\x00")},
		{"zero order", forgedHeader(0, 10, 1)},
		{"implausible order", forgedHeader(65, 10)},
		{"zero nonzeros", forgedHeader(3, 0, 2, 2, 2)},
		{"implausible nnz", forgedHeader(3, 1<<40, 2, 2, 2)},
		{"zero dim", forgedHeader(3, 10, 2, 0, 2)},
		{"dim overflows int32", forgedHeader(3, 10, 2, 1<<33, 2)},
		{"huge nnz truncated payload", forgedHeader(3, 1<<30, 8, 8, 8)},
		{"truncated indices", valid[:len(valid)-200]},
		{"truncated values", valid[:len(valid)-8]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadBinary(bytes.NewReader(tc.input)); err == nil {
				t.Fatalf("ReadBinary(%s) succeeded, want error", tc.name)
			}
		})
	}
}

// TestReadBinaryNNZBound pins the header's nonzero bound at MaxNNZ, the
// most an int32 sort permutation indexes: one more is refused as
// implausible before any payload is read, while MaxNNZ itself passes the
// header check and fails only on the missing payload.
func TestReadBinaryNNZBound(t *testing.T) {
	_, err := ReadBinary(bytes.NewReader(forgedHeader(3, MaxNNZ+1, 2, 2, 2)))
	if err == nil || !strings.Contains(err.Error(), "implausible nonzero count") {
		t.Errorf("header claiming MaxNNZ+1 nonzeros: err %v, want implausible nonzero count", err)
	}
	_, err = ReadBinary(bytes.NewReader(forgedHeader(3, MaxNNZ, 2, 2, 2)))
	if err == nil || strings.Contains(err.Error(), "implausible") {
		t.Errorf("header claiming MaxNNZ nonzeros: err %v, want a truncated-payload error", err)
	}
}

// TestReadBinaryOutOfRangeIndex forges a container whose coordinates lie
// outside the declared dims; Validate must reject it.
func TestReadBinaryOutOfRangeIndex(t *testing.T) {
	tensor := Random([]int{6, 5, 4}, 30, 1)
	tensor.Inds[1][3] = 5 // == Dims[1], out of range
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tensor); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestLoadTensorReaderRoundTrip checks both encodings stream-round-trip
// through the reader/writer API (the serve ingest path).
func TestLoadTensorReaderRoundTrip(t *testing.T) {
	tensor := Random([]int{12, 9, 7}, 200, 4)
	for _, format := range []Format{FormatTNS, FormatBinary} {
		var buf bytes.Buffer
		if err := SaveTensorWriter(&buf, tensor, format); err != nil {
			t.Fatalf("%v: save: %v", format, err)
		}
		got, err := LoadTensorReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: load: %v", format, err)
		}
		if got.NNZ() != tensor.NNZ() || got.NModes() != tensor.NModes() {
			t.Fatalf("%v: round trip mismatch: %d/%d nnz", format, got.NNZ(), tensor.NNZ())
		}
		for x := 0; x < got.NNZ(); x++ {
			if got.Vals[x] != tensor.Vals[x] {
				t.Fatalf("%v: value %d mismatch", format, x)
			}
			for m := 0; m < got.NModes(); m++ {
				if got.Inds[m][x] != tensor.Inds[m][x] {
					t.Fatalf("%v: index (%d,%d) mismatch", format, m, x)
				}
			}
		}
	}
}

// TestFormatForPath pins the historical SaveFile extension rules.
func TestFormatForPath(t *testing.T) {
	if FormatForPath("x.tns") != FormatTNS || FormatForPath("x.bin") != FormatBinary ||
		FormatForPath("x") != FormatBinary {
		t.Fatal("FormatForPath extension mapping changed")
	}
	if _, err := ParseFormat("tns"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFormat("nope"); err == nil {
		t.Fatal("ParseFormat accepted garbage")
	}
}

// TestWriteBinaryGolden pins WriteBinary's bytes with the SHA-256 of a
// fixed tensor's encoding. The tensor is built by formula, not drawn, and
// its 9,001 nonzeros of order 3 encode to 180 KB: several encode chunks,
// with the values starting 4 bytes off a chunk's 8-byte grid.
func TestWriteBinaryGolden(t *testing.T) {
	dims := []int{300, 200, 1 << 20}
	tt := New(dims, 9001)
	for x := range tt.Vals {
		for m, d := range dims {
			tt.Inds[m][x] = Index((x*(7919+m*104729) + m) % d)
		}
		tt.Vals[x] = math.Ldexp(float64(x%97)-48.5, x%61-30)
	}
	h := sha256.New()
	if err := WriteBinary(h, tt); err != nil {
		t.Fatal(err)
	}
	const want = "c2dc83fc6211a738381e6b45f3f5e409e884e33259f9fee7fdef0d96fac4d2ab"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("encoding SHA-256 %s, want %s", got, want)
	}
}
