package sptensor

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
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

// TestLoadTensorReaderPeek checks the format peek on inputs shorter than
// the binary magic, read a byte at a time, and failing to read.
func TestLoadTensorReaderPeek(t *testing.T) {
	for _, in := range []string{"1 2 3\n", "1 2 3", "2 2 1.5\n1 1 1 \n# end\n"} {
		want, err := readTNSRef(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []io.Reader{strings.NewReader(in), iotest.OneByteReader(strings.NewReader(in))} {
			got, err := LoadTensorReader(r)
			if err != nil {
				t.Fatalf("%q: %v", in, err)
			}
			if diff := sameTNS(got, want); diff != "" {
				t.Fatalf("%q: %s", in, diff)
			}
		}
	}
	errRead := errors.New("read failed")
	if _, err := LoadTensorReader(iotest.ErrReader(errRead)); !errors.Is(err, errRead) {
		t.Fatalf("failing reader: %v, want %v", err, errRead)
	}
}

// TestLoadTensorReaderSmallInputAllocs pins what a small input costs
// through LoadTensorReader read from a bytes.Buffer, as the service reads
// an upload or a PATCH batch, in both encodings: the format peek holds no
// buffer of its own, the first .tns block is the input's size, not
// 256 KiB, and the binary reader reads in its bounded chunks without a
// buffer of its own. A 2,350-nonzero batch (stream-yelp's PATCH size) may
// allocate 256 KiB and 20 nonzeros 32 KiB, merge included.
func TestLoadTensorReaderSmallInputAllocs(t *testing.T) {
	encodings := []struct {
		name  string
		write func(io.Writer, *Tensor) error
	}{{"tns", WriteTNS}, {"binary", WriteBinary}}
	for _, enc := range encodings {
		for _, tc := range []struct{ lines, limit int }{{20, 32 << 10}, {2350, 256 << 10}} {
			var buf bytes.Buffer
			if err := enc.write(&buf, Random([]int{2563, 688, 4688}, tc.lines, 11)); err != nil {
				t.Fatal(err)
			}
			in := buf.Bytes()
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if _, err := LoadTensorReader(bytes.NewBuffer(in)); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			per := int((after.TotalAlloc - before.TotalAlloc) / runs)
			t.Logf("%s, %d nonzeros (%d B): %d B allocated per read", enc.name, tc.lines, len(in), per)
			if per > tc.limit {
				t.Errorf("%s, %d nonzeros (%d B): %d B allocated per read, want at most %d",
					enc.name, tc.lines, len(in), per, tc.limit)
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

// TestWriteTNSGolden pins WriteTNS's bytes with the SHA-256 of a fixed
// tensor's text, computed when WriteTNS still printed each field with
// fmt.Fprintf. The tensor is built by formula: 9,001 nonzeros of order 4
// (416 KB of text, several encode buffers), indices up to 2^31-2, and
// values of every sign and of exponents from 2^-550 to 2^550.
func TestWriteTNSGolden(t *testing.T) {
	dims := []int{300, 7, 1<<31 - 1, 1 << 20}
	tt := New(dims, 9001)
	for x := range tt.Vals {
		for m, d := range dims {
			tt.Inds[m][x] = Index((x*(7919+m*104729) + m) % d)
		}
		if x%10 == 3 {
			tt.Inds[2][x] = Index(dims[2] - 1 - x%5)
		}
		tt.Vals[x] = math.Ldexp(float64(x*2654435761%1000003)/1000003-0.5, x%1100-550)
	}
	h := sha256.New()
	if err := WriteTNS(h, tt); err != nil {
		t.Fatal(err)
	}
	const want = "bb77a3bb333bfe3cc8dd7731815e43fa7ca74eba171022138c92d3b12e117419"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("text SHA-256 %s, want %s", got, want)
	}
}

// TestWriteTNSLargestIndex checks the largest index a 2^31-long mode
// holds, 2^31-1, which is written 1-based as 2147483648 (int32 arithmetic
// would wrap it to -2147483648).
func TestWriteTNSLargestIndex(t *testing.T) {
	tt := New([]int{1 << 31, 3}, 1)
	tt.Inds[0][0], tt.Inds[1][0], tt.Vals[0] = math.MaxInt32, 2, -0.25
	var buf bytes.Buffer
	if err := WriteTNS(&buf, tt); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "2147483648 3 -0.25\n"; got != want {
		t.Errorf("WriteTNS wrote %q, want %q", got, want)
	}
}

// readTNSRef is ReadTNS as it was before the block reader: one line at a
// time through a bufio.Scanner, strings.Fields and strconv. It is kept
// verbatim as the reference the differential tests hold ReadTNS to.
func readTNSRef(r io.Reader) (*Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		order int
		inds  [][]Index
		vals  []float64
		dims  []int
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if order == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("sptensor: line %d: %d fields, need >= 2", lineNo, len(fields))
			}
			order = len(fields) - 1
			inds = make([][]Index, order)
			dims = make([]int, order)
		}
		if len(fields) != order+1 {
			return nil, fmt.Errorf("sptensor: line %d: %d fields, want %d", lineNo, len(fields), order+1)
		}
		if len(vals) == MaxNNZ {
			return nil, fmt.Errorf("sptensor: line %d: more than %d nonzeros", lineNo, MaxNNZ)
		}
		for m := 0; m < order; m++ {
			v, err := strconv.ParseInt(fields[m], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("sptensor: line %d mode %d: %v", lineNo, m, err)
			}
			if v < 1 {
				return nil, fmt.Errorf("sptensor: line %d mode %d: index %d < 1", lineNo, m, v)
			}
			idx := Index(v - 1)
			inds[m] = append(inds[m], idx)
			if int(idx)+1 > dims[m] {
				dims[m] = int(idx) + 1
			}
		}
		val, err := strconv.ParseFloat(fields[order], 64)
		if err != nil {
			return nil, fmt.Errorf("sptensor: line %d value: %v", lineNo, err)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("sptensor: line %d value: non-finite %v", lineNo, val)
		}
		vals = append(vals, val)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if order == 0 {
		return nil, fmt.Errorf("sptensor: no nonzeros in input")
	}
	t := &Tensor{Dims: dims, Inds: inds, Vals: vals}
	return t, t.Validate()
}

// Separators, index spellings and value spellings of tnsFixture: every
// form the reference accepts, ASCII and not.
var (
	tnsSeps      = []string{" ", " ", " ", "\t", "  \t ", "\v", "\f", "\u00a0", " \u0085 ", "\r "}
	tnsLineEnds  = []string{"\n", "\n", "\n", "\r\n", " \t\n", "\u00a0\n"}
	tnsIndexForm = []func(v int) string{
		strconv.Itoa, strconv.Itoa, strconv.Itoa,
		func(v int) string { return "+" + strconv.Itoa(v) },
		func(v int) string { return "000" + strconv.Itoa(v) },
	}
	tnsValueForm = []func(v float64) string{
		func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) },
		func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) },
		func(v float64) string { return strconv.FormatFloat(v, 'e', 16, 64) },
		func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) },
		func(v float64) string { return "+" + strconv.FormatFloat(math.Abs(v), 'f', -1, 64) },
		func(v float64) string { return strconv.Itoa(int(v * 100)) },
		func(float64) string { return "-0" },
		func(float64) string { return ".5" },
	}
)

// tnsFixture renders lines lines of order-3 .tns text from rng, with
// comments, blank lines and every spelling above, and returns it with the
// line number of each data line. Indices reach 2^31-1.
func tnsFixture(rng *rand.Rand, lines int) ([]byte, []int) {
	var b bytes.Buffer
	var dataLines []int
	for l := 1; l <= lines; l++ {
		switch k := rng.Intn(50); {
		case k == 0:
			b.WriteString("# comment 1 2 3 4\n")
		case k == 1:
			b.WriteString("\n")
		case k == 2:
			b.WriteString(" \t# indented comment\r\n")
		case k == 3:
			b.WriteString(" \t\u00a0\r\n")
		default:
			if rng.Intn(8) == 0 {
				b.WriteString(tnsSeps[rng.Intn(len(tnsSeps))])
			}
			for m := 0; m < 3; m++ {
				v := 1 + rng.Intn(5000)
				if rng.Intn(200) == 0 {
					v = math.MaxInt32
				}
				b.WriteString(tnsIndexForm[rng.Intn(len(tnsIndexForm))](v))
				b.WriteString(tnsSeps[rng.Intn(len(tnsSeps))])
			}
			v := math.Ldexp(rng.Float64()-0.5, rng.Intn(80)-40)
			b.WriteString(tnsValueForm[rng.Intn(len(tnsValueForm))](v))
			b.WriteString(tnsLineEnds[rng.Intn(len(tnsLineEnds))])
			dataLines = append(dataLines, l)
		}
	}
	return b.Bytes(), dataLines
}

// sameTNS reports how got differs from want, bit for bit ("" if not).
func sameTNS(got, want *Tensor) string {
	if fmt.Sprint(got.Dims) != fmt.Sprint(want.Dims) || len(got.Inds) != len(want.Inds) || len(got.Vals) != len(want.Vals) {
		return fmt.Sprintf("dims %v, %d nonzeros; want %v, %d", got.Dims, len(got.Vals), want.Dims, len(want.Vals))
	}
	for m := range want.Inds {
		for x, c := range want.Inds[m] {
			if got.Inds[m][x] != c {
				return fmt.Sprintf("nonzero %d mode %d: index %d, want %d", x, m, got.Inds[m][x], c)
			}
		}
	}
	for x, v := range want.Vals {
		if math.Float64bits(got.Vals[x]) != math.Float64bits(v) {
			return fmt.Sprintf("nonzero %d: value %v, want %v", x, got.Vals[x], v)
		}
	}
	return ""
}

// checkMatchesRef parses in with the reference and with each reader, and
// fails unless each rejects it with the reference's error text or accepts
// it with a bitwise-equal tensor.
func checkMatchesRef(t *testing.T, in []byte, readers ...*tnsReader) {
	t.Helper()
	want, wantErr := readTNSRef(bytes.NewReader(in))
	for _, tr := range readers {
		got, err := tr.read(bytes.NewReader(in))
		switch {
		case wantErr != nil || err != nil:
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("tasks %d: error %v, reference %v", tr.tasks, err, wantErr)
			}
		default:
			if diff := sameTNS(got, want); diff != "" {
				t.Fatalf("tasks %d: %s", tr.tasks, diff)
			}
		}
	}
}

// smallBlocks returns a reader of tasks whose blocks and team threshold
// are small enough that a few hundred KB of input spans many blocks.
func smallBlocks(tasks int) *tnsReader {
	return &tnsReader{tasks: tasks, maxNNZ: MaxNNZ, block: 16 << 10, teamMin: 2 << 10}
}

// realBlocks returns a reader of tasks with ReadTNS's block sizes.
func realBlocks(tasks int) *tnsReader {
	return &tnsReader{tasks: tasks, maxNNZ: MaxNNZ, block: tnsBlock, teamMin: tnsTeamMin}
}

// sized returns tr told that its input holds size bytes.
func sized(tr *tnsReader, size int) *tnsReader {
	tr.size = size
	return tr
}

// plant returns a copy of in whose data line holding or preceding byte pos
// is overwritten with bad, padded with spaces to the line's length, so no
// block boundary moves.
func plant(t *testing.T, in []byte, pos int, bad string) []byte {
	t.Helper()
	out := bytes.Clone(in)
	end := bytes.IndexByte(out[pos:], '\n')
	if end < 0 {
		end = len(out)
	} else {
		end += pos
	}
	for {
		start := bytes.LastIndexByte(out[:end], '\n') + 1
		line := strings.TrimSpace(string(out[start:end]))
		if len(line) > 0 && line[0] != '#' && end-start >= len(bad) {
			copy(out[start:end], bad+strings.Repeat(" ", end-start-len(bad)))
			return out
		}
		if start == 0 {
			t.Fatalf("no data line at or before byte %d", pos)
		}
		end = start - 1
	}
}

// blockEnd returns where the reader's k-th block (from 1) of in ends: the
// byte after its last newline, for a reader whose buffer holds block bytes.
func blockEnd(in []byte, block, k int) int {
	end := 0
	for ; k > 0; k-- {
		end += bytes.LastIndexByte(in[end:min(end+block, len(in))], '\n') + 1
	}
	return end
}

// TestReadTNSMatchesReference holds the block reader to the reference on
// inputs many blocks long, at teams of 1, 2, 3 and 7: blocks end mid-line,
// every task gets lines, and the lines carry every spelling the reference
// accepts. Accepted tensors must be bitwise equal, and a planted bad line
// must give the reference's error with the same line number, wherever it
// falls: a later block, the last task's chunk, the last line.
func TestReadTNSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mixed, _ := tnsFixture(rng, 8000)
	header := append(bytes.Repeat([]byte("# header comment\n"), 2000), mixed...)
	// withLine inserts a data line of n bytes before the line holding byte 5000.
	withLine := func(n int) []byte {
		at := bytes.LastIndexByte(mixed[:5000], '\n') + 1
		line := "1 2 3" + strings.Repeat(" ", n-8) + "1.0\n"
		return append(append(bytes.Clone(mixed[:at]), line...), mixed[at:]...)
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"mixed", mixed},
		{"no-final-newline", bytes.TrimRight(mixed, "\r\n\u00a0 \t")},
		{"comments-span-blocks", header},
		{"long-line", withLine(tnsMaxLine - 1)},
		{"too-long-line", withLine(tnsMaxLine)},
	}
	block := smallBlocks(1).block
	lastOfBlock3 := blockEnd(mixed, block, 3) - 2
	for _, bad := range []struct{ name, line string }{
		{"fields", "1 2 3"},
		{"index-syntax", "1 x 3 1"},
		{"index-zero", "1 2 0 1"},
		{"index-2^31", "1 2147483648 3 1"},
		{"index-sign", "1 -2 3 1"},
		{"value-syntax", "1 2 3 1..5"},
		{"value-nan", "1 2 3 NaN"},
		{"value-overflow", "1 2 3 1e999"},
		{"extra-field", "1 2 3 4 5"},
		{"not-a-comment", "% 1 2 3"},
	} {
		for _, at := range []struct {
			name string
			pos  int
		}{{"later-block", len(mixed) * 3 / 5}, {"block-3-last-line", lastOfBlock3}, {"last-line", len(mixed) - 1}} {
			cases = append(cases, struct {
				name string
				in   []byte
			}{bad.name + "/" + at.name, plant(t, mixed, at.pos, bad.line)})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkMatchesRef(t, tc.in, smallBlocks(1), smallBlocks(2), smallBlocks(3), smallBlocks(7))
			// A first block sized by the input, or by a size too small.
			checkMatchesRef(t, tc.in, sized(realBlocks(2), len(tc.in)), sized(realBlocks(1), len(tc.in)/3))
			if strings.HasSuffix(tc.name, "long-line") {
				// The long line whole inside one real-sized block.
				checkMatchesRef(t, tc.in, realBlocks(1), realBlocks(2), realBlocks(7))
			}
		})
	}
	// Every task gets nonzeros of every team block: the reader keeps a
	// part per task per block that has some, besides the first block's
	// head (its lines up to the first data line) and a short last block.
	for _, tasks := range []int{2, 3, 7} {
		tr := smallBlocks(tasks)
		if _, err := tr.read(bytes.NewReader(mixed)); err != nil {
			t.Fatal(err)
		}
		want, last := 1, 0
		for k := 1; last < len(mixed); k++ {
			end := blockEnd(mixed, tr.block, k)
			if end-last >= tr.teamMin {
				want += tasks
			} else {
				want++
			}
			last = end
		}
		if len(tr.parts) != want {
			t.Errorf("tasks %d: %d parts with nonzeros, want %d", tasks, len(tr.parts), want)
		}
	}
	// The real block sizes: about three blocks of lines.
	big, _ := tnsFixture(rng, 3*tnsBlock/28)
	checkMatchesRef(t, big, realBlocks(1), realBlocks(2), realBlocks(3), realBlocks(7))
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadTNSBoundsLongLine feeds a line that never ends: the reader must
// give up with bufio.ErrTooLong once it holds tnsMaxLine bytes of it,
// having read at most a block more, not buffer the stream.
func TestReadTNSBoundsLongLine(t *testing.T) {
	for _, tr := range []*tnsReader{smallBlocks(2), realBlocks(2)} {
		in := &countingReader{r: io.LimitReader(repeatReader('7'), 64<<20)}
		if _, err := tr.read(in); err != bufio.ErrTooLong {
			t.Errorf("block %d: error %v, want %v", tr.block, err, bufio.ErrTooLong)
		}
		if limit := tnsMaxLine + tr.block; in.n > limit {
			t.Errorf("block %d: read %d bytes of the line, want at most %d", tr.block, in.n, limit)
		}
	}
}

// TestReadTNSReserveBoundedByBytes reads a first data line of order 100
// followed by 2 MiB of blank lines. The columns a chunk's part reserves
// must be bounded by the chunk's bytes, not its newlines (which would ask
// for 400 bytes per blank line, 800 MB here), so the read allocates a
// small multiple of its input, and the tensor keeps no reserve.
func TestReadTNSReserveBoundedByBytes(t *testing.T) {
	const order = 100
	in := []byte(strings.Repeat("3 ", order) + "1.5\n")
	in = append(in, bytes.Repeat([]byte{'\n'}, 2<<20)...)
	for _, tasks := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tt, err := readTNS(bytes.NewReader(in), tasks, len(in))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if tt.NNZ() != 1 || tt.NModes() != order {
			t.Fatalf("tasks %d: %d nonzeros of order %d, want 1 of order %d", tasks, tt.NNZ(), tt.NModes(), order)
		}
		got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(in))
		t.Logf("tasks %d: %d bytes allocated for %d of input", tasks, got, len(in))
		if got > limit {
			t.Errorf("tasks %d: read allocated %d bytes for %d of input, want at most %d", tasks, got, len(in), limit)
		}
		if c := cap(tt.Vals); c > 2 {
			t.Errorf("tasks %d: tensor holds room for %d values, want at most 2", tasks, c)
		}
	}
}

// repeatReader reads as an endless run of its byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestReadTNSNonzeroBound checks that the nonzero bound fails at the first
// data line past it, wherever that line falls among the team's tasks.
func TestReadTNSNonzeroBound(t *testing.T) {
	in, dataLines := tnsFixture(rand.New(rand.NewSource(43)), 3000)
	for _, limit := range []int{0, 1, 777, 1500, len(dataLines) - 1} {
		for _, tasks := range []int{1, 2, 3, 7} {
			tr := smallBlocks(tasks)
			tr.maxNNZ = limit
			_, err := tr.read(bytes.NewReader(in))
			want := fmt.Sprintf("sptensor: line %d: more than %d nonzeros", dataLines[limit], limit)
			if fmt.Sprint(err) != want {
				t.Errorf("limit %d tasks %d: error %v, want %s", limit, tasks, err, want)
			}
		}
	}
	tr := smallBlocks(3)
	tr.maxNNZ = len(dataLines)
	if _, err := tr.read(bytes.NewReader(in)); err != nil {
		t.Errorf("limit = nonzero count: %v", err)
	}
}

// TestReadTNSAllocsIndependentOfLines pins the reader's allocations to
// its blocks, not its lines: a few per task per 4 MiB block for that
// part's columns, and a few to join the parts. 200,000 lines (two blocks)
// cost a few dozen more allocations than 20,000 (one block), where the
// line-at-a-time reader made two per line.
func TestReadTNSAllocsIndependentOfLines(t *testing.T) {
	allocs := func(lines, tasks int) float64 {
		tt := Random([]int{5000, 4000, 3000}, lines, 7)
		var buf bytes.Buffer
		if err := WriteTNS(&buf, tt); err != nil {
			t.Fatal(err)
		}
		in := buf.Bytes()
		return testing.AllocsPerRun(2, func() {
			if _, err := readTNS(bytes.NewReader(in), tasks, len(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tasks := range []int{1, 2} {
		small, large := allocs(20_000, tasks), allocs(200_000, tasks)
		t.Logf("tasks %d: %.0f allocs at 20K lines, %.0f at 200K", tasks, small, large)
		if large-small > 40 || large > 150 {
			t.Errorf("tasks %d: %.0f allocs at 20K lines, %.0f at 200K: want at most 40 more and 150 in all", tasks, small, large)
		}
	}
}

// FuzzReadTNSMatchesReference holds the block reader to the reference on
// arbitrary bytes, with blocks of 64 bytes so that small inputs span many
// blocks and teams of 2 and 3 split them.
func FuzzReadTNSMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(47))
	fixture, _ := tnsFixture(rng, 40)
	f.Add(fixture)
	f.Add([]byte("1 1 1 1.0\n2 2 2 2.0\n"))
	f.Add([]byte("# c\n\n 3\u00a02\u00851 0x1p-3\r\n+3 002 1 -.5"))
	f.Add([]byte("1 2\n1 2 3\n"))
	f.Add([]byte("2147483647 1 1e308\n2147483648 1 1\n"))
	f.Add([]byte("1 1 1 _1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var readers []*tnsReader
		for _, tasks := range []int{1, 2, 3} {
			readers = append(readers, &tnsReader{tasks: tasks, maxNNZ: MaxNNZ, block: 64, teamMin: 16})
		}
		readers = append(readers, &tnsReader{tasks: 2, maxNNZ: MaxNNZ, block: 64, teamMin: 16, size: len(data)})
		checkMatchesRef(t, data, readers...)
	})
}

// BenchmarkReadTNS parses the YELP twin at 1/32 scale (about 7 MB of
// .tns) at one task and at GOMAXPROCS.
func BenchmarkReadTNS(b *testing.B) {
	spec, err := LookupDataset("yelp")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTNS(&buf, spec.Generate(1.0/32)); err != nil {
		b.Fatal(err)
	}
	in := buf.Bytes()
	for _, tasks := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := readTNS(bytes.NewReader(in), tasks, len(in)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
