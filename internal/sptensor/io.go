package sptensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The text format is the FROSTT/SPLATT ".tns" convention: one nonzero per
// line, 1-indexed coordinates followed by the value, '#' comments allowed.
// The binary format is a simple little-endian container (magic "SPTNBIN1")
// for fast reloading of generated tensors.
//
// All readers treat their input as untrusted (the serve subsystem feeds
// them raw HTTP uploads): malformed lines, non-finite values, implausible
// headers, and truncated streams return errors — never panics, and never
// unbounded allocations driven by a forged header.

// Format selects an on-disk/wire tensor encoding.
type Format int

const (
	// FormatTNS is the FROSTT/SPLATT text format.
	FormatTNS Format = iota
	// FormatBinary is the repository's little-endian binary container.
	FormatBinary
)

// String names the format ("tns" or "bin").
func (f Format) String() string {
	if f == FormatTNS {
		return "tns"
	}
	return "bin"
}

// ParseFormat converts a CLI string into a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "tns", "text":
		return FormatTNS, nil
	case "bin", "binary":
		return FormatBinary, nil
	}
	return FormatTNS, fmt.Errorf("sptensor: unknown format %q (want tns|bin)", s)
}

// FormatForPath chooses the format SaveFile historically used for a path:
// ".tns" selects text, anything else the binary container.
func FormatForPath(path string) Format {
	if strings.HasSuffix(path, ".tns") {
		return FormatTNS
	}
	return FormatBinary
}

// WriteTNS writes t in .tns text format.
func WriteTNS(w io.Writer, t *Tensor) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for x := range t.Vals {
		for m := range t.Inds {
			if _, err := fmt.Fprintf(bw, "%d ", t.Inds[m][x]+1); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "%g\n", t.Vals[x]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTNS parses .tns text. Mode lengths are inferred from the maximum
// index seen per mode; the order is inferred from the first data line.
func ReadTNS(r io.Reader) (*Tensor, error) {
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

const binaryMagic = "SPTNBIN1"

// binReadChunk is the element granularity of binary array reads; truncated
// streams fail after at most one chunk of over-allocation.
const binReadChunk = 1 << 20

// binWriteChunk is the byte size of the buffer WriteBinary encodes through.
const binWriteChunk = 64 << 10

// WriteBinary writes t in the repository's binary container format. It
// encodes through one binWriteChunk buffer, writing it to w whenever it
// fills, so no column is copied whole.
func WriteBinary(w io.Writer, t *Tensor) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, binWriteChunk)
	// room writes buf out when fewer than k of its bytes are free.
	room := func(k int) error {
		if cap(buf)-len(buf) >= k {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	buf = append(buf, binaryMagic...)
	buf = le.AppendUint64(buf, uint64(t.NModes()))
	buf = le.AppendUint64(buf, uint64(t.NNZ()))
	for _, d := range t.Dims {
		if err := room(8); err != nil {
			return err
		}
		buf = le.AppendUint64(buf, uint64(d))
	}
	for _, col := range t.Inds {
		for _, x := range col {
			if err := room(4); err != nil {
				return err
			}
			buf = le.AppendUint32(buf, uint32(x))
		}
	}
	for _, v := range t.Vals {
		if err := room(8); err != nil {
			return err
		}
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// readChunked reads n little-endian elements in bounded chunks, so a
// stream whose header promises more data than it carries errors out
// without first allocating the full claimed size.
func readChunked[E Index | float64](br io.Reader, n int) ([]E, error) {
	first := n
	if first > binReadChunk {
		first = binReadChunk
	}
	out := make([]E, 0, first)
	for len(out) < n {
		c := n - len(out)
		if c > binReadChunk {
			c = binReadChunk
		}
		chunk := make([]E, c)
		if err := binary.Read(br, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// ReadBinary reads a tensor written by WriteBinary.
func ReadBinary(r io.Reader) (*Tensor, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sptensor: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("sptensor: bad magic %q", magic)
	}
	var head [2]uint64
	if err := binary.Read(br, binary.LittleEndian, head[:]); err != nil {
		return nil, fmt.Errorf("sptensor: reading header: %w", err)
	}
	// Bounds-check the raw uint64 header words before any int conversion,
	// which could otherwise truncate (and wrap negative) on 32-bit hosts.
	if head[0] == 0 || head[0] > 64 {
		return nil, fmt.Errorf("sptensor: implausible order %d", head[0])
	}
	if head[1] > MaxNNZ {
		return nil, fmt.Errorf("sptensor: implausible nonzero count %d", head[1])
	}
	if head[1] == 0 {
		return nil, fmt.Errorf("sptensor: no nonzeros in input")
	}
	order, nnz := int(head[0]), int(head[1])
	dims64 := make([]uint64, order)
	if err := binary.Read(br, binary.LittleEndian, dims64); err != nil {
		return nil, fmt.Errorf("sptensor: reading dims: %w", err)
	}
	dims := make([]int, order)
	for m, d := range dims64 {
		if d == 0 || d > math.MaxInt32 {
			return nil, fmt.Errorf("sptensor: mode %d has implausible length %d", m, d)
		}
		dims[m] = int(d)
	}
	t := &Tensor{Dims: dims, Inds: make([][]Index, order)}
	for m := 0; m < order; m++ {
		inds, err := readChunked[Index](br, nnz)
		if err != nil {
			return nil, fmt.Errorf("sptensor: reading mode %d indices: %w", m, err)
		}
		t.Inds[m] = inds
	}
	vals, err := readChunked[float64](br, nnz)
	if err != nil {
		return nil, fmt.Errorf("sptensor: reading values: %w", err)
	}
	t.Vals = vals
	for x, v := range t.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sptensor: nonzero %d: non-finite value", x)
		}
	}
	return t, t.Validate()
}

// LoadTensorReader reads a tensor from r, selecting the format by content:
// binary container if the magic matches, .tns text otherwise. Duplicate
// coordinates are merged by summing their values (files are not trusted to
// be duplicate-free; see MergeDuplicates). It is the streaming core of
// LoadFile and the ingest path of the serve subsystem (no temp files).
func LoadTensorReader(r io.Reader) (*Tensor, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	peek, err := br.Peek(len(binaryMagic))
	var t *Tensor
	if err == nil && string(peek) == binaryMagic {
		t, err = ReadBinary(br)
	} else {
		t, err = ReadTNS(br)
	}
	if err != nil {
		return nil, err
	}
	MergeDuplicates(t)
	return t, nil
}

// SaveTensorWriter writes t to w in the given format. It is the streaming
// core of SaveFile.
func SaveTensorWriter(w io.Writer, t *Tensor, format Format) error {
	if format == FormatTNS {
		return WriteTNS(w, t)
	}
	return WriteBinary(w, t)
}

// LoadFile reads a tensor from path via LoadTensorReader (format
// auto-detected by content).
func LoadFile(path string) (*Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadTensorReader(f)
}

// SaveFile writes a tensor to path via SaveTensorWriter; format chosen by
// extension (".tns" text, anything else binary).
func SaveFile(path string, t *Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveTensorWriter(f, t, FormatForPath(path)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
