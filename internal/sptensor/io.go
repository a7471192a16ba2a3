package sptensor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/parallel"
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

// WriteTNS writes t in .tns text format: per nonzero its 1-based indices
// and its value in the shortest form that parses back to the same bits
// (strconv's 'g' with precision -1, which is what %g prints). It encodes
// through one binWriteChunk buffer, writing it to w whenever it fills.
func WriteTNS(w io.Writer, t *Tensor) error {
	buf := make([]byte, 0, binWriteChunk)
	// A line needs at most 11 bytes per index ("2147483648 ") and 25 for
	// the value and newline ("-2.2250738585072014e-308\n").
	line := 11*t.NModes() + 25
	for x, v := range t.Vals {
		if cap(buf)-len(buf) < line {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		for _, col := range t.Inds {
			buf = strconv.AppendInt(buf, int64(col[x])+1, 10)
			buf = append(buf, ' ')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// ReadTNS parses .tns text. Mode lengths are inferred from the maximum
// index seen per mode; the order is inferred from the first data line.
//
// The input is read in blocks of at most tnsBlock bytes, never whole. Each
// block's complete lines are split at newlines across a team of
// GOMAXPROCS tasks (blocks under tnsTeamMin, such as a whole append batch,
// parse on the caller). A task scans its lines byte by byte into a part of
// its own, and the parts are joined in input order, so the tensor, and the
// line number of the first bad line, do not depend on the team. A line the
// byte scan does not fully accept (any byte >= 0x80, a sign, a wrong field
// count, ...) goes through the rules of slowLine, which define the
// accepted language; a line of tnsMaxLine bytes or more is
// bufio.ErrTooLong. When r reports its length (as a bytes.Buffer,
// bytes.Reader or strings.Reader does), the first block is sized by it.
func ReadTNS(r io.Reader) (*Tensor, error) {
	return readTNS(r, runtime.GOMAXPROCS(0), inputLen(r))
}

// inputLen is the number of unread bytes r reports through a Len method,
// or 0 if it has none.
func inputLen(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return l.Len()
	}
	return 0
}

const (
	// tnsMaxLine bounds a line's bytes before its newline: a line this
	// long is bufio.ErrTooLong, as from a bufio.Scanner with a 1 MiB
	// buffer.
	tnsMaxLine = 1 << 20
	// tnsBlock is the most input the reader holds at once.
	tnsBlock = 4 << 20
	// tnsTeamMin is the fewest bytes of lines split across the team.
	tnsTeamMin = 256 << 10
)

// errTooMany marks the line past the reader's nonzero bound.
var errTooMany = errors.New("too many nonzeros")

// readTNS is ReadTNS with a team of tasks, for an input of size bytes
// (0 if unknown).
func readTNS(r io.Reader, tasks, size int) (*Tensor, error) {
	tr := &tnsReader{tasks: tasks, maxNNZ: MaxNNZ, block: tnsBlock, teamMin: tnsTeamMin, size: size}
	return tr.read(r)
}

// tnsReader parses one .tns stream into at most maxNNZ nonzeros, holding
// at most block bytes of input at a time (more only while one line is
// longer than a block, which tests that shrink block allow).
type tnsReader struct {
	tasks, maxNNZ  int
	block, teamMin int
	size           int // the input's bytes, if known (> 0)
	team           *parallel.Team
	order          int        // 0 until the first data line
	parts          []*tnsPart // the nonzeros so far, in input order
	nnz, lines     int        // nonzeros and lines (every line) so far
}

func (tr *tnsReader) read(r io.Reader) (*Tensor, error) {
	defer func() {
		if tr.team != nil {
			tr.team.Close()
		}
	}()
	// The first read asks for one byte more than a known size, so that
	// it sees the end of the input instead of a full buffer.
	first := min(tr.teamMin, tr.block)
	if tr.size > 0 {
		first = min(tr.size+1, tr.block)
	}
	buf := make([]byte, first)
	n := 0 // bytes of buf holding input
	for {
		k, rerr := io.ReadFull(r, buf[n:])
		n += k
		if rerr == nil && len(buf) < tr.block {
			buf = append(buf, make([]byte, tr.block-len(buf))...)
			continue
		}
		if rerr == io.ErrUnexpectedEOF {
			rerr = io.EOF
		}
		// Parse the complete lines; at the end of the input (or at a read
		// error, as bufio.Scanner does) the last line needs no newline.
		end := n
		if rerr == nil {
			end = bytes.LastIndexByte(buf[:n], '\n') + 1
		}
		if err := tr.parseBlock(buf[:end]); err != nil {
			return nil, err
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
		if n-end >= tnsMaxLine {
			return nil, bufio.ErrTooLong
		}
		if n = copy(buf, buf[end:n]); n == len(buf) {
			buf = append(buf, make([]byte, n)...)
		}
	}
	if tr.order == 0 {
		return nil, fmt.Errorf("sptensor: no nonzeros in input")
	}
	// The tensor passes Validate without a pass over it: every line has
	// order indices, each in [1, 2^31-1] (scan's digit runs, slowLine's
	// ParseInt and its < 1 check), so each column gets one index per
	// value (tnsPart.add), dims are the largest index + 1, and both scan
	// and slowLine reject a non-finite value.
	return tr.join(), nil
}

// parseBlock parses whole lines. A block under teamMin, or any block with
// one task, is one part parsed on the caller. Otherwise the caller parses
// up to the first data line, which fixes the order, and the team parses
// the rest, task t the t-th of tasks chunks cut at newlines.
func (tr *tnsReader) parseBlock(b []byte) error {
	chunks := 1
	if tr.tasks > 1 && len(b) >= tr.teamMin {
		chunks = tr.tasks
		if tr.order == 0 {
			head := &tnsPart{}
			for len(b) > 0 && len(head.inds) == 0 {
				k := bytes.IndexByte(b, '\n') + 1
				if k == 0 {
					k = len(b)
				}
				if head.parse(b[:k], tr.maxNNZ-tr.nnz); head.err != nil {
					return tr.lineErr(tr.lines+head.lines, head.err)
				}
				b = b[k:]
			}
			tr.add(head)
		}
		if tr.team == nil {
			tr.team = parallel.NewTeam(tr.tasks)
		}
	}
	// Chunk t starts at the first line that starts after byte at, about
	// t/chunks of the way through b and not before chunk t-1's start.
	bounds := make([]int, chunks+1)
	for t := 1; t < chunks; t++ {
		at := max(len(b)*t/chunks-1, bounds[t-1])
		if nl := bytes.IndexByte(b[at:], '\n'); nl >= 0 {
			bounds[t] = at + nl + 1
		} else {
			bounds[t] = len(b)
		}
	}
	bounds[chunks] = len(b)
	parts := make([]*tnsPart, chunks)
	room := tr.maxNNZ - tr.nnz
	parse := func(t int) {
		chunk := b[bounds[t]:bounds[t+1]]
		parts[t] = &tnsPart{order: tr.order, chunkLines: bytes.Count(chunk, []byte{'\n'}) + 1, chunkBytes: len(chunk)}
		parts[t].parse(chunk, room)
	}
	if chunks == 1 {
		parse(0)
	} else {
		tr.team.Run(parse)
	}
	for t, p := range parts {
		if room := tr.maxNNZ - tr.nnz; len(p.vals) > room || p.err == errTooMany {
			// The bound falls in this part: parse it again with the
			// room the earlier parts left, to find the line.
			q := &tnsPart{order: tr.order}
			q.parse(b[bounds[t]:bounds[t+1]], room)
			return tr.lineErr(tr.lines+q.lines, q.err)
		}
		if p.err != nil {
			return tr.lineErr(tr.lines+p.lines, p.err)
		}
		tr.add(p)
	}
	return nil
}

// add appends p, which follows every part so far in the input. Columns
// more than half empty (a chunk of mostly blank or comment lines) are
// first copied to their length, so a part kept, and the tensor of a
// single part, hold no more slack than append's doubling would leave.
func (tr *tnsReader) add(p *tnsPart) {
	tr.lines += p.lines
	if len(p.vals) == 0 {
		return
	}
	if cap(p.vals) > 2*len(p.vals) {
		for m, col := range p.inds {
			p.inds[m] = slices.Clone(col)
		}
		p.vals = slices.Clone(p.vals)
	}
	tr.order = p.order
	tr.nnz += len(p.vals)
	tr.parts = append(tr.parts, p)
}

// join returns the tensor of the parts: the one part's columns, or new
// columns the parts are copied into across the team.
func (tr *tnsReader) join() *Tensor {
	t := &Tensor{Dims: make([]int, tr.order)}
	for _, p := range tr.parts {
		for m, d := range p.dims {
			t.Dims[m] = max(t.Dims[m], d)
		}
	}
	if len(tr.parts) == 1 {
		t.Inds, t.Vals = tr.parts[0].inds, tr.parts[0].vals
		return t
	}
	t.Inds = make([][]Index, tr.order)
	for m := range t.Inds {
		t.Inds[m] = make([]Index, tr.nnz)
	}
	t.Vals = make([]float64, tr.nnz)
	at := make([]int, len(tr.parts)) // where each part's nonzeros go
	for i := 1; i < len(at); i++ {
		at[i] = at[i-1] + len(tr.parts[i-1].vals)
	}
	parallel.ForBlocks(tr.team, len(tr.parts), func(_, begin, end int) {
		for i, p := range tr.parts[begin:end] {
			for m, col := range p.inds {
				copy(t.Inds[m][at[begin+i]:], col)
			}
			copy(t.Vals[at[begin+i]:], p.vals)
		}
	})
	return t
}

// lineErr is the reader's error for a bad line, numbered from 1.
func (tr *tnsReader) lineErr(line int, err error) error {
	switch err {
	case bufio.ErrTooLong:
		return err
	case errTooMany:
		return fmt.Errorf("sptensor: line %d: more than %d nonzeros", line, tr.maxNNZ)
	}
	return fmt.Errorf("sptensor: line %d%v", line, err)
}

// tnsPart holds the nonzeros parsed from a run of lines.
type tnsPart struct {
	order      int       // modes a data line has; 0 until the first data line
	chunkLines int       // lines in the chunk p parses, a bound on its nonzeros
	chunkBytes int       // bytes in the chunk p parses, another
	inds       [][]Index // nil until p's first data line
	vals       []float64
	dims       []int   // per mode, the largest index + 1
	coord      []Index // the line being parsed
	lines      int     // lines parsed, through the bad one
	err        error   // the bad line's error, less its "sptensor: line N" prefix
}

// makeColumns makes p's columns, with room for as many nonzeros as p's
// chunk can hold: one a line, and one per 2*order+1 bytes, the shortest
// data line, so that blank and comment lines reserve no more than their
// bytes would as data.
func (p *tnsPart) makeColumns() {
	n := min(p.chunkLines, p.chunkBytes/(2*p.order+1)+1)
	p.inds = make([][]Index, p.order)
	for m := range p.inds {
		p.inds[m] = make([]Index, 0, n)
	}
	p.vals = make([]float64, 0, n)
	p.dims = make([]int, p.order)
	p.coord = make([]Index, p.order)
}

// add appends the nonzero in p.coord with value v.
func (p *tnsPart) add(v float64) {
	for m, c := range p.coord {
		p.inds[m] = append(p.inds[m], c)
		p.dims[m] = max(p.dims[m], int(c)+1)
	}
	p.vals = append(p.vals, v)
}

// parse parses b's lines into p, holding at most limit nonzeros. The last
// line ends at b's end if not at a newline. It stops at the first bad line
// with p.err set.
func (p *tnsPart) parse(b []byte, limit int) {
	for i := 0; i < len(b); {
		p.lines++
		end, ok := p.scan(b, i, limit)
		if end-i >= tnsMaxLine {
			p.err = bufio.ErrTooLong
			return
		}
		if !ok {
			if p.err = p.slowLine(b[i:end], limit); p.err != nil {
				return
			}
		}
		i = end + 1
	}
}

// tnsSpace marks the ASCII bytes strings.Fields splits at, less the
// newline.
var tnsSpace = [256]bool{' ': true, '\t': true, '\v': true, '\f': true, '\r': true}

// scan parses the line starting at b[i] in one pass over its bytes when it
// is blank, a comment, or a plain data line: ASCII spaces around order
// runs of decimal digits (each in [1, 2^31-1]) and a value that
// strconv.ParseFloat parses to a finite number. Every such line means the
// same under slowLine's rules: ParseFloat rejects any space or non-ASCII
// byte, so the value is one field. It returns the index of the line's
// newline (len(b) if none), and whether it parsed the line; if not, the
// line is left to slowLine, as are a data line while the order is
// unknown and a data line past limit.
func (p *tnsPart) scan(b []byte, i, limit int) (end int, ok bool) {
	for i < len(b) && tnsSpace[b[i]] {
		i++
	}
	end = len(b)
	if nl := bytes.IndexByte(b[i:], '\n'); nl >= 0 {
		end = i + nl
	}
	if i == end || b[i] == '#' {
		return end, true
	}
	if p.order == 0 || len(p.vals) == limit {
		return end, false
	}
	if p.inds == nil {
		p.makeColumns()
	}
	for m := range p.coord {
		v, start := 0, i
		for ; i < end; i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			if v = v*10 + int(d); v > math.MaxInt32 {
				return end, false
			}
		}
		if i == start || v == 0 || i == end || !tnsSpace[b[i]] {
			return end, false
		}
		p.coord[m] = Index(v - 1)
		for i < end && tnsSpace[b[i]] {
			i++
		}
	}
	last := end
	for last > i && tnsSpace[b[last-1]] {
		last--
	}
	if i == last {
		return end, false
	}
	v, err := strconv.ParseFloat(string(b[i:last]), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return end, false
	}
	p.add(v)
	return end, true
}

// slowLine parses one line (less its newline) by the rules that define
// the accepted language: strings.TrimSpace, '#' comments, strings.Fields,
// strconv.ParseInt(…, 10, 32) for each index and strconv.ParseFloat for
// the value. The first data line sets p's order if unknown, and p's first
// data line makes its columns.
func (p *tnsPart) slowLine(b []byte, limit int) error {
	line := strings.TrimSpace(string(b))
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	fields := strings.Fields(line)
	if p.order == 0 {
		if len(fields) < 2 {
			return fmt.Errorf(": %d fields, need >= 2", len(fields))
		}
		p.order = len(fields) - 1
	}
	order := p.order
	if len(fields) != order+1 {
		return fmt.Errorf(": %d fields, want %d", len(fields), order+1)
	}
	if len(p.vals) == limit {
		return errTooMany
	}
	if p.inds == nil {
		p.makeColumns()
	}
	for m := 0; m < order; m++ {
		v, err := strconv.ParseInt(fields[m], 10, 32)
		if err != nil {
			return fmt.Errorf(" mode %d: %v", m, err)
		}
		if v < 1 {
			return fmt.Errorf(" mode %d: index %d < 1", m, v)
		}
		p.coord[m] = Index(v - 1)
	}
	val, err := strconv.ParseFloat(fields[order], 64)
	if err != nil {
		return fmt.Errorf(" value: %v", err)
	}
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return fmt.Errorf(" value: non-finite %v", val)
	}
	p.add(val)
	return nil
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
func readChunked[E Index | float64](r io.Reader, n int) ([]E, error) {
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
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// ReadBinary reads a tensor written by WriteBinary.
func ReadBinary(r io.Reader) (*Tensor, error) {
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("sptensor: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("sptensor: bad magic %q", magic)
	}
	var head [2]uint64
	if err := binary.Read(r, binary.LittleEndian, head[:]); err != nil {
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
	if err := binary.Read(r, binary.LittleEndian, dims64); err != nil {
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
		inds, err := readChunked[Index](r, nnz)
		if err != nil {
			return nil, fmt.Errorf("sptensor: reading mode %d indices: %w", m, err)
		}
		t.Inds[m] = inds
	}
	vals, err := readChunked[float64](r, nnz)
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
	size := inputLen(r)
	var magic [len(binaryMagic)]byte
	n, err := io.ReadFull(r, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	rest := io.MultiReader(bytes.NewReader(magic[:n]), r)
	var t *Tensor
	if string(magic[:n]) == binaryMagic {
		t, err = ReadBinary(rest)
	} else {
		t, err = readTNS(rest, runtime.GOMAXPROCS(0), size)
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
