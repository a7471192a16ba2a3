// Package model is the serving side of the decomposition pipeline: it
// freezes a computed Kruskal model into an immutable, read-optimized layout
// and answers sub-millisecond inference queries against it — single-entry
// reconstruction, recommendation-style top-K scoring over a mode slice, and
// cosine nearest-factors.
//
// The layout mirrors what ALTO does for the compute side (Laukemann et al.,
// arXiv:2403.06348): pick the representation for the access pattern. Factor
// columns are normalized and the λ weights folded back in (each column r of
// every mode scaled by |λ_r|^(1/N)), so queries never touch a separate
// weight vector; factors are stored as flat row-major slabs, so the score
// kernels stream rank-length rows with unit stride. Query scratch comes
// from a parallel.TaskArena-backed Workspace, making the steady-state query
// path allocation-free — the same discipline the ALS iteration loop
// established, now applied to inference (the keep-it-resident argument of
// Geronimo Anderson & Dunlavy, arXiv:2310.10872). The service keeps built
// models resident in its model registry (internal/serve), which lists them
// by Info.
package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/parallel"
)

// Model is an immutable, read-optimized Kruskal model. All exported methods
// are safe for concurrent use (the model is never mutated after Build).
type Model struct {
	id   string
	dims []int
	rank int

	// lambda holds the component weights of the normalized form (every
	// factor column scaled to unit 2-norm); kept for introspection — the
	// query kernels never read it because the weights are folded into the
	// slabs.
	lambda []float64

	// slabs[m] is the dims[m]×rank row-major factor slab of mode m with
	// |λ_r|^(1/order) folded into column r (sign folded into mode 0), so
	// the model value at a coordinate is Σ_r Π_m slabs[m][i_m·R+r].
	slabs [][]float64

	// rowNorms[m][i] is the Euclidean norm of slab row i — the cosine
	// denominators of Similar, precomputed at build time.
	rowNorms [][]float64

	bytes int64
}

// Info is the JSON view of one resident model: its shape and size, when
// it was published, and the tensor and job that produced it (empty for a
// direct upload).
type Info struct {
	ID        string    `json:"id"`
	Dims      []int     `json:"dims"`
	Rank      int       `json:"rank"`
	Bytes     int64     `json:"bytes"`
	Published time.Time `json:"published"`
	TensorID  string    `json:"tensor_id,omitempty"`
	JobID     string    `json:"job_id,omitempty"`
}

// Item is one scored result of a TopK or Similar query.
type Item struct {
	Index int32   `json:"index"`
	Score float64 `json:"score"`
}

// Build freezes k into the read-optimized serving form. k is not modified
// and no references to its storage are retained. The returned model's ID is
// the SHA-256 of the source model's canonical encoding, so building the
// same factors twice yields the same content address.
func Build(k *core.KruskalTensor) (*Model, error) {
	if k == nil {
		return nil, fmt.Errorf("model: nil kruskal tensor")
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	order := k.Order()
	if order == 0 {
		return nil, fmt.Errorf("model: kruskal tensor has no modes")
	}
	rank := k.Rank()
	dims := k.Dims()

	m := &Model{
		id:       contentID(k),
		dims:     dims,
		rank:     rank,
		lambda:   make([]float64, rank),
		slabs:    make([][]float64, order),
		rowNorms: make([][]float64, order),
	}

	// Column 2-norms per mode; the total component weight is
	// w_r = λ_r · Π_m ‖A_m[:,r]‖.
	weights := append([]float64(nil), k.Lambda...)
	colNorms := make([][]float64, order)
	for mm, f := range k.Factors {
		colNorms[mm] = make([]float64, rank)
		for r := 0; r < rank; r++ {
			ss := 0.0
			for i := 0; i < f.Rows; i++ {
				v := f.At(i, r)
				ss += v * v
			}
			n := math.Sqrt(ss)
			colNorms[mm][r] = n
			weights[r] *= n
		}
	}
	copy(m.lambda, weights)
	for r, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("model: component %d has non-finite weight %v", r, w)
		}
	}

	// Fold |w_r|^(1/order) into every mode's column r (sign into mode 0):
	// scale_m,r = |w_r|^(1/order) / ‖A_m[:,r]‖ applied to the raw column.
	// A zero column (or zero λ) kills the whole component, matching the
	// source model's zero contribution.
	for mm, f := range k.Factors {
		slab := make([]float64, f.Rows*rank)
		for r := 0; r < rank; r++ {
			w := weights[r]
			scale := 0.0
			if cn := colNorms[mm][r]; cn > 0 && w != 0 {
				scale = math.Pow(math.Abs(w), 1/float64(order)) / cn
				if mm == 0 && w < 0 {
					scale = -scale
				}
			}
			for i := 0; i < f.Rows; i++ {
				slab[i*rank+r] = f.At(i, r) * scale
			}
		}
		m.slabs[mm] = slab
		norms := make([]float64, f.Rows)
		for i := 0; i < f.Rows; i++ {
			row := slab[i*rank : (i+1)*rank]
			norms[i] = math.Sqrt(dense.VecDot(row, row))
		}
		m.rowNorms[mm] = norms
		m.bytes += int64(8 * (len(slab) + len(norms)))
	}
	m.bytes += int64(8 * rank)
	return m, nil
}

// contentID hashes the source model's canonical encoding: magic, order,
// rank, dims, λ bits, then every factor's row-major float64 bits.
func contentID(k *core.KruskalTensor) string {
	h := sha256.New()
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	h.Write([]byte("splatt-kruskal-v1"))
	writeU64(uint64(k.Order()))
	writeU64(uint64(k.Rank()))
	for _, d := range k.Dims() {
		writeU64(uint64(d))
	}
	for _, l := range k.Lambda {
		writeU64(math.Float64bits(l))
	}
	for _, f := range k.Factors {
		for _, v := range f.Data {
			writeU64(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Kruskal reconstructs a Kruskal tensor from the serving layout — the
// warm-start seed of an evolving decomposition. The read-optimized form
// already has the component weights folded into the factor columns, so the
// reconstruction carries unit λ and factors equal to the slabs; it
// evaluates to exactly the same tensor as the source model (CP-ALS
// re-normalizes the columns on its first iteration, so the folded scaling
// is harmless as an initialization). The returned tensor shares no storage
// with the model.
func (m *Model) Kruskal() *core.KruskalTensor {
	k := &core.KruskalTensor{
		Lambda:  make([]float64, m.rank),
		Factors: make([]*dense.Matrix, len(m.slabs)),
	}
	for r := range k.Lambda {
		k.Lambda[r] = 1
	}
	for mm, slab := range m.slabs {
		f := dense.NewMatrix(m.dims[mm], m.rank)
		copy(f.Data, slab)
		k.Factors[mm] = f
	}
	return k
}

// ID returns the content address (SHA-256 hex of the source model).
func (m *Model) ID() string { return m.id }

// Rank reports the decomposition rank R.
func (m *Model) Rank() int { return m.rank }

// Order reports the number of modes.
func (m *Model) Order() int { return len(m.slabs) }

// Dims returns the mode lengths (callers must not modify).
func (m *Model) Dims() []int { return m.dims }

// Lambda returns the normalized component weights (callers must not
// modify).
func (m *Model) Lambda() []float64 { return m.lambda }

// Bytes estimates the resident footprint of the serving layout.
func (m *Model) Bytes() int64 { return m.bytes }

// Row returns mode's read-optimized factor row i (weights folded in) as a
// zero-copy subslice. Callers must not modify it.
func (m *Model) Row(mode, i int) []float64 {
	off := i * m.rank
	return m.slabs[mode][off : off+m.rank : off+m.rank]
}

// Workspace is reusable query scratch. A Workspace is not safe for
// concurrent use; concurrent queriers each need their own (see the
// sync.Pool in internal/serve). After the first query of a given shape
// warms the arena, subsequent queries through the same workspace allocate
// nothing.
type Workspace struct {
	ta parallel.TaskArena
}

// NewWorkspace creates an empty workspace; its arena grows on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

func (m *Model) checkCoord(coord []int, skip int) error {
	if len(coord) != len(m.dims) {
		return fmt.Errorf("model: coordinate has %d modes, model has %d", len(coord), len(m.dims))
	}
	for mm, c := range coord {
		if mm == skip {
			continue
		}
		if c < 0 || c >= m.dims[mm] {
			return fmt.Errorf("model: coordinate %d out of range for mode %d (length %d)", c, mm, m.dims[mm])
		}
	}
	return nil
}

// At reconstructs the model value at one coordinate:
// Σ_r Π_m slabs[m][coord_m·R+r]. Allocation-free once ws is warm.
func (m *Model) At(ws *Workspace, coord []int) (float64, error) {
	if err := m.checkCoord(coord, -1); err != nil {
		return 0, err
	}
	mark := ws.ta.Mark()
	q := ws.ta.F64(m.rank)
	copy(q, m.Row(0, coord[0]))
	for mm := 1; mm < len(m.slabs); mm++ {
		dense.VecMul(q, m.Row(mm, coord[mm]))
	}
	total := 0.0
	for _, v := range q {
		total += v
	}
	ws.ta.Release(mark)
	return total, nil
}

// TopK ranks all indices of the target mode with every other mode fixed at
// coord (coord[mode] is ignored): score(x) = Σ_r q_r·slab[mode][x·R+r]
// with q_r = Π_{m≠mode} slab[m][coord_m·R+r] — the recommendation query
// "given this user (and context), which items score highest". The k best
// items are appended to out (which may be nil; pass a reused out[:0] for an
// allocation-free steady state) in descending score order, ties broken by
// ascending index.
func (m *Model) TopK(ws *Workspace, mode int, coord []int, k int, out []Item) ([]Item, error) {
	if mode < 0 || mode >= len(m.dims) {
		return out, fmt.Errorf("model: mode %d out of range for order-%d model", mode, len(m.dims))
	}
	if err := m.checkCoord(coord, mode); err != nil {
		return out, err
	}
	if k <= 0 {
		return out, fmt.Errorf("model: top-k needs k >= 1, got %d", k)
	}
	mark := ws.ta.Mark()
	q := ws.ta.F64(m.rank)
	first := true
	for mm := range m.slabs {
		if mm == mode {
			continue
		}
		if first {
			copy(q, m.Row(mm, coord[mm]))
			first = false
			continue
		}
		dense.VecMul(q, m.Row(mm, coord[mm]))
	}
	if first { // order-1 degenerate: empty product is ones
		for i := range q {
			q[i] = 1
		}
	}

	n := m.dims[mode]
	if k > n {
		k = n
	}
	h := newBoundedHeap(&ws.ta, k)
	slab := m.slabs[mode]
	for x := 0; x < n; x++ {
		h.offer(int32(x), dense.VecDot(q, slab[x*m.rank:(x+1)*m.rank]))
	}
	out = h.drain(out)
	ws.ta.Release(mark)
	return out, nil
}

// Similar returns the k rows of the given mode most similar to row index by
// cosine over the weight-folded factor rows (the row itself is excluded).
// Results are appended to out in descending similarity, ties broken by
// ascending index. Zero-norm rows (dead slices) score 0.
func (m *Model) Similar(ws *Workspace, mode, index, k int, out []Item) ([]Item, error) {
	if mode < 0 || mode >= len(m.dims) {
		return out, fmt.Errorf("model: mode %d out of range for order-%d model", mode, len(m.dims))
	}
	if index < 0 || index >= m.dims[mode] {
		return out, fmt.Errorf("model: index %d out of range for mode %d (length %d)", index, mode, m.dims[mode])
	}
	if k <= 0 {
		return out, fmt.Errorf("model: similar needs k >= 1, got %d", k)
	}
	n := m.dims[mode]
	if k > n-1 {
		k = n - 1
	}
	if k == 0 {
		return out, nil
	}
	mark := ws.ta.Mark()
	q := m.Row(mode, index)
	qn := m.rowNorms[mode][index]
	norms := m.rowNorms[mode]
	slab := m.slabs[mode]
	h := newBoundedHeap(&ws.ta, k)
	for x := 0; x < n; x++ {
		if x == index {
			continue
		}
		s := 0.0
		if d := qn * norms[x]; d > 0 {
			s = dense.VecDot(q, slab[x*m.rank:(x+1)*m.rank]) / d
		}
		h.offer(int32(x), s)
	}
	out = h.drain(out)
	ws.ta.Release(mark)
	return out, nil
}
