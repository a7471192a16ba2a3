package mttkrp

import (
	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/sptensor"
)

// accessor abstracts factor-matrix row retrieval for the port kernels. The
// concrete implementations reproduce the three access idioms of the paper's
// Figures 2-3. Kernels are generic over accessor so each instantiation
// specializes, but the abstraction itself (like Chapel's array machinery)
// keeps the port kernels from collapsing into the reference ones. A fiber's
// leaf rows go through gather: the Pointer mode hands the flat matrix to
// one dense.GatherAxpy call, as the C-analogue kernels do, while 2D Index
// and Slice keep one row access and one VecAxpy per nonzero, since their
// indirection and copy are what Figures 2-3 measure.
type accessor interface {
	row(i sptensor.Index) []float64
	// gather adds Σ_x vals[x]·row(idx[x]) to dst in nonzero order: the
	// leaf rows of one fiber.
	gather(dst []float64, idx []sptensor.Index, vals []float64)
}

// ptrAccess is the "Pointer" mode: zero-copy subslice via flat offset
// arithmetic, the Chapel c_ptrTo translation.
type ptrAccess struct {
	cols int
	data []float64
}

func newPtrAccess(m *dense.Matrix) ptrAccess {
	return ptrAccess{cols: m.Cols, data: m.Data}
}

func (a ptrAccess) row(i sptensor.Index) []float64 {
	off := int(i) * a.cols
	return a.data[off : off+a.cols]
}

// gather hands the flat matrix to one dense.GatherAxpy call, as the
// C-analogue kernels do: with c_ptrTo the Chapel fiber loop compiles to
// the same inline vector code as C's.
func (a ptrAccess) gather(dst []float64, idx []sptensor.Index, vals []float64) {
	dense.GatherAxpy(dst, a.data, idx, vals)
}

// idx2DAccess is the "2D Index" mode: an extra indirection through a
// per-row slice table.
type idx2DAccess struct {
	rows [][]float64
}

func newIdx2DAccess(m *dense.Matrix) idx2DAccess {
	return idx2DAccess{rows: m.Jagged()}
}

func (a idx2DAccess) row(i sptensor.Index) []float64 { return a.rows[i] }

// gather keeps one VecAxpy per nonzero through the row table: the
// indirection is the mode's cost in Figures 2-3.
func (a idx2DAccess) gather(dst []float64, idx []sptensor.Index, vals []float64) {
	for x, i := range idx {
		dense.VecAxpy(dst, a.rows[i], vals[x])
	}
}

// sliceAccess is the "Initial" mode: every row access materializes a fresh
// copy, modelling the descriptor/view cost of Chapel array slicing that the
// paper measured at 12-17x MTTKRP slowdowns.
type sliceAccess struct {
	cols int
	data []float64
}

func newSliceAccess(m *dense.Matrix) sliceAccess {
	return sliceAccess{cols: m.Cols, data: m.Data}
}

func (a sliceAccess) row(i sptensor.Index) []float64 {
	off := int(i) * a.cols
	out := make([]float64, a.cols)
	copy(out, a.data[off:off+a.cols])
	return out
}

// gather copies every row it reads, one VecAxpy per nonzero.
func (a sliceAccess) gather(dst []float64, idx []sptensor.Index, vals []float64) {
	for x, i := range idx {
		dense.VecAxpy(dst, a.row(i), vals[x])
	}
}

// rowSink abstracts the scattered output update of non-root kernels so one
// kernel body serves the direct, locked, and privatized strategies.
type rowSink interface {
	// accum performs out[row] += vec under the sink's conflict policy.
	accum(row sptensor.Index, vec []float64)
}

// directSink writes with no synchronization (root kernels own their output
// rows; serial runs have no races).
type directSink struct {
	cols int
	data []float64
}

func newDirectSink(m *dense.Matrix) directSink {
	return directSink{cols: m.Cols, data: m.Data}
}

func (s directSink) accum(row sptensor.Index, vec []float64) {
	off := int(row) * s.cols
	dense.VecAdd(s.data[off:off+s.cols], vec)
}

// lockSink guards each row update with the striped mutex pool.
type lockSink struct {
	cols int
	data []float64
	pool locks.Pool
}

func newLockSink(m *dense.Matrix, pool locks.Pool) lockSink {
	return lockSink{cols: m.Cols, data: m.Data, pool: pool}
}

func (s lockSink) accum(row sptensor.Index, vec []float64) {
	id := int(row)
	s.pool.Lock(id)
	off := id * s.cols
	dense.VecAdd(s.data[off:off+s.cols], vec)
	s.pool.Unlock(id)
}

// privSink accumulates into a task-private buffer; a reduction merges
// buffers after the parallel region.
type privSink struct {
	cols int
	buf  []float64
}

func newPrivSink(buf []float64, cols int) privSink {
	return privSink{cols: cols, buf: buf}
}

func (s privSink) accum(row sptensor.Index, vec []float64) {
	off := int(row) * s.cols
	dense.VecAdd(s.buf[off:off+s.cols], vec)
}
