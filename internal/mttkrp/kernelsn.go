package mttkrp

import (
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/sptensor"
)

// Generic arbitrary-order CSF MTTKRP — the paper's future-work extension
// ("support for tensors of arbitrary order"). For a target mode at CSF
// level L, each fiber f at level L contributes
//
//	out[fid(f)] += P(f) ∘ S(f)
//
// where P(f) is the elementwise product of the ancestor factor rows
// (levels < L) and S(f) is the subtree sum: Σ over nonzeros x below f of
// v_x · ∘_{levels l > L} A_l[id_l(x)]. The walker computes P top-down and
// S bottom-up, touching every nonzero exactly once.
//
// The 3-mode specializations in kernels3_*.go are this algorithm unrolled;
// the operator uses them for order-3 tensors and this walker otherwise.

// nWalker carries the per-task state of one generic MTTKRP invocation. A
// walker is allocated once per task (sized by order and rank) and rebound
// to the call's CSF, level, factors, and sink via reset, so steady-state
// Apply calls reuse its buffers.
type nWalker struct {
	c      *csf.CSF
	level  int             // target level L
	mats   []*dense.Matrix // factor matrix per CSF level
	rank   int
	sink   rowSink
	topBuf [][]float64 // running ancestor products, one per level < L
	upBuf  [][]float64 // subtree accumulators, one per level > L
	tmp    []float64
}

func newNWalker(order, rank int) *nWalker {
	w := &nWalker{
		mats: make([]*dense.Matrix, order),
		rank: rank,
		tmp:  make([]float64, rank),
	}
	w.topBuf = make([][]float64, order)
	w.upBuf = make([][]float64, order)
	for l := range w.topBuf {
		w.topBuf[l] = make([]float64, rank)
		w.upBuf[l] = make([]float64, rank)
	}
	return w
}

// reset rebinds the walker to one MTTKRP invocation's operands.
func (w *nWalker) reset(c *csf.CSF, level int, factors []*dense.Matrix, sink rowSink) {
	w.c = c
	w.level = level
	w.sink = sink
	for l := 0; l < c.Order(); l++ {
		w.mats[l] = factors[c.ModeOrder[l]]
	}
}

// run processes root slices [begin, end).
func (w *nWalker) run(begin, end int) {
	for s := begin; s < end; s++ {
		w.down(0, int64(s), nil)
	}
}

// down descends from fiber f at level l carrying the ancestor product
// `top` (nil means empty product = ones).
func (w *nWalker) down(l int, f int64, top []float64) {
	c := w.c
	if l == w.level {
		sub := w.up(l, f)
		id := c.Fids[l][f]
		if top == nil {
			w.sink.accum(id, sub)
			return
		}
		dense.VecMulSet(w.tmp, top, sub)
		w.sink.accum(id, w.tmp)
		return
	}
	// Fold this level's factor row into the ancestor product.
	arow := w.mats[l].Row(int(c.Fids[l][f]))
	next := w.topBuf[l]
	if top == nil {
		copy(next, arow)
	} else {
		dense.VecMulSet(next, top, arow)
	}
	if l == c.Order()-2 {
		// Children are nonzeros; only reachable when the target is the
		// leaf level.
		leaf := c.Fids[c.Order()-1]
		for x := c.Fptr[l][f]; x < c.Fptr[l][f+1]; x++ {
			dense.VecScaleSet(w.tmp, next, c.Vals[x])
			w.sink.accum(leaf[x], w.tmp)
		}
		return
	}
	for child := c.Fptr[l][f]; child < c.Fptr[l][f+1]; child++ {
		w.down(l+1, child, next)
	}
}

// up returns the subtree sum of fiber f at level l (l < order-1). The
// returned slice is the level's scratch buffer, valid until the next call
// at the same level.
func (w *nWalker) up(l int, f int64) []float64 {
	c := w.c
	buf := w.upBuf[l]
	for i := range buf {
		buf[i] = 0
	}
	if l == c.Order()-2 {
		lo, hi := c.Fptr[l][f], c.Fptr[l][f+1]
		dense.GatherAxpy(buf, w.mats[c.Order()-1].Data, c.Fids[c.Order()-1][lo:hi], c.Vals[lo:hi])
		return buf
	}
	cmat := w.mats[l+1]
	cids := c.Fids[l+1]
	for child := c.Fptr[l][f]; child < c.Fptr[l][f+1]; child++ {
		sub := w.up(l+1, child)
		dense.VecMulAdd(buf, cmat.Row(int(cids[child])), sub)
	}
	return buf
}

// COO computes the MTTKRP for `mode` directly from coordinate storage —
// the simple O(nnz·order·R) baseline every CSF kernel is verified against
// and benchmarked against (the "no CSF" ablation). Serial.
func COO(t *sptensor.Tensor, factors []*dense.Matrix, mode int, out *dense.Matrix) {
	out.Zero()
	rank := out.Cols
	acc := make([]float64, rank)
	for x := range t.Vals {
		for i := range acc {
			acc[i] = t.Vals[x]
		}
		for m := range t.Inds {
			if m == mode {
				continue
			}
			row := factors[m].Row(int(t.Inds[m][x]))
			for i := range acc {
				acc[i] *= row[i]
			}
		}
		orow := out.Row(int(t.Inds[mode][x]))
		for i := range orow {
			orow[i] += acc[i]
		}
	}
}
