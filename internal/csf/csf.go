// Package csf implements SPLATT's compressed sparse fiber (CSF) storage
// for sparse tensors of arbitrary order, plus the allocation policies that
// decide how many CSF representations back one tensor.
//
// A CSF is a forest: level 0 holds slices of the root mode, each inner
// level holds the fibers obtained by fixing one more coordinate, and the
// deepest level holds the nonzero values with their leaf-mode indices.
// MTTKRP over a CSF touches each nonzero exactly once while reusing all
// partial products along a fiber — the memory/computation trade-off the
// paper describes in §III.
package csf

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// CSF is one compressed-sparse-fiber representation of a tensor, rooted at
// ModeOrder[0].
type CSF struct {
	// Dims are the original tensor mode lengths (tensor order = len).
	Dims []int
	// ModeOrder maps CSF level → original tensor mode. Level 0 is the
	// root; deeper levels fix one more coordinate each.
	ModeOrder []int
	// Fptr[l][f] is the index of the first child (at level l+1) of fiber f
	// at level l; len(Fptr) == order-1 and each Fptr[l] has NFibers(l)+1
	// entries. Children of the last level are nonzeros.
	Fptr [][]int64
	// Fids[l][f] is the coordinate (in mode ModeOrder[l]) of fiber f at
	// level l. Fids[order-1] holds the leaf-mode index of every nonzero.
	Fids [][]sptensor.Index
	// Vals holds the nonzero values in CSF (sorted) order.
	Vals []float64
}

// Order reports the tensor order.
func (c *CSF) Order() int { return len(c.Dims) }

// NNZ reports the nonzero count.
func (c *CSF) NNZ() int { return len(c.Vals) }

// NFibers reports the fiber count at a level (level order-1 = nnz).
func (c *CSF) NFibers(level int) int { return len(c.Fids[level]) }

// DepthOf returns the CSF level at which the original tensor mode m
// appears, or -1 if m is not a mode of the tensor.
func (c *CSF) DepthOf(m int) int {
	for l, mm := range c.ModeOrder {
		if mm == m {
			return l
		}
	}
	return -1
}

// MemoryBytes estimates the CSF footprint (fptr + fids + vals).
func (c *CSF) MemoryBytes() int64 {
	var b int64
	for _, p := range c.Fptr {
		b += int64(len(p)) * 8
	}
	for _, f := range c.Fids {
		b += int64(len(f)) * 4
	}
	b += int64(len(c.Vals)) * 8
	return b
}

// Build constructs a CSF rooted at the given mode. The input tensor is
// sorted in place (SPLATT likewise sorts the coordinate tensor before
// csf_alloc); pass t.Clone() to preserve the original ordering. team may be
// nil; sortVariant selects the §V-C sorting implementation.
func Build(t *sptensor.Tensor, root int, team *parallel.Team, sortVariant tsort.Variant) *CSF {
	if root < 0 || root >= t.NModes() {
		panic(fmt.Sprintf("csf: root mode %d of order-%d tensor", root, t.NModes()))
	}
	perm := tsort.SortForRoot(t, root, team, sortVariant)
	return fromSorted(t, perm)
}

// BuildPresorted constructs a CSF from a tensor already sorted by perm
// (as produced by tsort.SortForRoot). Used when the caller times sorting
// separately, as the paper's per-routine tables do.
func BuildPresorted(t *sptensor.Tensor, perm []int) *CSF {
	return fromSorted(t, perm)
}

// fromSorted walks the sorted nonzeros once per level, emitting a new fiber
// whenever any coordinate at or above that level changes.
func fromSorted(t *sptensor.Tensor, perm []int) *CSF {
	order := t.NModes()
	nnz := t.NNZ()
	c := &CSF{
		Dims:      append([]int(nil), t.Dims...),
		ModeOrder: append([]int(nil), perm...),
		Fptr:      make([][]int64, order-1),
		Fids:      make([][]sptensor.Index, order),
		Vals:      make([]float64, nnz),
	}
	copy(c.Vals, t.Vals)

	// Leaf level: every nonzero's deepest coordinate.
	leafMode := perm[order-1]
	c.Fids[order-1] = make([]sptensor.Index, nnz)
	copy(c.Fids[order-1], t.Inds[leafMode])

	// Build levels bottom-up: at level l, a fiber is a maximal run of
	// nonzeros sharing coordinates perm[0..l]. Runs are detected by
	// comparing the coordinate prefix of each child's *first nonzero*
	// (tracked in firstNZ) with its predecessor's.
	var childFirstNZ []int64 // first nonzero of each child at level l+1
	for l := order - 2; l >= 0; l-- {
		mode := perm[l]
		var fids []sptensor.Index
		var fptr []int64
		var firstNZ []int64
		if l == order-2 {
			// Children are the nonzeros themselves.
			start := 0
			for x := 1; x <= nnz; x++ {
				if x == nnz || prefixChanged(t, perm, l, x) {
					fids = append(fids, t.Inds[mode][start])
					fptr = append(fptr, int64(start))
					firstNZ = append(firstNZ, int64(start))
					start = x
				}
			}
			fptr = append(fptr, int64(nnz))
		} else {
			// Children are the fibers of level l+1, each represented by
			// its first nonzero.
			nChildren := len(c.Fids[l+1])
			start := 0
			for f := 1; f <= nChildren; f++ {
				changed := f == nChildren ||
					prefixChanged(t, perm, l, int(childFirstNZ[f]))
				if changed {
					rep := childFirstNZ[start]
					fids = append(fids, t.Inds[mode][rep])
					fptr = append(fptr, int64(start))
					firstNZ = append(firstNZ, rep)
					start = f
				}
			}
			fptr = append(fptr, int64(nChildren))
		}
		c.Fids[l] = fids
		c.Fptr[l] = fptr
		childFirstNZ = firstNZ
	}
	return c
}

// prefixChanged reports whether nonzero x differs from nonzero x-1 in any
// coordinate at levels 0..l of the permutation.
func prefixChanged(t *sptensor.Tensor, perm []int, l, x int) bool {
	for lev := 0; lev <= l; lev++ {
		m := perm[lev]
		if t.Inds[m][x] != t.Inds[m][x-1] {
			return true
		}
	}
	return false
}

// ToCOO reconstructs the coordinate tensor (in CSF order). Tests use it to
// prove Build loses nothing.
func (c *CSF) ToCOO() *sptensor.Tensor {
	t := sptensor.New(c.Dims, c.NNZ())
	c.Nonzeros(t.Inds, t.Vals)
	return t
}

// NonzeroSpan returns the half-open range of nonzero positions covered by
// fiber f at level l.
func (c *CSF) NonzeroSpan(l, f int) (int, int) {
	lo, hi := int64(f), int64(f+1)
	for lev := l; lev < c.Order()-1; lev++ {
		lo = c.Fptr[lev][lo]
		hi = c.Fptr[lev][hi]
	}
	return int(lo), int(hi)
}

// Nonzeros writes every nonzero, in CSF (sorted) order, into columns the
// caller allocated: coords[m][x] receives nonzero x's index in original
// tensor mode m and vals[x] its value (each column holds NNZ entries). The
// leaf ids are copied whole; every upper level's fiber id is written over
// the nonzero span its fiber covers. This is the nonzero access path the
// sampled (ARLS) solver copies its nonzeros through.
func (c *CSF) Nonzeros(coords [][]sptensor.Index, vals []float64) {
	order := c.Order()
	copy(vals, c.Vals)
	copy(coords[c.ModeOrder[order-1]], c.Fids[order-1])
	for l := order - 2; l >= 0; l-- {
		col := coords[c.ModeOrder[l]]
		for f, id := range c.Fids[l] {
			lo, hi := c.NonzeroSpan(l, f)
			for x := lo; x < hi; x++ {
				col[x] = id
			}
		}
	}
}

// SliceWeights returns, for each root slice, its nonzero population — the
// load-balancing weights for distributing slices across tasks.
func (c *CSF) SliceWeights() []int64 {
	n := c.NFibers(0)
	w := make([]int64, n)
	for s := 0; s < n; s++ {
		lo, hi := c.NonzeroSpan(0, s)
		w[s] = int64(hi - lo)
	}
	return w
}
