// Package tsort implements SPLATT's tensor pre-processing sort: nonzeros
// are ordered lexicographically by a mode permutation (root mode first) so
// the CSF builder can walk fibers contiguously. The algorithm is SPLATT's
// parallel counting sort on the root mode followed by per-slice quicksorts
// on the remaining modes.
//
// The package exposes the paper's §V-C optimization study (Figure 1) as a
// Variant axis:
//
//   - Initial:  per-recursion heap allocation of a small auxiliary array in
//     the quicksort (46M allocations on NELL-2 in the paper) AND
//     whole-array copies where C reassigns pointers.
//   - ArrayOpt: the allocation removed (two scalars instead).
//   - SliceOpt: the copies replaced by slice-header reassignment (the
//     c_ptrTo pointer-swap fix).
//   - AllOpt:   both fixes — the shipping configuration.
package tsort

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Variant selects which of the paper's sorting implementations runs.
type Variant int

const (
	// AllOpt applies both §V-C optimizations (the final code).
	AllOpt Variant = iota
	// Initial is the unoptimized port: small-array allocations in the
	// quicksort and whole-subarray copies in the staging loop.
	Initial
	// ArrayOpt removes only the small-array allocation.
	ArrayOpt
	// SliceOpt removes only the subarray copies.
	SliceOpt
)

// String returns the series label used in Figure 1.
func (v Variant) String() string {
	switch v {
	case Initial:
		return "Initial"
	case ArrayOpt:
		return "Array-opt"
	case SliceOpt:
		return "Slices-opt"
	case AllOpt:
		return "All-opts"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Variants lists all variants in Figure 1 series order.
var Variants = []Variant{Initial, ArrayOpt, SliceOpt, AllOpt}

// allocatesAux reports whether the quicksort should heap-allocate its
// median scratch per recursion (the Initial/SliceOpt behaviour).
func (v Variant) allocatesAux() bool { return v == Initial || v == SliceOpt }

// copiesArrays reports whether staging reassignments deep-copy index
// arrays instead of swapping slice headers (Initial/ArrayOpt behaviour).
func (v Variant) copiesArrays() bool { return v == Initial || v == ArrayOpt }

// ModeOrder returns the mode permutation SPLATT uses when building a CSF
// rooted at mode root: root first, remaining modes by increasing length
// (ties by mode id) so upper CSF levels stay small.
func ModeOrder(dims []int, root int) []int {
	order := len(dims)
	perm := make([]int, 0, order)
	perm = append(perm, root)
	for {
		best := -1
		for m := 0; m < order; m++ {
			if m == root || contains(perm, m) {
				continue
			}
			if best == -1 || dims[m] < dims[best] || (dims[m] == dims[best] && m < best) {
				best = m
			}
		}
		if best == -1 {
			break
		}
		perm = append(perm, best)
	}
	return perm
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Sort orders t's nonzeros lexicographically by the coordinate tuple
// (perm[0], perm[1], ..., perm[order-1]), in place. team may be nil for
// serial execution. perm must be a permutation of the mode indices.
func Sort(t *sptensor.Tensor, perm []int, team *parallel.Team, v Variant) {
	if len(perm) != t.NModes() {
		panic(fmt.Sprintf("tsort: perm length %d for order-%d tensor", len(perm), t.NModes()))
	}
	seen := make([]bool, t.NModes())
	for _, m := range perm {
		if m < 0 || m >= t.NModes() || seen[m] {
			panic(fmt.Sprintf("tsort: invalid mode permutation %v", perm))
		}
		seen[m] = true
	}
	nnz := t.NNZ()
	if nnz <= 1 {
		return
	}

	// Phase 1: parallel counting sort on the root mode.
	offsets := countingSort(t, perm[0], team, v)

	// Phase 2: per-slice quicksort on the remaining modes, slices
	// distributed across tasks weighted by slice population.
	if t.NModes() == 1 {
		return
	}
	rest := perm[1:]
	nslices := t.Dims[perm[0]]
	weights := make([]int64, nslices)
	for s := 0; s < nslices; s++ {
		weights[s] = offsets[s+1] - offsets[s]
	}
	bounds := parallel.PartitionByWeight(weights, team.N())
	run := func(tid int) {
		qs := newQuicksorter(t, rest, v)
		for s := bounds[tid]; s < bounds[tid+1]; s++ {
			begin, end := int(offsets[s]), int(offsets[s+1])
			if end-begin > 1 {
				qs.sort(begin, end)
			}
		}
	}
	team.Run(run)
}

// SortForRoot sorts t for a CSF rooted at the given mode using the
// SPLATT mode ordering.
func SortForRoot(t *sptensor.Tensor, root int, team *parallel.Team, v Variant) []int {
	perm := ModeOrder(t.Dims, root)
	Sort(t, perm, team, v)
	return perm
}

// IsSorted reports whether t's nonzeros are lexicographically nondecreasing
// under the mode permutation perm.
func IsSorted(t *sptensor.Tensor, perm []int) bool {
	for x := 1; x < t.NNZ(); x++ {
		if compareAt(t, perm, x-1, x) > 0 {
			return false
		}
	}
	return true
}

func compareAt(t *sptensor.Tensor, perm []int, a, b int) int {
	for _, m := range perm {
		av, bv := t.Inds[m][a], t.Inds[m][b]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// countingSort stably reorders all nonzeros so root-mode indices are
// nondecreasing, returning the slice offset array (length dims[root]+1).
// Each task histograms its contiguous nonzero block; a task-major exclusive
// scan converts histograms to scatter offsets; each task then scatters its
// block. The scatter writes into fresh arrays which are installed into t —
// by header swap for optimized variants, by element copy for the paper's
// "Initial" staging behaviour (§V-C's 4x slice-assignment cost).
func countingSort(t *sptensor.Tensor, root int, team *parallel.Team, v Variant) []int64 {
	nnz := t.NNZ()
	dim := t.Dims[root]
	tasks := team.N()
	hists := make([][]int64, tasks)

	parallel.ForBlocks(team, nnz, func(tid, begin, end int) {
		h := make([]int64, dim)
		rootInds := t.Inds[root]
		for x := begin; x < end; x++ {
			h[rootInds[x]]++
		}
		hists[tid] = h
	})

	// Exclusive scan in (slice, task) order: task tid's run of slice s
	// starts after every earlier slice and after earlier tasks' runs of s.
	offsets := make([]int64, dim+1)
	var acc int64
	starts := make([][]int64, tasks)
	for tid := range starts {
		starts[tid] = make([]int64, dim)
	}
	for s := 0; s < dim; s++ {
		offsets[s] = acc
		for tid := 0; tid < tasks; tid++ {
			starts[tid][s] = acc
			acc += hists[tid][s]
		}
	}
	offsets[dim] = acc

	order := t.NModes()
	newInds := make([][]sptensor.Index, order)
	for m := range newInds {
		newInds[m] = make([]sptensor.Index, nnz)
	}
	newVals := make([]float64, nnz)

	parallel.ForBlocks(team, nnz, func(tid, begin, end int) {
		pos := starts[tid]
		rootInds := t.Inds[root]
		for x := begin; x < end; x++ {
			s := rootInds[x]
			p := pos[s]
			pos[s] = p + 1
			for m := 0; m < order; m++ {
				newInds[m][p] = t.Inds[m][x]
			}
			newVals[p] = t.Vals[x]
		}
	})

	if v.copiesArrays() {
		// "Initial": Chapel array assignment copies every element where the
		// C code just reassigns pointers (§V-C).
		for m := 0; m < order; m++ {
			copy(t.Inds[m], newInds[m])
		}
		copy(t.Vals, newVals)
	} else {
		// Optimized: pointer swap via c_ptrTo in the paper; a slice-header
		// assignment in Go.
		for m := 0; m < order; m++ {
			t.Inds[m] = newInds[m]
		}
		t.Vals = newVals
	}
	return offsets
}
