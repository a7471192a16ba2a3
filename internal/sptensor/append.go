package sptensor

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// AppendBatch merges a batch of new nonzeros into base, producing a new
// tensor — the evolving-tensor ingest step of a streaming decomposition
// (Geronimo Anderson & Dunlavy, arXiv:2310.10872). base and batch are
// never modified, so a decomposition running against base keeps its
// snapshot while the appended revision is built next to it.
//
// The merged tensor's mode lengths are the elementwise maximum of the two
// inputs' — a batch may grow any mode by introducing coordinates beyond
// base's current bounds (new users, new items, new time steps). Nonzeros
// whose coordinates collide — within the batch, or across the base/batch
// boundary — are summed, matching how repeated coordinates in a single
// upload are treated. The returned dups counts those collisions.
//
// Both inputs are validated, and base must also be duplicate-free, as
// every tensor LoadTensorReader, Generate and AppendBatch return is.
// Nothing is sorted: the batch's distinct coordinates go into a hash
// table, and every base nonzero is looked up in it once, in one streaming
// pass. The merged tensor lists base's nonzeros in base's order, then the
// batch's nonzeros with new coordinates, each at its first occurrence, in
// batch order. A batch nonzero that repeats a base coordinate is summed
// into base's nonzero; one that repeats an earlier batch coordinate, into
// that first occurrence. Values are summed in input order, base first and
// then batch order, so every value has the bits MergeDuplicates gives the
// concatenation of base and batch, and a collision-free batch returns
// exactly that concatenation. The two counts together must not exceed
// MaxNNZ.
func AppendBatch(base, batch *Tensor) (merged *Tensor, dups int, err error) {
	if base.NModes() != batch.NModes() {
		return nil, 0, fmt.Errorf("sptensor: append batch has order %d, base has order %d",
			batch.NModes(), base.NModes())
	}
	if batch.NNZ() == 0 {
		return nil, 0, fmt.Errorf("sptensor: append batch has no nonzeros")
	}
	order := base.NModes()
	dims := make([]int, order)
	for m := 0; m < order; m++ {
		dims[m] = base.Dims[m]
		if batch.Dims[m] > dims[m] {
			dims[m] = batch.Dims[m]
		}
	}
	nbase, nb := base.NNZ(), batch.NNZ()
	if nbase+nb > MaxNNZ {
		return nil, 0, fmt.Errorf("sptensor: append would hold %d nonzeros, more than %d", nbase+nb, MaxNNZ)
	}
	if err := base.Validate(); err != nil {
		return nil, 0, fmt.Errorf("sptensor: append base invalid: %w", err)
	}
	if err := batch.Validate(); err != nil {
		return nil, 0, fmt.Errorf("sptensor: append batch invalid: %w", err)
	}

	// first[j] is the batch id of the first nonzero with j's coordinates;
	// at[f] is where that first occurrence lands: the base nonzero with
	// its coordinates, else a position after base's.
	tab := newCoordTable(batch)
	first := make([]int32, nb)
	for j := range first {
		s, id := tab.find(batch.Inds, j)
		if id < 0 {
			id = int32(j)
			tab.ids[s] = id
		}
		first[j] = id
	}
	at := make([]int32, nb)
	for j := range at {
		at[j] = -1
	}
	for x := 0; x < nbase; x++ {
		if _, id := tab.find(base.Inds, x); id >= 0 {
			at[id] = int32(x)
		}
	}
	n := nbase
	for j, f := range first {
		if int(f) == j && at[j] < 0 {
			at[j] = int32(n)
			n++
		}
	}

	merged = &Tensor{Dims: dims, Inds: make([][]Index, order), Vals: extend(base.Vals, n)}
	for m, col := range base.Inds {
		merged.Inds[m] = extend(col, n)
	}
	for j, f := range first {
		p := at[f]
		if int(f) == j && int(p) >= nbase {
			for m := range merged.Inds {
				merged.Inds[m][p] = batch.Inds[m][j]
			}
			merged.Vals[p] = batch.Vals[j]
			continue
		}
		merged.Vals[p] += batch.Vals[j]
		if math.IsInf(merged.Vals[p], 0) {
			return nil, 0, fmt.Errorf("sptensor: merged nonzero %d sums to %v", p, merged.Vals[p])
		}
	}
	return merged, nbase + nb - n, nil
}

// extend returns a copy of s lengthened to n ≥ len(s) entries, the new
// ones zero. The make followed at once by a copy compiles to one
// runtime.makeslicecopy call, which clears only the entries past len(s);
// cleared first, a revision's columns would be written twice.
func extend[T Index | float64](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// coordTable is an open-addressing hash table of one tensor's distinct
// coordinates, holding nonzero ids. Its hash is a vector
// multiply-add-shift, Σ mul[m]·c_m + add keeping the top bits (Thorup,
// "High speed hashing for integers and strings", arXiv:1504.06804), with
// the 64-bit constants drawn for each table. That family is universal
// over tuples of 32-bit coordinates, so coordinates chosen without seeing
// the constants collide no more than random ones. A slot matches only on
// equal coordinates, so any mode length works.
type coordTable struct {
	inds  [][]Index // coordinates of the ids in slots
	mul   []uint64  // per-mode multiplier
	add   uint64
	shift uint    // 64 − log2(len(ids))
	ids   []int32 // nonzero id per slot, −1 when empty
}

// newCoordTable sizes a table for t's nonzeros at a load of at most one
// half (slots: the next power of two ≥ 2·nnz); it inserts nothing.
func newCoordTable(t *Tensor) *coordTable {
	size := 2
	for size < 2*t.NNZ() {
		size <<= 1
	}
	tab := &coordTable{
		inds:  t.Inds,
		mul:   make([]uint64, t.NModes()),
		add:   rand.Uint64(),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		ids:   make([]int32, size),
	}
	for m := range tab.mul {
		tab.mul[m] = rand.Uint64()
	}
	for s := range tab.ids {
		tab.ids[s] = -1
	}
	return tab
}

// find looks up the coordinates of nonzero x of inds (a tensor of the
// table's order). It returns the slot holding an id with equal
// coordinates and that id, or the empty slot the probe ended on and −1.
// Probes step by 1, 2, 3, …, which visits every slot of a power-of-two
// table, and the load bound leaves one empty.
func (tab *coordTable) find(inds [][]Index, x int) (int, int32) {
	h := tab.add
	for m, col := range inds {
		h += tab.mul[m] * uint64(col[x])
	}
	mask := len(tab.ids) - 1
	s := int(h >> tab.shift)
	for step := 1; ; step++ {
		id := tab.ids[s]
		if id < 0 {
			return s, -1
		}
		if sameCoord(inds, x, tab.inds, int(id)) {
			return s, id
		}
		s = (s + step) & mask
	}
}

// sameCoord reports whether nonzero x of a and nonzero y of b have equal
// coordinates.
func sameCoord(a [][]Index, x int, b [][]Index, y int) bool {
	for m, col := range a {
		if col[x] != b[m][y] {
			return false
		}
	}
	return true
}
