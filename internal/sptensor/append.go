package sptensor

import "fmt"

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
// boundary — are summed by MergeDuplicates, matching how repeated
// coordinates in a single upload are treated. The returned dups counts
// those collisions. The merged tensor lists base's nonzeros, then the
// batch's; unless that concatenation is already sorted, finding the
// collisions costs one radix sort of every nonzero (see MergeDuplicates),
// and a collision-free result keeps the concatenated order. The merged
// count must not exceed MaxNNZ.
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
	n := base.NNZ() + batch.NNZ()
	if n > MaxNNZ {
		return nil, 0, fmt.Errorf("sptensor: append would hold %d nonzeros, more than %d", n, MaxNNZ)
	}
	merged = New(dims, n)
	for m := 0; m < order; m++ {
		merged.Inds[m] = merged.Inds[m][:0]
		merged.Inds[m] = append(merged.Inds[m], base.Inds[m]...)
		merged.Inds[m] = append(merged.Inds[m], batch.Inds[m]...)
	}
	merged.Vals = merged.Vals[:0]
	merged.Vals = append(merged.Vals, base.Vals...)
	merged.Vals = append(merged.Vals, batch.Vals...)
	dups = MergeDuplicates(merged)
	if err := merged.Validate(); err != nil {
		return nil, 0, fmt.Errorf("sptensor: merged tensor invalid: %w", err)
	}
	return merged, dups, nil
}
