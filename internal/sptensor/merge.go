package sptensor

// MergeDuplicates merges nonzeros with identical coordinates by summing
// their values, in place, and returns the number of duplicates removed.
// Input files are not trusted to be duplicate-free (FROSTT dumps and
// concatenated logs routinely repeat coordinates); without merging, a
// duplicated nonzero silently inflates nnz and double-counts its value in
// every kernel.
//
// Already-lexicographically-sorted input (every binary container written
// by this package, most published .tns dumps) is handled by a single
// linear pass — no allocation, no sort. Unsorted input pays one stable
// radix sort of an int32 permutation, column by column, last mode first,
// with the digits read through the permutation (SortPerm): 8 bytes of
// scratch per nonzero. When the tensor has no duplicates it is
// left untouched, preserving the input's nonzero order; when duplicates
// exist in unsorted input the survivors end up in lexicographic order.
// Either way a coordinate's values are summed in input order. The tensor
// must hold at most MaxNNZ nonzeros.
//
// The loaders and Generate merge through it. AppendBatch does not: its
// base is already duplicate-free, so it finds a batch's collisions by
// hashing the batch, sums them in the same order, and keeps base's order
// where this function would sort.
func MergeDuplicates(t *Tensor) int {
	n := t.NNZ()
	if n < 2 {
		return 0
	}
	order := t.NModes()
	cmp := func(x, y int) int {
		for m := 0; m < order; m++ {
			if t.Inds[m][x] != t.Inds[m][y] {
				if t.Inds[m][x] < t.Inds[m][y] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	sorted := true
	for i := 1; i < n; i++ {
		if cmp(i-1, i) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return mergeAdjacent(t, cmp)
	}
	if n > MaxNNZ {
		panic("sptensor: MergeDuplicates on more than MaxNNZ nonzeros")
	}

	perm, buf := make([]int32, n), make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for m := order - 1; m >= 0; m-- {
		SortPerm(perm, buf, t.Inds[m], nil, nil)
	}
	dups := 0
	for i := 1; i < n; i++ {
		if cmp(int(perm[i-1]), int(perm[i])) == 0 {
			dups++
		}
	}
	if dups == 0 {
		return 0
	}
	outInds := make([][]Index, order)
	for m := range outInds {
		outInds[m] = make([]Index, 0, n-dups)
	}
	outVals := make([]float64, 0, n-dups)
	for i := 0; i < n; {
		x := int(perm[i])
		v := t.Vals[x]
		j := i + 1
		for j < n && cmp(x, int(perm[j])) == 0 {
			v += t.Vals[perm[j]]
			j++
		}
		for m := 0; m < order; m++ {
			outInds[m] = append(outInds[m], t.Inds[m][x])
		}
		outVals = append(outVals, v)
		i = j
	}
	t.Inds = outInds
	t.Vals = outVals
	return dups
}

// mergeAdjacent compacts an already-sorted tensor in place: equal
// neighbours collapse onto one surviving nonzero whose value accumulates.
func mergeAdjacent(t *Tensor, cmp func(x, y int) int) int {
	n := t.NNZ()
	w := 0 // write cursor: position of the current surviving nonzero
	for x := 1; x < n; x++ {
		if cmp(w, x) == 0 {
			t.Vals[w] += t.Vals[x]
			continue
		}
		w++
		if w != x {
			for m := range t.Inds {
				t.Inds[m][w] = t.Inds[m][x]
			}
			t.Vals[w] = t.Vals[x]
		}
	}
	dups := n - (w + 1)
	if dups == 0 {
		return 0
	}
	for m := range t.Inds {
		t.Inds[m] = t.Inds[m][:w+1]
	}
	t.Vals = t.Vals[:w+1]
	return dups
}
