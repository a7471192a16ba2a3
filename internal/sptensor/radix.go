package sptensor

import "math"

// MaxNNZ is the largest nonzero count the package accepts: SortPerm's
// permutation, AppendBatch's hash table and the sampler's fiber index hold
// int32 nonzero ids. Both loaders and AppendBatch reject input above it,
// and the builders that sort nonzeros (the ALTO build, the sampler's fiber
// index) return an error instead of wrapping.
const MaxNNZ = math.MaxInt32

// SortPerm stably sorts perm, a permutation of 0..len(perm)-1, into
// ascending key order. It is an LSD radix sort with 8-bit digits: one
// counting pass per digit, skipping every digit on which all keys agree.
// permBuf (len(perm)) is its swap buffer. Keys compare as the unsigned
// 64-bit value of uint64(key), so a negative int32 would sort above every
// non-negative one; callers' keys are indices and linearized coordinates,
// never negative.
//
// keyBuf selects where the keys live:
//
//   - nil: entry p's key is keys[p]. Digits are read through the
//     permutation and keys is not modified, so sorting the same perm by
//     several key columns, least significant column first, orders it
//     lexicographically at a scratch cost of permBuf alone.
//   - len(keys) buffer: keys[i] is the key of perm[i] and moves with it,
//     ending sorted. Every read is sequential, at the cost of keyBuf.
//
// Entries with equal keys keep their order in perm, so an identity perm
// comes back sorted by (key, id).
func SortPerm[K ~int32 | ~uint64](perm, permBuf []int32, keys, keyBuf []K) {
	n := len(perm)
	if len(keys) != n || len(permBuf) != n || (keyBuf != nil && len(keyBuf) != n) {
		panic("sptensor: SortPerm slice lengths differ")
	}
	if n < 2 {
		return
	}
	outPerm, outKeys := perm, keys
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= uint64(k)
		and &= uint64(k)
	}
	varying := or ^ and
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(varying>>shift) == 0 {
			continue // every key has the same digit here
		}
		var off [256]int
		for _, k := range keys {
			off[byte(uint64(k)>>shift)]++
		}
		sum := 0
		for d, cnt := range off {
			off[d] = sum
			sum += cnt
		}
		if keyBuf == nil {
			for _, p := range perm {
				d := byte(uint64(keys[p]) >> shift)
				permBuf[off[d]] = p
				off[d]++
			}
		} else {
			for i, k := range keys {
				d := byte(uint64(k) >> shift)
				o := off[d]
				off[d]++
				keyBuf[o] = k
				permBuf[o] = perm[i]
			}
			keys, keyBuf = keyBuf, keys
		}
		perm, permBuf = permBuf, perm
	}
	if &perm[0] != &outPerm[0] {
		copy(outPerm, perm)
		if keyBuf != nil {
			copy(outKeys, keys)
		}
	}
}
