package sptensor

import (
	"math"

	"repro/internal/parallel"
)

// MaxNNZ is the largest nonzero count the package accepts: SortPerm's
// permutation, AppendBatch's hash table and the sampler's fiber index hold
// int32 nonzero ids. Both loaders and AppendBatch reject input above it,
// and the builders that sort nonzeros (the ALTO build, the sampler's fiber
// index) return an error instead of wrapping.
const MaxNNZ = math.MaxInt32

// sortParallelMin is the shortest input SortPerm splits across a team.
// Below it a digit pass's two barriers cost more than the counting they
// share out, so the sort runs on the calling goroutine.
const sortParallelMin = 1 << 14

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
//
// team splits every pass over contiguous chunks of the current order (nil
// or inputs shorter than sortParallelMin: one chunk, on the calling
// goroutine). Each task counts its chunk's digits; a digit's entries go
// to the output bucket-major, then in task order, so each task scatters
// its own chunk behind the earlier tasks' entries of every digit. The
// result is the serial sort's for every team size.
func SortPerm[K ~int32 | ~uint64](perm, permBuf []int32, keys, keyBuf []K, team *parallel.Team) {
	n := len(perm)
	if len(keys) != n || len(permBuf) != n || (keyBuf != nil && len(keyBuf) != n) {
		panic("sptensor: SortPerm slice lengths differ")
	}
	if n < 2 {
		return
	}
	tasks := 1
	if n >= sortParallelMin {
		tasks = team.N()
	}
	hist := make([][256]int, tasks) // per-task digit counts of one pass
	ors, ands := make([]uint64, tasks), make([]uint64, tasks)
	barrier := func() {
		if tasks > 1 {
			team.Barrier()
		}
	}
	body := func(tid int) {
		begin, end := parallel.Partition(n, tasks, tid)
		or, and := uint64(0), ^uint64(0)
		for _, k := range keys[begin:end] {
			or |= uint64(k)
			and &= uint64(k)
		}
		ors[tid], ands[tid] = or, and
		barrier()
		for t := range ors {
			or |= ors[t]
			and &= ands[t]
		}
		varying := or ^ and
		// Every task swaps its own copies of the slice headers, in step.
		p, pb, k, kb := perm, permBuf, keys, keyBuf
		for shift := uint(0); shift < 64; shift += 8 {
			if byte(varying>>shift) == 0 {
				continue // every key has the same digit here
			}
			h := &hist[tid]
			*h = [256]int{}
			if kb == nil && tasks > 1 {
				countDigits(h, k, p[begin:end], shift)
			} else {
				// Carried keys sit in chunk order; a lone task's chunk holds
				// every key, so it counts them in id order, sequentially.
				countDigits(h, k[begin:end], nil, shift)
			}
			barrier()
			var off [256]int
			sum := 0
			for d := range off {
				for t := range hist {
					if t == tid {
						off[d] = sum
					}
					sum += hist[t][d]
				}
			}
			if kb == nil {
				scatter(&off, p[begin:end], pb, k, nil, shift)
			} else {
				scatter(&off, p[begin:end], pb, k[begin:end], kb, shift)
				k, kb = kb, k
			}
			p, pb = pb, p
			barrier() // every scatter is done and hist is free again
		}
		if &p[0] != &perm[0] {
			copy(perm[begin:end], p[begin:end])
			if keyBuf != nil {
				copy(keys[begin:end], k[begin:end])
			}
		}
	}
	if tasks == 1 {
		body(0)
		return
	}
	team.Run(body)
}

// countDigits adds to h the digit at shift of the key of each id in ids,
// keys[id], or with ids nil of every key in keys.
//
// countDigits and scatter are not inlined: inside SortPerm's task body,
// itself inlined into its callers, the register allocator spilled the
// loop counter and slice bases to the stack on every key, which made
// MergeDuplicates about a quarter slower.
//
//go:noinline
func countDigits[K ~int32 | ~uint64](h *[256]int, keys []K, ids []int32, shift uint) {
	if ids == nil {
		for _, k := range keys {
			h[byte(uint64(k)>>shift)]++
		}
		return
	}
	for _, x := range ids {
		h[byte(uint64(keys[x])>>shift)]++
	}
}

// scatter moves each id in ids to permOut[off[d]], d being the digit at
// shift of its key, and advances off[d]. With keyOut nil the key of id is
// keys[id]; otherwise keys[i] is the key of ids[i] and moves to keyOut
// beside it.
//
//go:noinline
func scatter[K ~int32 | ~uint64](off *[256]int, ids, permOut []int32, keys, keyOut []K, shift uint) {
	if keyOut == nil {
		for _, x := range ids {
			d := byte(uint64(keys[x]) >> shift)
			permOut[off[d]] = x
			off[d]++
		}
		return
	}
	for i, k := range keys {
		d := byte(uint64(k) >> shift)
		o := off[d]
		off[d]++
		keyOut[o] = k
		permOut[o] = ids[i]
	}
}
