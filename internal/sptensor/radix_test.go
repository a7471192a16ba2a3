package sptensor

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortPermMatchesStableSort compares SortPerm with sort.SliceStable
// over the radix edge cases: empty and single-entry input, all keys
// equal, only the top byte varying, extreme keys, and lexicographic order
// over several columns (read through the permutation, last column first).
// Every case starts from a shuffled permutation, so stability is checked
// against the incoming order. Single-column cases also run with the keys
// carried, which must leave them sorted alongside the permutation.
func TestSortPermMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int, f func() uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f()
		}
		return keys
	}
	cases := []struct {
		name string
		cols [][]uint64
	}{
		{"empty", [][]uint64{{}}},
		{"one", [][]uint64{{42}}},
		{"all equal", [][]uint64{draw(500, func() uint64 { return 0xdeadbeef })}},
		{"high byte only", [][]uint64{draw(500, func() uint64 { return uint64(rng.Intn(4)) << 56 })}},
		{"extremes", [][]uint64{draw(500, func() uint64 {
			return []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}[rng.Intn(5)]
		})}},
		{"random", [][]uint64{draw(2000, rng.Uint64)}},
		{"three columns", [][]uint64{
			draw(2000, func() uint64 { return uint64(rng.Intn(3)) }),
			draw(2000, func() uint64 { return uint64(rng.Intn(3)) << 40 }),
			draw(2000, func() uint64 { return uint64(rng.Intn(300)) }),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.cols[0])
			start := make([]int32, n)
			for i, p := range rng.Perm(n) {
				start[i] = int32(p)
			}
			want := append([]int32(nil), start...)
			sort.SliceStable(want, func(a, b int) bool {
				for _, col := range tc.cols {
					if x, y := col[want[a]], col[want[b]]; x != y {
						return x < y
					}
				}
				return false
			})
			check := func(mode string, perm []int32) {
				for i := range want {
					if perm[i] != want[i] {
						t.Fatalf("%s: position %d holds %d, want %d", mode, i, perm[i], want[i])
					}
				}
			}

			perm, buf := append([]int32(nil), start...), make([]int32, n)
			for c := len(tc.cols) - 1; c >= 0; c-- {
				SortPerm(perm, buf, tc.cols[c], nil)
			}
			check("through perm", perm)

			if len(tc.cols) == 1 {
				perm = append([]int32(nil), start...)
				keys := make([]uint64, n)
				for i, p := range perm {
					keys[i] = tc.cols[0][p]
				}
				SortPerm(perm, buf, keys, make([]uint64, n))
				check("carried", perm)
				for i, p := range perm {
					if keys[i] != tc.cols[0][p] {
						t.Fatalf("carried: key %d is %#x, want %#x", i, keys[i], tc.cols[0][p])
					}
				}
			}
		})
	}
}

// TestSortPermSignedKeys pins the documented order of int32 keys: by
// their unsigned 64-bit conversion, so non-negative keys sort ascending
// and a negative key sorts above all of them.
func TestSortPermSignedKeys(t *testing.T) {
	keys := []Index{math.MaxInt32, -1, 0, 1 << 24, 7}
	perm := []int32{0, 1, 2, 3, 4}
	SortPerm(perm, make([]int32, 5), keys, nil)
	want := []int32{2, 4, 3, 0, 1}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("order %v, want %v", perm, want)
		}
	}
}
