package sptensor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/parallel"
)

// TestSortPermMatchesStableSort compares SortPerm with sort.SliceStable
// over the radix edge cases: empty and single-entry input, fewer entries
// than tasks, all keys equal, only the top byte varying, extreme keys,
// duplicate keys, and lexicographic order over several columns (read
// through the permutation, last column first). Every case starts from a
// shuffled permutation, so stability is checked against the incoming
// order. Single-column cases also run with the keys carried, which must
// leave them sorted alongside the permutation. Each case runs serially and
// on teams of 1, 2, 3 and 7 tasks; the "large" cases hold more than
// sortParallelMin entries, so the teams split their passes.
func TestSortPermMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int, f func() uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f()
		}
		return keys
	}
	large := sortParallelMin + 4321
	cases := []struct {
		name string
		cols [][]uint64
	}{
		{"empty", [][]uint64{{}}},
		{"one", [][]uint64{{42}}},
		{"two", [][]uint64{{7, 3}}},
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
		{"large random", [][]uint64{draw(large, rng.Uint64)}},
		{"large dups", [][]uint64{draw(large, func() uint64 { return uint64(rng.Intn(50)) << 20 })}},
		{"large all equal", [][]uint64{draw(large, func() uint64 { return 99 })}},
		{"large three columns", [][]uint64{
			draw(large, func() uint64 { return uint64(rng.Intn(7)) }),
			draw(large, func() uint64 { return uint64(rng.Intn(900)) << 33 }),
			draw(large, func() uint64 { return uint64(rng.Intn(3000)) }),
		}},
	}
	teams := map[string]*parallel.Team{"nil": nil}
	for _, n := range []int{1, 2, 3, 7} {
		team := parallel.NewTeam(n)
		defer team.Close()
		teams[fmt.Sprintf("tasks=%d", n)] = team
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
			for _, name := range []string{"nil", "tasks=1", "tasks=2", "tasks=3", "tasks=7"} {
				team := teams[name]
				t.Run(name, func(t *testing.T) {
					check := func(mode string, perm []int32) {
						for i := range want {
							if perm[i] != want[i] {
								t.Fatalf("%s: position %d holds %d, want %d", mode, i, perm[i], want[i])
							}
						}
					}

					perm, buf := append([]int32(nil), start...), make([]int32, n)
					for c := len(tc.cols) - 1; c >= 0; c-- {
						SortPerm(perm, buf, tc.cols[c], nil, team)
					}
					check("through perm", perm)

					if len(tc.cols) == 1 {
						perm = append([]int32(nil), start...)
						keys := make([]uint64, n)
						for i, p := range perm {
							keys[i] = tc.cols[0][p]
						}
						SortPerm(perm, buf, keys, make([]uint64, n), team)
						check("carried", perm)
						for i, p := range perm {
							if keys[i] != tc.cols[0][p] {
								t.Fatalf("carried: key %d is %#x, want %#x", i, keys[i], tc.cols[0][p])
							}
						}
					}
				})
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
	SortPerm(perm, make([]int32, 5), keys, nil, nil)
	want := []int32{2, 4, 3, 0, 1}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("order %v, want %v", perm, want)
		}
	}
}
