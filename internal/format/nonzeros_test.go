package format

import (
	"fmt"
	"testing"

	"repro/internal/alto"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// TestNonzerosMatchesSource proves both backends' column fills (the feed
// of the sampled solver's nonzero copy) list every source nonzero exactly
// once, with its value and nothing else, for orders 3 through 5, on teams
// of 1, 2 and 3 tasks. ALTO must list them in linearized order; its
// tensors hold several delinTile tiles, so the teams split the fill.
func TestNonzerosMatchesSource(t *testing.T) {
	shapes := [][]int{
		{200, 150, 100},
		{12, 9, 70, 60},
		{8, 7, 60, 5, 40},
	}
	for _, dims := range shapes {
		tt := sptensor.Random(dims, 5000, int64(len(dims)))
		want := make(map[string]float64, tt.NNZ())
		for x := range tt.Vals {
			want[fmt.Sprint(tt.Coord(x))] = tt.Vals[x]
		}
		if len(want) != tt.NNZ() {
			t.Fatalf("order %d: source repeats coordinates", len(dims))
		}
		enc, err := alto.NewEncoding(dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, tasks := range []int{1, 2, 3} {
			team := parallel.NewTeam(tasks)
			defer team.Close()
			for _, spec := range []Spec{CSF, ALTO} {
				where := fmt.Sprintf("order %d %v tasks=%d", len(dims), spec, tasks)
				backend, err := Build(tt, spec, Config{Rank: 4, Team: team})
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				n := backend.NNZ()
				if n != tt.NNZ() {
					t.Fatalf("%s: backend holds %d nonzeros, want %d", where, n, tt.NNZ())
				}
				coords := make([][]sptensor.Index, len(dims))
				for m := range coords {
					coords[m] = make([]sptensor.Index, n)
				}
				vals := make([]float64, n)
				backend.Nonzeros(coords, vals)
				seen := make(map[string]bool, n)
				coord := make([]sptensor.Index, len(dims))
				var prevLo, prevHi uint64
				for x := 0; x < n; x++ {
					for m := range coord {
						coord[m] = coords[m][x]
					}
					key := fmt.Sprint(coord)
					if v, ok := want[key]; !ok || v != vals[x] || seen[key] {
						t.Fatalf("%s: nonzero %d %v = %g is not a distinct source nonzero", where, x, coord, vals[x])
					}
					seen[key] = true
					lo, hi := enc.Linearize(coord)
					if spec == ALTO && x > 0 && (hi < prevHi || hi == prevHi && lo <= prevLo) {
						t.Fatalf("%s: nonzero %d %v is out of linearized order", where, x, coord)
					}
					prevLo, prevHi = lo, hi
				}
			}
		}
	}
}
