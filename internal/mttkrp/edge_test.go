package mttkrp

import (
	"testing"

	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/parallel"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// degenerate tensor shapes: the failure-injection suite for the kernels.

func checkDegenerate(t *testing.T, tt *sptensor.Tensor, tasks int) {
	t.Helper()
	const rank = 4
	factors := randomFactors(tt.Dims, rank, 77)
	team := parallel.NewTeam(tasks)
	defer team.Close()
	set := csf.NewSet(tt, csf.AllocTwo, team, tsort.AllOpt)
	for _, strat := range []ConflictStrategy{StrategyAuto, StrategyLock, StrategyPrivatize, StrategyTile} {
		op := NewOperator(set, team, rank, Options{
			Access: AccessReference, Strategy: strat, LockKind: locks.Spin,
		})
		for mode := 0; mode < tt.NModes(); mode++ {
			want := dense.NewMatrix(tt.Dims[mode], rank)
			COO(tt, factors, mode, want)
			got := dense.NewMatrix(tt.Dims[mode], rank)
			op.Apply(mode, factors, got)
			if d := got.MaxAbsDiff(want); d > 1e-9 {
				t.Errorf("%v strategy=%v mode=%d tasks=%d: deviates by %g",
					tt, strat, mode, tasks, d)
			}
		}
	}
}

func TestSingleNonzero(t *testing.T) {
	tt := sptensor.New([]int{5, 4, 3}, 1)
	tt.Inds[0][0], tt.Inds[1][0], tt.Inds[2][0] = 2, 3, 1
	tt.Vals[0] = 2.5
	checkDegenerate(t, tt, 1)
	checkDegenerate(t, tt, 4)
}

func TestSingleSliceTensor(t *testing.T) {
	// All nonzeros share one root-mode index: one task gets all work.
	tt := sptensor.New([]int{6, 5, 7}, 30)
	for x := 0; x < 30; x++ {
		tt.Inds[0][x] = 3
		tt.Inds[1][x] = sptensor.Index(x % 5)
		tt.Inds[2][x] = sptensor.Index((x * 3) % 7)
		tt.Vals[x] = float64(x + 1)
	}
	dedupeInPlace(tt)
	checkDegenerate(t, tt, 3)
}

func TestSingleFiberTensor(t *testing.T) {
	// All nonzeros in one (slice, fiber): leaf updates all hit one row
	// sequence.
	tt := sptensor.New([]int{4, 4, 16}, 16)
	for x := 0; x < 16; x++ {
		tt.Inds[0][x] = 1
		tt.Inds[1][x] = 2
		tt.Inds[2][x] = sptensor.Index(x)
		tt.Vals[x] = float64(x) + 0.5
	}
	checkDegenerate(t, tt, 4)
}

func TestUnitDimensions(t *testing.T) {
	// Modes of length 1 collapse entire levels.
	tt := sptensor.New([]int{1, 8, 1}, 8)
	for x := 0; x < 8; x++ {
		tt.Inds[0][x] = 0
		tt.Inds[1][x] = sptensor.Index(x)
		tt.Inds[2][x] = 0
		tt.Vals[x] = float64(x + 1)
	}
	checkDegenerate(t, tt, 2)
}

func TestMoreTasksThanSlices(t *testing.T) {
	tt := sptensor.Random([]int{3, 30, 30}, 400, 81)
	checkDegenerate(t, tt, 8)
}

func TestHubRowContention(t *testing.T) {
	// Every nonzero writes the same non-root row: worst-case lock
	// contention (and a single hot tile).
	tt := sptensor.New([]int{40, 1, 40}, 200)
	for x := 0; x < 200; x++ {
		tt.Inds[0][x] = sptensor.Index(x % 40)
		tt.Inds[1][x] = 0
		tt.Inds[2][x] = sptensor.Index((x / 40 * 7) % 40)
		tt.Vals[x] = 1
	}
	dedupeInPlace(tt)
	checkDegenerate(t, tt, 4)
}

// dedupeInPlace removes duplicate coordinates via round-trip through the
// generator's dedupe (re-sorting by all modes).
func dedupeInPlace(tt *sptensor.Tensor) {
	seen := map[[3]sptensor.Index]bool{}
	w := 0
	for x := 0; x < tt.NNZ(); x++ {
		key := [3]sptensor.Index{tt.Inds[0][x], tt.Inds[1][x], tt.Inds[2][x]}
		if seen[key] {
			continue
		}
		seen[key] = true
		for m := 0; m < 3; m++ {
			tt.Inds[m][w] = tt.Inds[m][x]
		}
		tt.Vals[w] = tt.Vals[x]
		w++
	}
	for m := 0; m < 3; m++ {
		tt.Inds[m] = tt.Inds[m][:w]
	}
	tt.Vals = tt.Vals[:w]
}

func TestAccessModeLabels(t *testing.T) {
	want := map[AccessMode]string{
		AccessReference: "C", AccessPointer: "Pointer",
		AccessIndex2D: "2D Index", AccessSlice: "Initial",
	}
	for a, label := range want {
		if a.String() != label {
			t.Errorf("%d: %q != %q", int(a), a.String(), label)
		}
	}
	for _, s := range []string{"reference", "pointer", "2d", "slice"} {
		if _, err := ParseAccessMode(s); err != nil {
			t.Errorf("ParseAccessMode(%q): %v", s, err)
		}
	}
	if _, err := ParseAccessMode("bogus"); err == nil {
		t.Error("bogus access accepted")
	}
}

// TestOperatorRejectsShortFactor pins the guard in front of the fiber
// gathers, which read factor rows with no bounds check: a factor with
// fewer rows than its mode must panic, not read past its data.
func TestOperatorRejectsShortFactor(t *testing.T) {
	tt := sptensor.Random([]int{10, 8, 9}, 200, 83)
	team := parallel.NewTeam(1)
	defer team.Close()
	set := csf.NewSet(tt, csf.AllocTwo, team, tsort.AllOpt)
	op := NewOperator(set, team, 4, DefaultOptions())
	for m := range tt.Dims {
		factors := randomFactors(tt.Dims, 4, 85)
		factors[m] = dense.NewMatrix(tt.Dims[m]-1, 4)
		for mode := range tt.Dims {
			if mode == m {
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("mode %d: factor %d with %d of %d rows accepted", mode, m, tt.Dims[m]-1, tt.Dims[m])
					}
				}()
				op.Apply(mode, factors, dense.NewMatrix(tt.Dims[mode], 4))
			}()
		}
	}
}

func TestOperatorRejectsBadOutputShape(t *testing.T) {
	tt := sptensor.Random([]int{10, 8, 9}, 200, 83)
	team := parallel.NewTeam(1)
	defer team.Close()
	set := csf.NewSet(tt, csf.AllocTwo, team, tsort.AllOpt)
	op := NewOperator(set, team, 4, DefaultOptions())
	factors := randomFactors(tt.Dims, 4, 85)
	defer func() {
		if recover() == nil {
			t.Error("mis-shaped output accepted")
		}
	}()
	op.Apply(0, factors, dense.NewMatrix(3, 4))
}
