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

// TestDecideBoundaries pins the lock-vs-privatize rule at its edges:
// privatize iff privatized rows ≤ flushes / PrivRatio.
func TestDecideBoundaries(t *testing.T) {
	// tasks <= 1 short-circuits to direct writes regardless of the ratio.
	if got := Decide(10, 1_000_000, 1); got != StrategyNone {
		t.Errorf("tasks=1: %v, want none", got)
	}
	if got := Decide(10, 1_000_000, 0); got != StrategyNone {
		t.Errorf("tasks=0: %v, want none", got)
	}

	// Exact equality: rows == flushes/PrivRatio must privatize (the rule
	// is ≤, matching SPLATT).
	const modeLen, tasks, ratio = 10, 4, 50
	rows := modeLen * tasks
	exact := rows * ratio // flushes/ratio == rows exactly
	if got := Decide(rows, exact, tasks); got != StrategyPrivatize {
		t.Errorf("exact equality: %v, want privatize", got)
	}
	// One integer step below the threshold flips to locks.
	if got := Decide(rows, exact-ratio, tasks); got != StrategyLock {
		t.Errorf("just under: %v, want lock", got)
	}

	// The ratio is a constant, no longer an option.
	if PrivRatio != ratio {
		t.Fatalf("test constants assume PrivRatio == %d (got %d)", ratio, PrivRatio)
	}

	// Degenerate inputs: zero flushes can never satisfy a positive
	// threshold.
	if got := Decide(2, 0, 2); got != StrategyLock {
		t.Errorf("flushes=0: %v, want lock", got)
	}
}

// TestStrategyTileFallbackBeyondOrder3 pins the documented fallback: the
// tile schedule exists only for 3rd-order tensors, so a forced
// StrategyTile on an order-4 tensor runs the mutex pool — and still
// computes the right answer.
func TestStrategyTileFallbackBeyondOrder3(t *testing.T) {
	tt := sptensor.Random([]int{8, 7, 6, 5}, 300, 71)
	const rank = 4
	factors := randomFactors(tt.Dims, rank, 73)
	team := parallel.NewTeam(4)
	defer team.Close()
	set := csf.NewSet(tt, csf.AllocTwo, team, tsort.AllOpt)
	op := NewOperator(set, team, rank, Options{
		Access: AccessReference, Strategy: StrategyTile, LockKind: locks.Spin,
	})
	sawLock := false
	for mode := 0; mode < tt.NModes(); mode++ {
		strat := op.StrategyFor(mode)
		if strat == StrategyTile {
			t.Errorf("mode %d: tile offered on an order-4 tensor", mode)
		}
		_, level := set.For(mode)
		if level > 0 {
			if strat != StrategyLock {
				t.Errorf("mode %d (level %d): %v, want lock fallback", mode, level, strat)
			}
			sawLock = true
		}
		want := dense.NewMatrix(tt.Dims[mode], rank)
		COO(tt, factors, mode, want)
		got := dense.NewMatrix(tt.Dims[mode], rank)
		op.Apply(mode, factors, got)
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Errorf("mode %d: tile-fallback result deviates by %g", mode, d)
		}
		if op.LastStrategy() != strat {
			t.Errorf("mode %d: LastStrategy %v != StrategyFor %v", mode, op.LastStrategy(), strat)
		}
	}
	if !sawLock {
		t.Error("no non-root mode exercised the lock fallback")
	}

	// On a 3rd-order tensor the same forced strategy does tile.
	t3 := sptensor.Random([]int{9, 8, 7}, 300, 79)
	set3 := csf.NewSet(t3, csf.AllocTwo, team, tsort.AllOpt)
	op3 := NewOperator(set3, team, rank, Options{
		Access: AccessReference, Strategy: StrategyTile, LockKind: locks.Spin,
	})
	sawTile := false
	for mode := 0; mode < t3.NModes(); mode++ {
		if op3.StrategyFor(mode) == StrategyTile {
			sawTile = true
		}
	}
	if !sawTile {
		t.Error("3rd-order tensor never offered the tile schedule")
	}
}
