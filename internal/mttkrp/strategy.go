// Package mttkrp implements the matricized-tensor-times-Khatri-Rao-product
// kernels over CSF storage — the routine the paper calls "the critical
// routine of CP-ALS" and spends most of its performance study on.
//
// Three independent axes reproduce the paper's experiments:
//
//   - implementation profile: hand-specialized "reference" kernels (the
//     C/OpenMP analogue) vs. "port" kernels written through an abstraction
//     layer (the Chapel analogue), selected by AccessMode;
//   - factor-row access mode within the port kernels: Slice (copies, the
//     paper's initial code), Index2D, Pointer (Figures 2-3);
//   - output-conflict handling: none (root kernels / serial), mutex pool
//     (lock kind per Figure 4), or privatized per-task buffers with a
//     reduction (SPLATT's no-lock path, §V-D2).
package mttkrp

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/parallel"
)

// AccessMode selects the kernel implementation family and, within the port
// family, how factor-matrix rows are accessed (the Figures 2-3 axis).
type AccessMode int

const (
	// AccessReference runs the hand-specialized flat-array kernels: the
	// C/OpenMP SPLATT analogue.
	AccessReference AccessMode = iota
	// AccessPointer runs the port kernels with zero-copy row subslices
	// (the paper's c_ptrTo optimization — final Chapel configuration).
	AccessPointer
	// AccessIndex2D runs the port kernels through a jagged [][]float64
	// view (the paper's "2D Index" intermediate optimization).
	AccessIndex2D
	// AccessSlice runs the port kernels with a fresh copy per row access,
	// modelling Chapel's slice-materialization overhead (the paper's
	// "Initial" code).
	AccessSlice
)

// String returns the series label used by Figures 2-3.
func (a AccessMode) String() string {
	switch a {
	case AccessReference:
		return "C"
	case AccessPointer:
		return "Pointer"
	case AccessIndex2D:
		return "2D Index"
	case AccessSlice:
		return "Initial"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(a))
	}
}

// ParseAccessMode converts a CLI string into an AccessMode.
func ParseAccessMode(s string) (AccessMode, error) {
	switch s {
	case "reference", "c", "ref":
		return AccessReference, nil
	case "pointer", "ptr", "":
		return AccessPointer, nil
	case "2d", "index2d", "idx2d":
		return AccessIndex2D, nil
	case "slice", "initial":
		return AccessSlice, nil
	}
	return AccessPointer, fmt.Errorf("mttkrp: unknown access mode %q", s)
}

// ConflictStrategy is how a non-root kernel serializes scattered updates to
// the output factor matrix.
type ConflictStrategy int

const (
	// StrategyAuto picks per mode via Decide (the SPLATT behaviour).
	StrategyAuto ConflictStrategy = iota
	// StrategyNone writes directly. Direct writes are safe only for CSF
	// root kernels or a single task, so a forced StrategyNone runs the
	// mutex pool (and is reported as StrategyLock) everywhere else.
	StrategyNone
	// StrategyLock guards each output row with the striped mutex pool.
	StrategyLock
	// StrategyPrivatize accumulates into per-task buffers and reduces —
	// SPLATT's "no-lock" MTTKRP.
	StrategyPrivatize
	// StrategyTile schedules updates in tile phases so no two tasks ever
	// write the same output block: SPLATT's mode tiling, the feature the
	// paper's port omitted (§V-A) and listed as future work (§VII).
	// Implemented for 3rd-order tensors; other orders fall back to locks.
	StrategyTile
)

// String names the strategy for reports.
func (s ConflictStrategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNone:
		return "none"
	case StrategyLock:
		return "lock"
	case StrategyPrivatize:
		return "privatize"
	case StrategyTile:
		return "tile"
	default:
		return fmt.Sprintf("ConflictStrategy(%d)", int(s))
	}
}

// ParseStrategy converts a CLI string into a ConflictStrategy.
func ParseStrategy(s string) (ConflictStrategy, error) {
	switch s {
	case "auto", "":
		return StrategyAuto, nil
	case "none":
		return StrategyNone, nil
	case "lock":
		return StrategyLock, nil
	case "privatize", "priv":
		return StrategyPrivatize, nil
	case "tile":
		return StrategyTile, nil
	}
	return StrategyAuto, fmt.Errorf("mttkrp: unknown conflict strategy %q", s)
}

// DefaultPrivRatio is the divisor in the lock-vs-privatize rule: privatize
// mode n iff I_n × tasks ≤ nnz / DefaultPrivRatio. The value 50 reproduces
// the paper's observed split (§V-D): the YELP twin needs locks for its
// 41k-mode beyond ~3 tasks, while every NELL-2 mode privatizes at any task
// count we can run, because the rule depends only on the scale-invariant
// nnz/I_n ratio. See DESIGN.md §6 and the abl2 ablation.
const DefaultPrivRatio = 50

// Decide picks the conflict strategy for a non-root mode of length modeLen
// in a tensor with nnz nonzeros decomposed by `tasks` tasks.
func Decide(modeLen, nnz, tasks, privRatio int) ConflictStrategy {
	if tasks <= 1 {
		return StrategyNone
	}
	if privRatio <= 0 {
		privRatio = DefaultPrivRatio
	}
	if int64(modeLen)*int64(tasks) <= int64(nnz)/int64(privRatio) {
		return StrategyPrivatize
	}
	return StrategyLock
}

// Options configures an Operator.
type Options struct {
	// Access selects the kernel family / row access mode.
	Access AccessMode
	// Strategy forces a conflict strategy; StrategyAuto uses Decide.
	Strategy ConflictStrategy
	// LockKind selects the mutex-pool implementation when locking.
	LockKind locks.Kind
	// PoolSize is the mutex-pool stripe count (0 = locks.DefaultPoolSize).
	PoolSize int
	// PrivRatio overrides DefaultPrivRatio (0 = default).
	PrivRatio int
	// Arena, when non-nil, supplies the operators' per-task kernel
	// workspaces (tile index columns, accumulators, walker scratch) from
	// the engine's shared per-run arena instead of private allocations.
	Arena *parallel.Arena
}

// DefaultOptions returns the shipping configuration: reference kernels,
// automatic strategy, atomic spin locks.
func DefaultOptions() Options {
	return Options{Access: AccessReference, Strategy: StrategyAuto, LockKind: locks.Spin}
}
