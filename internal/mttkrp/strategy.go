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
//
// The conflict machinery lives once, in Conflicts: the mutex pool, the
// Privatizer, the per-mode rule (Decide and its fallbacks) and the
// parallel region that stages, runs and reduces. The CSF Operator here
// and alto.Operator both run through it; the sampled MTTKRP of the ARLS
// solver (sketch.Sampler) privatizes through the same Privatizer.
package mttkrp

import (
	"fmt"

	"repro/internal/dense"
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

// PrivRatio is the divisor of the lock-vs-privatize rule: privatize a mode
// iff its privatized rows are at most its flushes / PrivRatio. The value
// 50 reproduces the paper's observed split (§V-D) for CSF, which counts
// I_n × tasks rows against nnz: the YELP twin needs locks for its 41k-mode
// beyond ~3 tasks, while every NELL-2 mode privatizes at any task count we
// can run, because the rule depends only on the scale-invariant nnz/I_n
// ratio. The `abllock` ablation (EXPERIMENTS.md, "Experiment ids") forces
// each strategy against the rule.
const PrivRatio = 50

// Decide picks the conflict strategy for a non-root mode decomposed by
// `tasks` tasks. privRows is the number of rows the privatized buffers hold
// and the reduction adds (Privatizer.Rows); flushes is the number of
// output-row updates the kernels make, each one lock acquisition under
// StrategyLock.
func Decide(privRows, flushes, tasks int) ConflictStrategy {
	if tasks <= 1 {
		return StrategyNone
	}
	if int64(privRows) <= int64(flushes)/PrivRatio {
		return StrategyPrivatize
	}
	return StrategyLock
}

// Conflicts is the output-conflict layer of the CSF and ALTO operators:
// the mutex pool (§IV-A, locks.DefaultPoolSize stripes), the privatized
// buffers and their reduction (§V-D2), the rule that picks one of them per
// mode, and the parallel region that runs an MTTKRP under it. An operator
// brings only what differs: its flushes per mode, whether it has a tile
// schedule, and the cached body its tasks run.
type Conflicts struct {
	team   *parallel.Team
	forced ConflictStrategy
	pool   locks.Pool
	priv   *Privatizer

	// The strategy and output of the running, or most recent, MTTKRP.
	strategy ConflictStrategy
	out      *dense.Matrix
}

// NewConflicts returns the conflict layer of an operator on team whose
// task t, in mode m, writes output rows [lo[t][m], hi[t][m]).
func NewConflicts(team *parallel.Team, opts Options, rank int, lo, hi [][]int) *Conflicts {
	return &Conflicts{team: team, forced: opts.Strategy,
		pool: locks.NewPool(opts.LockKind, locks.DefaultPoolSize), priv: NewPrivatizer(rank, lo, hi)}
}

// Strategy reports the conflict strategy an MTTKRP of mode runs when its
// kernels make `flushes` output-row updates; tile says whether the
// operator has a tile schedule for the mode. One task writes directly.
// Otherwise a mode's rows scatter across tasks (a CSF root mode, whose
// task owns its rows, does not ask), so a forced none locks, and so does
// a forced tile without a schedule; auto is Decide of the mode's
// privatized rows and its flushes.
func (c *Conflicts) Strategy(mode, flushes int, tile bool) ConflictStrategy {
	tasks := c.team.N()
	switch {
	case tasks == 1:
		return StrategyNone
	case c.forced == StrategyAuto:
		return Decide(c.priv.Rows(mode), flushes, tasks)
	case c.forced == StrategyNone, c.forced == StrategyTile && !tile:
		return StrategyLock
	}
	return c.forced
}

// Run runs one MTTKRP of mode under strategy: it zeroes out, stages the
// privatized buffers, runs body on every task of the team and reduces the
// buffers the tasks opened into out.
func (c *Conflicts) Run(mode int, strategy ConflictStrategy, out *dense.Matrix, body func(tid int)) {
	out.Zero()
	c.strategy, c.out = strategy, out
	if strategy == StrategyPrivatize {
		c.priv.Stage(mode, out)
	}
	c.team.Run(body)
	if strategy == StrategyPrivatize {
		c.priv.Reduce(c.team)
	}
	c.out = nil
}

// Target returns the array task tid's row updates go to in the running
// MTTKRP, with its first row: the task's zeroed privatized window under
// StrategyPrivatize, else the output from row 0.
func (c *Conflicts) Target(tid int) (data []float64, base int) {
	if c.strategy == StrategyPrivatize {
		return c.priv.Open(tid)
	}
	return c.out.Data, 0
}

// Lock takes row's stripe of the mutex pool when the running MTTKRP
// locks (StrategyLock).
func (c *Conflicts) Lock(row int) {
	if c.strategy == StrategyLock {
		c.pool.Lock(row)
	}
}

// Unlock releases what Lock took.
func (c *Conflicts) Unlock(row int) {
	if c.strategy == StrategyLock {
		c.pool.Unlock(row)
	}
}

// LastStrategy reports the strategy of the running, or most recent,
// MTTKRP.
func (c *Conflicts) LastStrategy() ConflictStrategy { return c.strategy }

// WindowRows reports mode's privatized rows (Privatizer.Rows).
func (c *Conflicts) WindowRows(mode int) int { return c.priv.Rows(mode) }

// Options configures an Operator.
type Options struct {
	// Access selects the kernel family / row access mode.
	Access AccessMode
	// Strategy forces a conflict strategy; StrategyAuto uses Decide.
	Strategy ConflictStrategy
	// LockKind selects the mutex-pool implementation when locking.
	LockKind locks.Kind
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
