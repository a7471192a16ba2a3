package core

import (
	"context"
	"fmt"

	"repro/internal/csf"
	"repro/internal/format"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/tsort"
)

// Profile bundles the implementation idioms the paper compares: it is the
// "which code are we running" axis of Table III and Figures 5-10.
type Profile int

const (
	// ProfileReference is the C/OpenMP SPLATT analogue: hand-specialized
	// flat-array kernels, spin locks, fully optimized sort.
	ProfileReference Profile = iota
	// ProfileInitial is the unoptimized Chapel port analogue: slicing row
	// access (copies), parking sync locks, allocation-heavy copying sort.
	ProfileInitial
	// ProfileOptimized is the final Chapel port analogue: pointer row
	// access through the abstraction layer, spin locks, optimized sort.
	ProfileOptimized
)

// String returns the series label the paper uses for each code.
func (p Profile) String() string {
	switch p {
	case ProfileReference:
		return "C"
	case ProfileInitial:
		return "Chapel-initial"
	case ProfileOptimized:
		return "Chapel-optimize"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// ParseProfile converts a CLI string into a Profile.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "c", "reference", "ref", "":
		return ProfileReference, nil
	case "initial", "chapel-initial":
		return ProfileInitial, nil
	case "optimized", "optimize", "chapel-optimize":
		return ProfileOptimized, nil
	}
	return ProfileReference, fmt.Errorf("core: unknown profile %q", s)
}

// Profiles lists all profiles in comparison order.
var Profiles = []Profile{ProfileReference, ProfileInitial, ProfileOptimized}

// Options configures one CP-ALS run.
type Options struct {
	// Rank is the decomposition rank R (the paper uses 35).
	Rank int
	// MaxIters caps ALS iterations (the paper runs 20).
	MaxIters int
	// Tolerance stops iteration once |fit − fit_prev| < Tolerance.
	// Zero disables early stopping, matching the paper's fixed-20 runs.
	Tolerance float64
	// Tasks is the team size (threads/tasks axis of every figure).
	// Zero means 1.
	Tasks int
	// Seed fixes factor initialization.
	Seed int64

	// Access selects the MTTKRP kernel family / row access mode.
	Access mttkrp.AccessMode
	// LockKind selects the mutex-pool implementation.
	LockKind locks.Kind
	// Strategy forces the conflict strategy (StrategyAuto = decide).
	Strategy mttkrp.ConflictStrategy
	// PrivRatio overrides the lock-vs-privatize ratio (0 = default).
	PrivRatio int
	// SortVariant selects the §V-C sorting implementation.
	SortVariant tsort.Variant
	// Alloc selects the CSF allocation policy (CSF backend only).
	Alloc csf.AllocPolicy
	// Format selects the tensor storage backend: format.CSF (the paper's
	// compressed sparse fiber, the zero-value default), format.ALTO (the
	// adaptive linearized representation), or format.Auto (per-tensor
	// heuristic, see format.Choose).
	Format format.Spec

	// Solver selects the factor-update algorithm: sketch.ALS (the paper's
	// exact alternating least squares, the zero-value default),
	// sketch.ARLS (leverage-score sampled least squares, CP-ARLS-LEV
	// style, with trailing exact refinement), or sketch.Auto (per-tensor
	// heuristic, see sketch.Choose).
	Solver sketch.Solver
	// Samples overrides the ARLS per-update Khatri-Rao row sample count
	// (0 = sketch.DefaultSamples).
	Samples int
	// RefineIters is how many trailing exact-ALS iterations an ARLS run
	// finishes with (0 = sketch.DefaultRefineIters). The refinement pass
	// restores exact-fit semantics: the reported final fit is computed
	// from an exact MTTKRP, not an estimate.
	RefineIters int

	// Init, when non-nil, warm-starts the run: the factor matrices are
	// seeded from a clone of this Kruskal model instead of random values —
	// the evolving-tensor absorb path, where a model trained on an earlier
	// revision seeds the decomposition of the appended one. Init's rank
	// must equal Rank and its mode lengths must match the tensor's (grow a
	// smaller seed with KruskalTensor.ExpandTo first). Init itself is
	// never modified.
	Init *KruskalTensor

	// BLASThreads > 1 runs the inverse routine on an independent BLAS
	// goroutine pool (the OMP_NUM_THREADS axis of §V-E); BLASSpin is the
	// post-call spin (QT_SPINCOUNT analogue).
	BLASThreads int
	BLASSpin    int

	// NonNegative projects factors onto the nonnegative orthant after
	// each update (SPLATT's constrained-CP feature, §III).
	NonNegative bool
	// Ridge adds Tikhonov regularization λI to the normal equations of
	// every factor update — SPLATT's regularized/constrained CP option.
	// Keeps V well-conditioned when factors become collinear. 0 disables.
	Ridge float64

	// Trace, when non-nil, receives one obs.IterEvent after every
	// completed ALS iteration: iteration number, fit, fit delta, and the
	// run's cumulative per-routine seconds. The event is pushed by value
	// from the iteration loop, so a non-allocating sink (obs.TraceRing)
	// keeps steady-state iterations at 0 allocs/op. A nil Trace costs one
	// predictable branch per iteration.
	Trace obs.TraceSink

	// Spans receives the run's phase-level spans on recorder 0: the
	// backend's sort and build, per-mode MTTKRP, Gram assembly,
	// normal-equations solve, normalize, fit, and the sampled solver's
	// set-up/sample/accumulate/leverage phases. These spans are the only
	// clock of a run: Report.Times and the trace's routine seconds derive
	// from their aggregates (the run's delta, so one profiler may serve
	// many runs). Nil records into a private aggregates-only profiler.
	// Recording is allocation-free, so steady-state iterations stay at
	// 0 allocs/op.
	Spans *obs.Profiler

	// Ctx, when non-nil, is polled between factor updates: once it is
	// cancelled, CPD stops at the next mode boundary (within one ALS
	// iteration), marks Report.Cancelled, and returns the partial model
	// together with ctx.Err(). A nil Ctx never cancels.
	Ctx context.Context
}

// DefaultOptions returns the paper's experimental configuration: rank 35,
// 20 iterations, no early stopping, reference profile, serial.
func DefaultOptions() Options {
	return Options{
		Rank:     35,
		MaxIters: 20,
		Tasks:    1,
		Seed:     1,
		Access:   mttkrp.AccessReference,
		LockKind: locks.Spin,
		Strategy: mttkrp.StrategyAuto,
		Alloc:    csf.AllocTwo,
	}
}

// ApplyProfile overwrites the implementation-idiom fields from a Profile.
func (o *Options) ApplyProfile(p Profile) {
	switch p {
	case ProfileReference:
		o.Access = mttkrp.AccessReference
		o.LockKind = locks.Spin
		o.SortVariant = tsort.AllOpt
	case ProfileInitial:
		o.Access = mttkrp.AccessSlice
		o.LockKind = locks.Sync
		o.SortVariant = tsort.Initial
	case ProfileOptimized:
		o.Access = mttkrp.AccessPointer
		o.LockKind = locks.Spin
		o.SortVariant = tsort.AllOpt
	}
}

// backendConfig maps the options onto a storage-backend build config; the
// caller fills Config.Team.
func (o Options) backendConfig(spans *obs.SpanRecorder) format.Config {
	return format.Config{
		Rank: o.Rank,
		Kernel: mttkrp.Options{
			Access:    o.Access,
			Strategy:  o.Strategy,
			LockKind:  o.LockKind,
			PrivRatio: o.PrivRatio,
		},
		Alloc:       o.Alloc,
		SortVariant: o.SortVariant,
		Spans:       spans,
	}
}

// Validate sanity-checks option values.
func (o Options) Validate() error {
	if o.Rank <= 0 {
		return fmt.Errorf("core: rank %d <= 0", o.Rank)
	}
	if o.MaxIters <= 0 {
		return fmt.Errorf("core: max iterations %d <= 0", o.MaxIters)
	}
	if o.Tasks < 0 {
		return fmt.Errorf("core: tasks %d < 0", o.Tasks)
	}
	if o.Tolerance < 0 {
		return fmt.Errorf("core: tolerance %g < 0", o.Tolerance)
	}
	if o.Ridge < 0 {
		return fmt.Errorf("core: ridge %g < 0", o.Ridge)
	}
	if o.Samples < 0 {
		return fmt.Errorf("core: samples %d < 0", o.Samples)
	}
	if o.RefineIters < 0 {
		return fmt.Errorf("core: refine iterations %d < 0", o.RefineIters)
	}
	if o.Init != nil {
		if err := o.Init.Validate(); err != nil {
			return fmt.Errorf("core: warm-start seed: %w", err)
		}
		if o.Init.Rank() != o.Rank {
			return fmt.Errorf("core: warm-start seed has rank %d, run wants rank %d",
				o.Init.Rank(), o.Rank)
		}
	}
	return nil
}

// Report summarizes a CP-ALS run: convergence and per-routine seconds.
type Report struct {
	// Iterations actually executed.
	Iterations int
	// Fit is the final model fit (1 − relative residual).
	Fit float64
	// FitHistory holds the fit after every iteration.
	FitHistory []float64
	// Times is the run's per-routine seconds (perf.Routine* keys),
	// derived from its phase spans through the phase→routine map.
	Times map[string]float64
	// Strategies records the conflict strategy used per mode — the
	// observable lock-vs-privatize decision.
	Strategies []mttkrp.ConflictStrategy
	// Format is the resolved storage backend ("csf" or "alto"; Auto is
	// resolved before the run starts).
	Format string
	// Solver is the resolved factor-update algorithm ("als" or "arls";
	// Auto is resolved before the run starts, and an ARLS request that
	// cannot sample — a complement index space beyond 64 bits, or an
	// iteration budget the refinement pass fully consumes — resolves back
	// to "als").
	Solver string
	// SampledIters is how many ALS iterations ran on the sampled system
	// (0 for the exact solver); Iterations − SampledIters ran exact.
	SampledIters int
	// CSFBytes is the storage footprint of the selected backend (the CSF
	// set, or the linearized ALTO arrays — field name kept for
	// compatibility with existing consumers).
	CSFBytes int64
	// Cancelled reports that Options.Ctx was cancelled and the run stopped
	// early; Fit and FitHistory reflect the last completed iteration.
	Cancelled bool
	// WarmStart reports that the factors were seeded from Options.Init
	// instead of random initialization.
	WarmStart bool
}

// UsedLocks reports whether any mode's MTTKRP used the mutex pool.
func (r *Report) UsedLocks() bool {
	for _, s := range r.Strategies {
		if s == mttkrp.StrategyLock {
			return true
		}
	}
	return false
}
