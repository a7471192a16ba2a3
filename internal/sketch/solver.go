// Package sketch implements the randomized sampled CP-ALS solver
// (CP-ARLS-LEV style, after Larsen & Kolda and the distributed variant of
// Bharadwaj et al., arXiv:2210.05105): instead of the exact MTTKRP over
// every nonzero, each factor update solves a least-squares problem
// restricted to a small, leverage-score-sampled subset of Khatri-Rao rows.
// The sampler is deterministic under a seed (seed-split per iteration and
// mode), works against any storage backend through the NonzeroSource
// enumeration path, and supports shard-offset coordinates so the
// distributed engine can sample consistently across locales.
//
// The package is engine-agnostic: core owns the ALS loop, for shared
// memory and for each distributed locale, and calls into Sampler for the
// sampled update; sketch never imports it.
package sketch

import (
	"fmt"
	"math"
	"strings"
)

// Solver selects the factor-update algorithm of a CP-ALS run. The zero
// value is the exact solver, so existing configurations keep their
// behaviour.
type Solver int

const (
	// ALS is the paper's exact alternating least squares: every update
	// runs a full MTTKRP over all nonzeros.
	ALS Solver = iota
	// ARLS is leverage-score sampled ALS (CP-ARLS-LEV): updates solve a
	// sampled least-squares system, with trailing exact refinement
	// iterations for fit parity.
	ARLS
	// Auto picks per tensor via Choose.
	Auto
)

// String names the solver as accepted by Parse.
func (s Solver) String() string {
	switch s {
	case ALS:
		return "als"
	case ARLS:
		return "arls"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// Parse converts a CLI/API string into a Solver ("" selects exact ALS).
func Parse(s string) (Solver, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "als", "exact", "":
		return ALS, nil
	case "arls", "sampled", "arls-lev":
		return ARLS, nil
	case "auto":
		return Auto, nil
	}
	return ALS, fmt.Errorf("sketch: unknown solver %q (want als|arls|auto)", s)
}

// DefaultRefineIters is how many trailing exact-ALS iterations an ARLS run
// finishes with when the caller does not override it. Two exact passes are
// enough to polish the sampled solution onto the exact ALS fixed-point
// trajectory (the fit-parity guarantee the tests enforce).
const DefaultRefineIters = 2

// AbsorbMaxIters is the default iteration budget of a warm-started
// (seeded) run absorbing an appended batch: a few sampled ARLS iterations
// pull the carried-over factors onto the new revision's trajectory, then
// DefaultRefineIters exact passes restore exact-fit semantics. Sized so a
// ≤1% nnz append reaches the cold run's converged fit in well under a
// third of the cold iteration budget (the paper-configuration 20).
const AbsorbMaxIters = 6

// AbsorbSampledIters is the sampled prefix of the absorb schedule.
const AbsorbSampledIters = AbsorbMaxIters - DefaultRefineIters

// AutoNNZThreshold is the nonzero count below which Auto keeps the exact
// solver: under it a full MTTKRP is already cheap, and the sampled system's
// fixed per-update overhead (leverage scores + drawing) does not pay.
const AutoNNZThreshold = 1 << 16

// AutoSampleAdvantage is the minimum ratio of nonzeros to the default
// sample count Auto requires before picking ARLS: sampling wins only when
// the sampled system touches a small fraction of what the exact kernel
// streams.
const AutoSampleAdvantage = 8

// DefaultSamples returns the per-update Khatri-Rao row sample count used
// when the caller does not override it: c·R·log2(max complement dim),
// the leverage-sampling guarantee shape (S = O(R log I / ε²)) with a
// practical constant, clamped to a floor that keeps tiny problems
// well-conditioned.
func DefaultSamples(dims []int, rank int) int {
	maxDim := 2
	for _, d := range dims {
		if d > maxDim {
			maxDim = d
		}
	}
	s := 4 * rank * int(math.Ceil(math.Log2(float64(maxDim))))
	if s < 1024 {
		s = 1024
	}
	return s
}

// Choose picks a solver for a tensor, returning the choice and a
// human-readable reason. The documented heuristic: ARLS when the nonzero
// count is at least AutoNNZThreshold AND at least AutoSampleAdvantage times
// the default sample budget (so a sampled update streams a small fraction
// of the exact kernel's traffic); exact ALS otherwise.
func Choose(nnz int, dims []int, rank int) (Solver, string) {
	if nnz < AutoNNZThreshold {
		return ALS, fmt.Sprintf("als: %d nonzeros below sampling threshold %d", nnz, AutoNNZThreshold)
	}
	s := DefaultSamples(dims, rank)
	if nnz < AutoSampleAdvantage*s {
		return ALS, fmt.Sprintf("als: %d nonzeros under %d× the %d-row sample budget", nnz, AutoSampleAdvantage, s)
	}
	return ARLS, fmt.Sprintf("arls: %d nonzeros ≥ %d× the %d-row sample budget", nnz, AutoSampleAdvantage, s)
}

// SampledIters splits an iteration budget into the sampled prefix and the
// exact refinement suffix: the last refine iterations (DefaultRefineIters
// when refine == 0) run exact. A budget smaller than the refinement pass
// runs fully exact.
func SampledIters(maxIters, refine int) int {
	if refine <= 0 {
		refine = DefaultRefineIters
	}
	sampled := maxIters - refine
	if sampled < 0 {
		return 0
	}
	return sampled
}
