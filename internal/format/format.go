// Package format makes tensor storage a first-class pluggable axis of the
// decomposition stack. A Backend owns one tensor representation plus its
// MTTKRP machinery; the CP-ALS engines (core, dist), the service layer, and
// the CLIs select one via a Spec (csf | alto | auto) instead of hard-coding
// CSF. Adding a future format (blocked COO, HiCOO, GPU-resident) means
// implementing Backend and extending Build — nothing above this package
// changes.
package format

import (
	"fmt"
	"strings"

	"repro/internal/alto"
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// Spec selects a tensor storage format. The zero value is CSF, so existing
// configurations keep their behaviour.
type Spec int

const (
	// CSF is SPLATT's compressed-sparse-fiber forest (the paper's format).
	CSF Spec = iota
	// ALTO is the adaptive linearized format (arXiv:2403.06348 style).
	ALTO
	// Auto picks per tensor via Choose.
	Auto
)

// String names the spec as accepted by Parse.
func (s Spec) String() string {
	switch s {
	case CSF:
		return "csf"
	case ALTO:
		return "alto"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Spec(%d)", int(s))
	}
}

// Parse converts a CLI/API string into a Spec ("" selects CSF).
func Parse(s string) (Spec, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "csf", "":
		return CSF, nil
	case "alto":
		return ALTO, nil
	case "auto":
		return Auto, nil
	}
	return CSF, fmt.Errorf("format: unknown tensor format %q (want csf|alto|auto)", s)
}

// Backend is one tensor representation ready to serve MTTKRPs for every
// mode. Implementations are built once per CP-ALS run and reused across
// iterations.
type Backend interface {
	// Format reports the resolved storage format (never Auto).
	Format() Spec
	// MTTKRP computes out = X(mode) · (⊙_{n≠mode} factors[n]); out must be
	// Dims[mode]×rank and is overwritten.
	MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix)
	// StrategyFor reports the output-conflict strategy MTTKRP would use for
	// a mode — the per-mode strategy report.
	StrategyFor(mode int) mttkrp.ConflictStrategy
	// LastStrategy reports the strategy of the most recent MTTKRP.
	LastStrategy() mttkrp.ConflictStrategy
	// MemoryBytes estimates the representation's storage footprint.
	MemoryBytes() int64
	// NNZ reports the stored nonzero count.
	NNZ() int
	// Nonzeros writes every stored nonzero, in the backend's storage
	// order, into columns the caller allocated: coords[m][x] receives
	// nonzero x's index in tensor mode m and vals[x] its value (each
	// column holds NNZ entries). The sampled (ARLS) solver copies its
	// nonzeros through this path, so it works against whichever
	// representation the run selected.
	Nonzeros(coords [][]sptensor.Index, vals []float64)
}

// Config carries everything a backend build needs from the engine.
type Config struct {
	// Team executes the build and all subsequent MTTKRPs (nil = serial).
	Team *parallel.Team
	// Rank is the decomposition rank R.
	Rank int
	// Kernel configures the MTTKRP operator (access mode, conflict
	// strategy, lock kind, shared arena).
	Kernel mttkrp.Options
	// Alloc and SortVariant configure the CSF build (ignored by ALTO).
	Alloc       csf.AllocPolicy
	SortVariant tsort.Variant
	// Spans receives the build-time phases (one sort and one build span
	// per CSF root, or one build span for ALTO); nil records nothing.
	Spans *obs.SpanRecorder
}

// Build constructs the backend for t under the given spec. Auto resolves
// via Choose first. An explicit ALTO request fails when the dimensions are
// not encodable in 128 linearized bits; Auto never picks ALTO in that case.
func Build(t *sptensor.Tensor, spec Spec, cfg Config) (Backend, error) {
	if spec == Auto {
		spec, _ = Choose(t)
	}
	switch spec {
	case CSF:
		return buildCSF(t, cfg), nil
	case ALTO:
		return buildALTO(t, cfg)
	default:
		return nil, fmt.Errorf("format: unknown spec %v", spec)
	}
}

// Rebuild constructs the storage backend for a delta'd revision of a
// tensor — the warm-start path of an evolving decomposition, where the
// factor matrices carry over from a model trained on an earlier revision
// and only the representation is rebuilt for the appended nonzeros. It
// requires a concrete spec: the caller resolves Auto against the new
// revision before seeding, so the sampler, the report, and the serving
// metrics all see one fixed format for the whole warm run instead of a
// choice that could flip between revisions mid-chain.
func Rebuild(t *sptensor.Tensor, spec Spec, cfg Config) (Backend, error) {
	if spec == Auto {
		return nil, fmt.Errorf("format: rebuild needs a resolved spec, got auto (run Choose first)")
	}
	return Build(t, spec, cfg)
}

// heuristic thresholds for Choose, exported for tests and documentation.
const (
	// AutoSkewThreshold is the longest-mode slice-population skew
	// (max/mean) beyond which auto prefers ALTO on 3rd-order tensors when
	// only the pure-Go walkers are available.
	AutoSkewThreshold = 8.0
)

// nativeExtract gates the native-extraction branch of Choose; a variable
// so tests can pin either decision table regardless of the build host.
var nativeExtract = alto.NativeExtract

// Choose picks a storage format for a tensor, returning the choice and a
// human-readable reason. The documented heuristic, in order:
//
//  1. Dimensions not encodable in 128 linearized bits → CSF (ALTO cannot
//     represent the tensor at all).
//  2. Order ≥ 4 → ALTO: the CSF kernels' specialized fast paths (and the
//     tile schedule) are 3rd-order, and a mode-agnostic single
//     representation replaces the multi-CSF set's per-root copies.
//  3. Order 3, encoding fits one 64-bit word, and the CPU has native
//     bit-extraction (BMI2 pdep/pext — see alto.NativeExtract) → ALTO:
//     the single representation halves memory against the multi-CSF set,
//     at 1.1–2.1x CSF's MTTKRP time on the twins (EXPERIMENTS.md
//     ablformat). The rule was set when the pext tile walker beat the
//     then-scalar CSF kernels; it trades time for memory until re-decided.
//  4. Order 3, narrow encoding, no native bit-extraction: prefer ALTO
//     only when the longest mode's slice-population skew (max/mean
//     nonzeros per slice) ≥ AutoSkewThreshold — hub slices are what
//     contend CSF's lock pool, while the linearized order spreads a hub's
//     nonzeros across tasks with run-buffered flushes. The rule was set
//     when these builds walked keys with a byte-patch walker that took
//     1.8–2.9x CSF's MTTKRP time on the twins; they now walk 512-key
//     tiles extracted through the byte tables, and the rule stands until
//     it is re-measured.
//  5. Otherwise → CSF (the paper's format; its fiber tree wins on regular
//     3rd-order tensors without native extraction, and a two-word ALTO
//     pays double index traffic).
func Choose(t *sptensor.Tensor) (Spec, string) {
	enc, err := alto.NewEncoding(t.Dims)
	if err != nil {
		return CSF, fmt.Sprintf("csf: %v", err)
	}
	if t.NModes() >= 4 {
		return ALTO, fmt.Sprintf("alto: order %d beyond CSF's specialized 3rd-order kernels", t.NModes())
	}
	if enc.Wide() {
		return CSF, fmt.Sprintf("csf: %d-bit linearized index needs two words", enc.TotalBits)
	}
	if nativeExtract() {
		return ALTO, fmt.Sprintf("alto: native bit-extraction (%d-bit keys, pext tile walker), half the memory of the CSF set", enc.TotalBits)
	}
	longest := 0
	for m, d := range t.Dims {
		if d > t.Dims[longest] {
			longest = m
		}
	}
	skew := sliceSkew(t, longest)
	if skew >= AutoSkewThreshold {
		return ALTO, fmt.Sprintf("alto: longest-mode slice skew %.1f ≥ %.0f (hub contention)", skew, AutoSkewThreshold)
	}
	return CSF, fmt.Sprintf("csf: order-3, slice skew %.1f below %.0f", skew, AutoSkewThreshold)
}

// sliceSkew is max/mean nonzeros over the populated slices of mode m.
func sliceSkew(t *sptensor.Tensor, m int) float64 {
	counts := t.SliceCounts(m)
	var max, total, populated int64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		populated++
		total += c
		if c > max {
			max = c
		}
	}
	if populated == 0 || total == 0 {
		return 1
	}
	mean := float64(total) / float64(populated)
	return float64(max) / mean
}

// csfBackend wraps the existing CSF set + operator.
type csfBackend struct {
	set *csf.Set
	op  *mttkrp.Operator
}

// buildCSF sorts clones of t (a sort span, the paper's pre-processing
// step) and assembles the CSF representations (a build span per root).
func buildCSF(t *sptensor.Tensor, cfg Config) *csfBackend {
	rec := cfg.Spans
	roots := csf.RootsFor(t.Dims, cfg.Alloc)
	csfs := make([]*csf.CSF, len(roots))
	for i, root := range roots {
		clone := t.Clone()
		span := rec.Start()
		perm := tsort.SortForRoot(clone, root, cfg.Team, cfg.SortVariant)
		rec.EndMode(obs.PhaseSort, span, root)
		span = rec.Start()
		csfs[i] = csf.BuildPresorted(clone, perm)
		rec.EndMode(obs.PhaseBuild, span, root)
	}
	set := csf.NewSetFrom(cfg.Alloc, csfs)
	return &csfBackend{set: set, op: mttkrp.NewOperator(set, cfg.Team, cfg.Rank, cfg.Kernel)}
}

func (b *csfBackend) Format() Spec { return CSF }
func (b *csfBackend) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) {
	b.op.Apply(mode, factors, out)
}
func (b *csfBackend) StrategyFor(mode int) mttkrp.ConflictStrategy { return b.op.StrategyFor(mode) }
func (b *csfBackend) LastStrategy() mttkrp.ConflictStrategy        { return b.op.LastStrategy() }
func (b *csfBackend) MemoryBytes() int64                           { return b.set.MemoryBytes() }
func (b *csfBackend) NNZ() int {
	c, _ := b.set.For(0)
	return c.NNZ()
}
func (b *csfBackend) Nonzeros(coords [][]sptensor.Index, vals []float64) {
	c, _ := b.set.For(0) // every CSF in the set stores the same nonzeros
	c.Nonzeros(coords, vals)
}

// altoBackend wraps the linearized tensor + operator.
type altoBackend struct {
	t    *alto.Tensor
	op   *alto.Operator
	team *parallel.Team // the build team, which also fills Nonzeros
}

// buildALTO linearizes and sorts the tensor on the build team under one
// build span (the format's analogue of sort + CSF assembly).
func buildALTO(t *sptensor.Tensor, cfg Config) (*altoBackend, error) {
	span := cfg.Spans.Start()
	at, err := alto.FromCOO(t, cfg.Team)
	cfg.Spans.End(obs.PhaseBuild, span)
	if err != nil {
		return nil, err
	}
	return &altoBackend{t: at, op: alto.NewOperator(at, cfg.Team, cfg.Rank, cfg.Kernel), team: cfg.Team}, nil
}

func (b *altoBackend) Format() Spec { return ALTO }
func (b *altoBackend) MTTKRP(mode int, factors []*dense.Matrix, out *dense.Matrix) {
	b.op.Apply(mode, factors, out)
}
func (b *altoBackend) StrategyFor(mode int) mttkrp.ConflictStrategy { return b.op.StrategyFor(mode) }
func (b *altoBackend) LastStrategy() mttkrp.ConflictStrategy        { return b.op.LastStrategy() }
func (b *altoBackend) MemoryBytes() int64                           { return b.t.MemoryBytes() }
func (b *altoBackend) NNZ() int                                     { return b.t.NNZ() }
func (b *altoBackend) Nonzeros(coords [][]sptensor.Index, vals []float64) {
	b.t.Nonzeros(coords, vals, b.team)
}

// CSFSet returns the CSF set behind a backend, or nil when the backend is
// not CSF-based (bench introspection without type assertions at call
// sites).
func CSFSet(b Backend) *csf.Set {
	if cb, ok := b.(*csfBackend); ok {
		return cb.set
	}
	return nil
}
