// Package splatt is a pure-Go reproduction of the system studied in
// "Parallel Sparse Tensor Decomposition in Chapel" (Rolinger, Simon,
// Krieger; IPDPSW 2018): SPLATT's shared-memory CP-ALS sparse tensor
// decomposition, including the compressed-sparse-fiber (CSF) storage
// format, the parallel MTTKRP kernels with their lock/privatization
// conflict strategies, the tensor pre-processing sort, and the dense
// linear-algebra substrate (syrk / Cholesky / pseudo-inverse) the
// algorithm calls into.
//
// The package additionally exposes the paper's *performance-study axes* as
// first-class options, so every table and figure in the paper's evaluation
// can be regenerated (see cmd/splatt-bench and EXPERIMENTS.md):
//
//   - implementation profiles (C-reference vs. initial vs. optimized port),
//   - factor-row access modes (slicing / 2D indexing / pointers),
//   - mutex-pool lock kinds (atomic spin / parking sync / fifo),
//   - sorting optimization variants,
//   - CSF allocation policies, and
//   - the lock-vs-privatize MTTKRP conflict decision.
//
// # Quick start
//
//	tensor := splatt.MustDataset("yelp", 1.0/256) // synthetic Table-I twin
//	opts := splatt.DefaultOptions()
//	opts.Rank = 16
//	opts.Tasks = 4
//	model, report, err := splatt.CPD(tensor, opts)
//	// model.Factors[m] is the In×R factor matrix of mode m,
//	// model.Lambda the component weights; report.Fit the model quality.
//
// See examples/ for complete programs.
package splatt

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/dist"
	"repro/internal/format"
	"repro/internal/locks"
	"repro/internal/model"
	"repro/internal/mttkrp"
	"repro/internal/sketch"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// Tensor is a sparse tensor in coordinate format. See the sptensor package
// for the full method set (Validate, Density, Norm2, ...).
type Tensor = sptensor.Tensor

// Index is one coordinate component of a sparse-tensor nonzero; slices of
// Index address entries in Tensor and KruskalTensor.At.
type Index = sptensor.Index

// Matrix is a dense row-major matrix (factor matrices, Gram matrices).
type Matrix = dense.Matrix

// KruskalTensor is the λ-weighted factored output of CPD.
type KruskalTensor = core.KruskalTensor

// Options configures a CPD run; see DefaultOptions.
type Options = core.Options

// Report carries convergence and per-routine timing results of a CPD run.
type Report = core.Report

// Profile selects an implementation-idiom bundle (paper's compared codes).
type Profile = core.Profile

// DatasetSpec describes a Table-I dataset twin generator.
type DatasetSpec = sptensor.DatasetSpec

// Stats is a Table-I row for a tensor.
type Stats = sptensor.Stats

// Implementation profiles (the "codes" compared throughout the paper).
const (
	ProfileReference = core.ProfileReference // C/OpenMP SPLATT analogue
	ProfileInitial   = core.ProfileInitial   // unoptimized Chapel port analogue
	ProfileOptimized = core.ProfileOptimized // optimized Chapel port analogue
)

// Factor-row access modes (Figures 2-3 axis).
const (
	AccessReference = mttkrp.AccessReference
	AccessPointer   = mttkrp.AccessPointer
	AccessIndex2D   = mttkrp.AccessIndex2D
	AccessSlice     = mttkrp.AccessSlice
)

// Mutex-pool lock kinds (Figure 4 axis).
const (
	LockAtomic = locks.Spin
	LockSync   = locks.Sync
	LockFIFO   = locks.FIFO
)

// Sorting optimization variants (Figure 1 axis).
const (
	SortInitial  = tsort.Initial
	SortArrayOpt = tsort.ArrayOpt
	SortSliceOpt = tsort.SliceOpt
	SortAllOpt   = tsort.AllOpt
)

// CSF allocation policies.
const (
	AllocOne = csf.AllocOne
	AllocTwo = csf.AllocTwo
	AllocAll = csf.AllocAll
)

// StorageFormat selects the tensor storage backend via Options.Format.
type StorageFormat = format.Spec

// Tensor storage backends. FormatCSF is the paper's compressed sparse
// fiber forest (the default); FormatALTO is the adaptive linearized
// representation (one bit-interleaved index array serving every mode's
// MTTKRP); FormatAuto picks per tensor by order, slice skew, and
// index bit-width (see ChooseFormat).
const (
	FormatCSF  = format.CSF
	FormatALTO = format.ALTO
	FormatAuto = format.Auto
)

// ParseStorageFormat converts a CLI/API string ("csf"|"alto"|"auto") into
// a StorageFormat.
func ParseStorageFormat(s string) (StorageFormat, error) { return format.Parse(s) }

// ChooseFormat reports the storage backend FormatAuto would pick for a
// tensor, with a human-readable reason.
func ChooseFormat(t *Tensor) (StorageFormat, string) { return format.Choose(t) }

// Solver selects the factor-update algorithm via Options.Solver.
type Solver = sketch.Solver

// Factor-update solvers. SolverALS is the paper's exact alternating least
// squares (the default); SolverARLS is leverage-score sampled ALS
// (CP-ARLS-LEV after Larsen & Kolda / Bharadwaj et al.): each update
// solves a least-squares system over a small seeded sample of Khatri-Rao
// rows, with trailing exact refinement iterations restoring exact-fit
// semantics; SolverAuto picks per tensor by nonzero count against the
// sample budget (see ChooseSolver).
const (
	SolverALS  = sketch.ALS
	SolverARLS = sketch.ARLS
	SolverAuto = sketch.Auto
)

// ParseSolver converts a CLI/API string ("als"|"arls"|"auto") into a
// Solver.
func ParseSolver(s string) (Solver, error) { return sketch.Parse(s) }

// ChooseSolver reports the solver SolverAuto would pick for a tensor at a
// given rank, with a human-readable reason.
func ChooseSolver(t *Tensor, rank int) (Solver, string) {
	return sketch.Choose(t.NNZ(), t.Dims, rank)
}

// MTTKRP conflict strategies.
const (
	StrategyAuto      = mttkrp.StrategyAuto
	StrategyLock      = mttkrp.StrategyLock
	StrategyPrivatize = mttkrp.StrategyPrivatize
	// StrategyTile is the repository's extension: SPLATT's mode tiling,
	// which the paper's port omitted (§V-A, future work in §VII).
	StrategyTile = mttkrp.StrategyTile
)

// DefaultOptions returns the paper's experimental configuration (rank 35,
// 20 iterations, reference profile, serial). Adjust Rank/Tasks as needed.
func DefaultOptions() Options { return core.DefaultOptions() }

// CPD factors the sparse tensor t into a rank-R Kruskal model with
// alternating least squares (Algorithm 1 of the paper). The input tensor
// is not modified.
func CPD(t *Tensor, opts Options) (*KruskalTensor, *Report, error) {
	return core.CPD(t, opts)
}

// CompletionOptions configures CPDComplete.
type CompletionOptions = core.CompletionOptions

// CompletionReport carries the convergence trace of a CPDComplete run.
type CompletionReport = core.CompletionReport

// DefaultCompletionOptions returns a reasonable completion configuration.
func DefaultCompletionOptions() CompletionOptions { return core.DefaultCompletionOptions() }

// CPDComplete factors only the *observed* entries of t (tensor completion
// / "CP with missing values", the SPLATT feature the paper lists in §III).
// Use it when unstored cells mean "unknown" rather than zero, e.g. rating
// prediction.
func CPDComplete(t *Tensor, opts CompletionOptions) (*KruskalTensor, *CompletionReport, error) {
	return core.CPDComplete(t, opts)
}

// DistOptions configures CPDDistributed.
type DistOptions = dist.Options

// DistReport summarizes a distributed run, including the cross-locale
// communication volume the collectives moved.
type DistReport = dist.Report

// DefaultDistOptions returns a 2-locale configuration.
func DefaultDistOptions() DistOptions { return dist.DefaultOptions() }

// CPDDistributed runs coarse-grained distributed CP-ALS over simulated
// locales (SPMD goroutines with explicit allreduce communication) — the
// paper's §VII future-work item, built on the algorithm of its reference
// [16]. Results match CPD up to floating-point reassociation.
func CPDDistributed(t *Tensor, opts DistOptions) (*KruskalTensor, *DistReport, error) {
	return dist.CPD(t, opts)
}

// MTTKRP computes one matricized-tensor-times-Khatri-Rao product:
// out = X(mode) · (⊙_{n≠mode} factors[n]), the kernel at the heart of
// CP-ALS, using the reference configuration with the given task count.
// out must be Dims[mode]×R where R is the factors' column count.
func MTTKRP(t *Tensor, factors []*Matrix, mode int, out *Matrix, tasks int) error {
	if mode < 0 || mode >= t.NModes() {
		return fmt.Errorf("splatt: mode %d out of range for order-%d tensor", mode, t.NModes())
	}
	if len(factors) != t.NModes() {
		return fmt.Errorf("splatt: %d factors for order-%d tensor", len(factors), t.NModes())
	}
	rank := factors[0].Cols
	runner, err := core.NewMTTKRPRunner(t, rank, tasks, core.DefaultOptions())
	if err != nil {
		return err
	}
	defer runner.Close()
	runner.Apply(mode, factors, out)
	return nil
}

// NewRandomTensor generates a uniform random sparse tensor (duplicates
// merged, so the realized nonzero count can be slightly below nnz).
func NewRandomTensor(dims []int, nnz int, seed int64) *Tensor {
	return sptensor.Random(dims, nnz, seed)
}

// Dataset returns the synthetic structural twin of one of the paper's
// Table I datasets ("yelp", "rate-beer", "beer-advocate", "nell-2",
// "netflix") at the given scale factor (1.0 = paper scale; experiments
// default to 1/64).
func Dataset(name string, scale float64) (*Tensor, error) {
	spec, err := sptensor.LookupDataset(name)
	if err != nil {
		return nil, err
	}
	return spec.Generate(scale), nil
}

// MustDataset is Dataset panicking on unknown names (for examples/tests).
func MustDataset(name string, scale float64) *Tensor {
	t, err := Dataset(name, scale)
	if err != nil {
		panic(err)
	}
	return t
}

// LoadTensor reads a tensor from a .tns text file or the binary container
// (format auto-detected).
func LoadTensor(path string) (*Tensor, error) { return sptensor.LoadFile(path) }

// SaveTensor writes a tensor; ".tns" suffix selects text, otherwise binary.
func SaveTensor(path string, t *Tensor) error { return sptensor.SaveFile(path, t) }

// TensorFormat selects a tensor encoding for SaveTensorWriter.
type TensorFormat = sptensor.Format

// Tensor encodings.
const (
	FormatTNS    = sptensor.FormatTNS
	FormatBinary = sptensor.FormatBinary
)

// LoadTensorReader reads a tensor from an arbitrary stream (format
// auto-detected by content), e.g. an HTTP upload or stdin — no temp files.
func LoadTensorReader(r io.Reader) (*Tensor, error) { return sptensor.LoadTensorReader(r) }

// SaveTensorWriter writes a tensor to an arbitrary stream in the given
// format.
func SaveTensorWriter(w io.Writer, t *Tensor, format TensorFormat) error {
	return sptensor.SaveTensorWriter(w, t, format)
}

// ComputeStats derives the Table-I statistics row for a tensor.
func ComputeStats(name string, t *Tensor) Stats { return sptensor.ComputeStats(name, t) }

// Model is an immutable, read-optimized Kruskal model for serving: factor
// columns normalized with the λ weights folded in, stored as flat row-major
// slabs that the query kernels (At / TopK / Similar) stream with unit
// stride and zero steady-state allocations.
type Model = model.Model

// ModelWorkspace is reusable query scratch for Model queries. Not safe for
// concurrent use; concurrent queriers each need their own.
type ModelWorkspace = model.Workspace

// ModelItem is one scored result of a Model TopK or Similar query.
type ModelItem = model.Item

// BuildModel freezes a CPD result into the read-optimized serving form.
// The source tensor is not modified or retained; the model's ID is the
// SHA-256 content address of the source factors.
func BuildModel(k *KruskalTensor) (*Model, error) { return model.Build(k) }

// NewModelWorkspace creates an empty query workspace; its arena grows on
// first use and is reused across queries.
func NewModelWorkspace() *ModelWorkspace { return model.NewWorkspace() }

// NewRandomKruskal initializes a random rank-R Kruskal model (SPLATT's
// CP-ALS initialization) — useful for seeding models and tests.
func NewRandomKruskal(dims []int, rank int, seed int64) *KruskalTensor {
	return core.NewRandomKruskal(dims, rank, seed)
}
