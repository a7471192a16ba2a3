// Package dist implements the paper's §VII future-work item: distributed-
// memory CP-ALS. It simulates a multi-locale machine with SPMD goroutines,
// one per "locale". dist partitions the tensor, communicates and reports;
// core's decomposer iterates. Each locale owns a coarse-grained mode-0
// slab of the tensor, stored in the selected format, and runs core's
// CP-ALS loop over it. The loop reaches the other locales only through
// core.Collective, which dist implements with explicit collectives over
// its fabric (allreduce over partial MTTKRP outputs, Gram matrices, column
// norms and scalars; allgather over mode-0 factor rows) whose traffic is
// accounted in the Report.
//
// The decomposition follows the coarse-grained/allreduce family of
// distributed CP-ALS algorithms (SPLATT's medium-grained ancestor, and the
// design the paper cites as reference [16]): mode-0 factor rows are owned
// by the locale holding their slab, while every other factor matrix is
// fully replicated and kept consistent by reducing the locales' partial
// MTTKRPs before each least-squares update. Reductions combine locale
// contributions in a fixed order, so all replicas remain bitwise identical
// and results match shared-memory core.CPD up to floating-point
// reassociation.
package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/format"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sketch"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// Options configures one distributed CP-ALS run. The kernel knobs mirror
// core.Options so the paper's shared-memory axes compose with the locale
// axis (every locale runs the selected kernel configuration internally).
type Options struct {
	// Locales is the simulated world size (>= 1). 1 short-circuits to the
	// shared-memory path with zero communication.
	Locales int
	// Rank is the decomposition rank R.
	Rank int
	// MaxIters caps ALS iterations.
	MaxIters int
	// Tolerance stops iteration once |fit − fit_prev| < Tolerance; zero
	// disables early stopping.
	Tolerance float64
	// Seed fixes factor initialization (shared by all locales).
	Seed int64
	// TasksPerLocale is each locale's intra-locale team size (0 = 1).
	TasksPerLocale int

	// Access / LockKind / Strategy / SortVariant / Alloc / Format select
	// the intra-locale kernel configuration, as in core.Options. Each
	// locale stores its shard in the selected format (Auto resolves per
	// shard, so a skewed shard may linearize while a regular one keeps the
	// fiber tree; a shard without nonzeros is stored as CSF).
	Access      mttkrp.AccessMode
	LockKind    locks.Kind
	Strategy    mttkrp.ConflictStrategy
	SortVariant tsort.Variant
	Alloc       csf.AllocPolicy
	Format      format.Spec

	// NonNegative and Ridge mirror the constrained-CP options.
	NonNegative bool
	Ridge       float64

	// Solver selects the factor-update algorithm (als|arls|auto), as in
	// core.Options. The choice is resolved once, on the whole tensor, by
	// core.ResolveSolver — never per shard — so every locale runs the same
	// update schedule and the collectives stay aligned; sampled draws are
	// seed-split per (iteration, mode) from Seed, making every locale's
	// sample set identical without communication. Samples and RefineIters
	// mirror core.Options.
	Solver      sketch.Solver
	Samples     int
	RefineIters int

	// Ctx, when non-nil, is polled once per ALS iteration, before its
	// first factor update: the locales allreduce a cancellation flag, so
	// every locale stops at the same iteration boundary even when they see
	// the cancellation at different times, and the collectives stay
	// aligned. The report is marked Cancelled, and CPD returns the model
	// of the last completed iteration with ctx.Err(). A nil Ctx never
	// cancels and adds no allreduce. The locales=1 fast path follows
	// core.Options.Ctx: it stops at the next mode boundary.
	Ctx context.Context

	// Trace, when non-nil, receives one obs.IterEvent per completed ALS
	// iteration. Replicated state is bitwise identical across locales, so
	// locale 0 emits on behalf of the world, with its own spans filling
	// the elapsed and per-routine seconds. The locales=1 fast path
	// delegates to the shared-memory engine.
	Trace obs.TraceSink

	// Spans receives phase-level spans: each locale records into
	// Spans.Recorder(lid), and the comm fabric charges every collective
	// to the calling locale's recorder, so comm-phase aggregates agree
	// bitwise with the Report's per-op seconds. Report.MTTKRPSeconds and
	// the trace's routine seconds derive from these spans too; nil
	// records into a private aggregates-only profiler. The profiler
	// should be built with at least Locales recorders (a smaller one
	// shares its last recorder). Recording is allocation-free; see
	// obs.NewProfiler for the retention knob.
	Spans *obs.Profiler
}

// DefaultOptions returns a 2-locale configuration with the paper's ALS
// parameters (rank 35, 20 iterations, serial locales).
func DefaultOptions() Options {
	return Options{
		Locales:        2,
		Rank:           35,
		MaxIters:       20,
		Seed:           1,
		TasksPerLocale: 1,
		Access:         mttkrp.AccessReference,
		LockKind:       locks.Spin,
		Strategy:       mttkrp.StrategyAuto,
		Alloc:          csf.AllocTwo,
	}
}

// Validate sanity-checks option values: the locale count here, every
// option it shares with core.Options through core.Options.Validate.
func (o Options) Validate() error {
	if o.Locales < 1 {
		return fmt.Errorf("dist: locales %d < 1", o.Locales)
	}
	if err := o.coreOptions().Validate(); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}

// coreOptions maps the distributed options onto the core.Options every
// locale runs with (and the locales=1 fast path).
func (o Options) coreOptions() core.Options {
	co := core.DefaultOptions()
	co.Rank = o.Rank
	co.MaxIters = o.MaxIters
	co.Tolerance = o.Tolerance
	co.Seed = o.Seed
	co.Tasks = o.TasksPerLocale
	co.Access = o.Access
	co.LockKind = o.LockKind
	co.Strategy = o.Strategy
	co.SortVariant = o.SortVariant
	co.Alloc = o.Alloc
	co.Format = o.Format
	co.NonNegative = o.NonNegative
	co.Ridge = o.Ridge
	co.Solver = o.Solver
	co.Samples = o.Samples
	co.RefineIters = o.RefineIters
	co.Ctx = o.Ctx
	co.Trace = o.Trace
	co.Spans = o.Spans
	return co
}

// CPD factors t into a rank-R Kruskal model with distributed CP-ALS over
// opts.Locales simulated locales. The input tensor is not modified.
func CPD(t *sptensor.Tensor, opts Options) (*core.KruskalTensor, *Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	if t.NModes() < 2 {
		return nil, nil, fmt.Errorf("dist: order-%d tensor (need >= 2 modes)", t.NModes())
	}
	if opts.Locales == 1 {
		return cpdSingle(t, opts)
	}

	start := time.Now()
	world := opts.Locales
	if opts.Spans == nil {
		opts.Spans = obs.NewProfiler(world, 0)
	}
	co := opts.coreOptions()
	co.Solver = core.ResolveSolver(t, co)
	slabs := PartitionSlabs(t, world)
	fabric := newComm(world, t.Dims[0]*opts.Rank, opts.Spans)
	seed := core.NewRandomKruskal(t.Dims, opts.Rank, opts.Seed)

	// Every locale is built before any runs: a locale that fails to build
	// would leave the others waiting in their first collective.
	locales := make([]*core.Participant, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for lid := range world {
		wg.Add(1)
		go func() {
			defer wg.Done()
			locales[lid], errs[lid] = newLocale(lid, slabs[lid], t, seed, fabric, co)
		}()
	}
	wg.Wait()
	for lid, err := range errs {
		if err != nil {
			for _, p := range locales {
				if p != nil {
					p.Close()
				}
			}
			return nil, nil, fmt.Errorf("dist: locale %d backend: %w", lid, err)
		}
	}

	models := make([]*core.KruskalTensor, world)
	reports := make([]*core.Report, world)
	for lid, p := range locales {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models[lid], reports[lid] = p.Run()
		}()
	}
	wg.Wait()

	// Replicated state is bitwise identical across locales, so locale 0's
	// report and model are the world's.
	report := fromCore(reports[0], world)
	for _, r := range reports {
		report.MTTKRPSeconds = max(report.MTTKRPSeconds, r.Times[perf.RoutineMTTKRP])
	}
	report.ShardRows = make([]int, world)
	report.ShardNNZ = make([]int, world)
	for lid, s := range slabs {
		report.ShardRows[lid] = s.Rows()
		report.ShardNNZ[lid] = s.NNZ
	}
	fabric.fill(report)
	report.TotalSeconds = time.Since(start).Seconds()
	if report.Cancelled {
		return models[0], report, opts.Ctx.Err()
	}
	return models[0], report, nil
}

// newLocale builds locale lid's decomposer over its slab, running through
// the fabric. All locales start from one seed model. Only locale 0 emits
// the trace, on behalf of the world.
func newLocale(lid int, slab Slab, t *sptensor.Tensor, seed *core.KruskalTensor, c *comm,
	opts core.Options) (*core.Participant, error) {

	local := ExtractSlab(t, slab)
	if local.NNZ() == 0 {
		// CSF stores an empty shard of any shape; ALTO cannot encode a
		// mode with no rows.
		opts.Format = format.CSF
	}
	if lid > 0 {
		opts.Trace = nil
	}
	return core.NewParticipant(core.Shard{
		Tensor:     local,
		Lo:         slab.Lo,
		ID:         lid,
		Model:      seed,
		Collective: &locale{c: c, lid: lid, slab: slab},
	}, opts)
}

// cpdSingle is the locales=1 fast path: plain shared-memory CP-ALS with a
// distributed-shaped report (zero communication, one shard).
func cpdSingle(t *sptensor.Tensor, opts Options) (*core.KruskalTensor, *Report, error) {
	start := time.Now()
	k, cr, err := core.CPD(t, opts.coreOptions())
	if cr == nil {
		return nil, nil, err
	}
	report := fromCore(cr, 1)
	report.ShardRows = []int{t.Dims[0]}
	report.ShardNNZ = []int{t.NNZ()}
	report.TotalSeconds = time.Since(start).Seconds()
	return k, report, err
}

// fromCore carries a core report over to a distributed one.
func fromCore(cr *core.Report, locales int) *Report {
	return &Report{
		Locales:       locales,
		Iterations:    cr.Iterations,
		Fit:           cr.Fit,
		FitHistory:    cr.FitHistory,
		Cancelled:     cr.Cancelled,
		Format:        cr.Format,
		Solver:        cr.Solver,
		SampledIters:  cr.SampledIters,
		MTTKRPSeconds: cr.Times[perf.RoutineMTTKRP],
	}
}
