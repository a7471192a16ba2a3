// Package dist implements the paper's §VII future-work item: distributed-
// memory CP-ALS. It simulates a multi-locale machine with SPMD goroutines,
// one per "locale". dist partitions the tensor, communicates and reports;
// core's decomposer iterates. Each locale owns a coarse-grained mode-0
// slab of the tensor, stored in the selected format, and runs core's
// CP-ALS loop over it. The loop reaches the other locales only through
// core.Collective, which dist implements with explicit collectives over
// its fabric (allreduce over partial MTTKRP outputs, Gram matrices, column
// norms and scalars; allgather over mode-0 factor rows) whose traffic is
// accounted in the Report. Options are core.Options plus the world size,
// so the core knobs reach the locales as they are (Validate refuses the
// three a split run cannot honour), and the Report is locale 0's
// core.Report plus the shard layout and the communication ledger.
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
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sptensor"
)

// Options configures one distributed CP-ALS run: the core.Options every
// locale runs with, plus the world size. Tasks is each locale's team size,
// so the paper's shared-memory axes compose with the locale axis. A split
// run reads some core fields its own way:
//
//   - Format: each locale stores its shard in the selected format. Auto
//     resolves per shard, so a skewed shard may linearize while a regular
//     one keeps the fiber tree; a shard without nonzeros is stored as CSF.
//   - Solver: resolved once, on the whole tensor, by core.ResolveSolver,
//     never per shard, so every locale runs the same update schedule and
//     the collectives stay aligned. Sampled draws are seed-split per
//     (iteration, mode) from Seed, so every locale draws the same samples
//     without communication.
//   - Ctx: polled once per iteration, before its first factor update,
//     through one allreduce of a cancellation flag, so every locale stops
//     at the same iteration boundary even when they see the cancellation
//     at different times. The report is marked Cancelled, and CPD returns
//     the model of the last completed iteration with ctx.Err(). A nil Ctx
//     adds no allreduce. The locales=1 fast path stops at the next mode
//     boundary, as core.CPD does.
//   - Trace: replicated state is bitwise identical across locales, so
//     locale 0 emits on behalf of the world, its own spans filling the
//     elapsed and per-routine seconds.
//   - Spans: each locale records into Spans.Recorder(lid), and the fabric
//     charges every collective to the calling locale's recorder, so the
//     comm-phase aggregates agree bitwise with the Report's per-op
//     seconds. Nil records into a private aggregates-only profiler. Build
//     the profiler with at least Locales recorders; a smaller one shares
//     its last recorder.
//   - Init, BLASThreads > 1 and BLASSpin > 0 are refused by Validate: every
//     locale starts from one random model, and runs its inverse routine on
//     its own team.
type Options struct {
	core.Options
	// Locales is the simulated world size (>= 1). 1 short-circuits to the
	// shared-memory path with zero communication.
	Locales int
}

// DefaultOptions returns core.DefaultOptions over 2 locales: the paper's
// ALS parameters (rank 35, 20 iterations) with serial locales.
func DefaultOptions() Options {
	return Options{Options: core.DefaultOptions(), Locales: 2}
}

// Validate sanity-checks option values: the locale count and the core
// fields a split run cannot honour here, every other field through
// core.Options.Validate.
func (o Options) Validate() error {
	switch {
	case o.Locales < 1:
		return fmt.Errorf("dist: locales %d < 1", o.Locales)
	case o.Init != nil:
		return errors.New("dist: a warm start (Init) cannot seed a split run")
	case o.BLASThreads > 1 || o.BLASSpin > 0:
		return fmt.Errorf("dist: a BLAS pool (threads %d, spin %d) cannot serve a split run",
			o.BLASThreads, o.BLASSpin)
	}
	if err := o.Options.Validate(); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return nil
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
	co := opts.Options
	if co.Spans == nil {
		co.Spans = obs.NewProfiler(world, 0)
	}
	co.Solver = core.ResolveSolver(t, co)
	slabs := PartitionSlabs(t, world)
	fabric := newComm(world, t.Dims[0]*co.Rank, co.Spans)
	seed := core.NewRandomKruskal(t.Dims, co.Rank, co.Seed)

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
	report := newReport(reports, slabs)
	fabric.fill(report)
	report.TotalSeconds = time.Since(start).Seconds()
	if report.Cancelled {
		return models[0], report, co.Ctx.Err()
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
	k, cr, err := core.CPD(t, opts.Options)
	if cr == nil {
		return nil, nil, err
	}
	report := newReport([]*core.Report{cr}, []Slab{{Hi: t.Dims[0], NNZ: t.NNZ()}})
	report.TotalSeconds = time.Since(start).Seconds()
	return k, report, err
}

// newReport wraps locale 0's core report, the world's, with the shard
// layout and the MTTKRP critical path of the locales' reports.
func newReport(reports []*core.Report, slabs []Slab) *Report {
	r := &Report{
		Report:    *reports[0],
		Locales:   len(slabs),
		ShardRows: make([]int, len(slabs)),
		ShardNNZ:  make([]int, len(slabs)),
	}
	for lid, s := range slabs {
		r.ShardRows[lid] = s.Rows()
		r.ShardNNZ[lid] = s.NNZ
		r.MTTKRPSeconds = max(r.MTTKRPSeconds, reports[lid].Times[perf.RoutineMTTKRP])
	}
	return r
}
