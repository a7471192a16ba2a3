package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/format"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/sketch"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// CPD runs CP-ALS (Algorithm 1) on tensor t. It builds the storage backend
// selected by Options.Format (the CSF set — timing the sort, as the
// paper's pre-processing "Sort" routine — or the ALTO linearized arrays),
// then iterates mode-wise least-squares updates until MaxIters or
// convergence. The input tensor is not modified.
func CPD(t *sptensor.Tensor, opts Options) (*KruskalTensor, *Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	tasks := opts.Tasks
	if tasks < 1 {
		tasks = 1
	}
	team := parallel.NewTeam(tasks)
	defer team.Close()

	d, err := buildDecomposer(t, team, tasks, opts)
	if err != nil {
		return nil, nil, err
	}
	k, report := d.run()
	if report.Cancelled {
		return k, report, opts.Ctx.Err()
	}
	return k, report, nil
}

// buildDecomposer assembles the per-run arena, storage backend, and
// decomposer state shared by CPD and Session.
func buildDecomposer(t *sptensor.Tensor, team *parallel.Team, tasks int,
	opts Options) (*decomposer, error) {

	// Spans are the run's only clock. Without a caller profiler the run
	// records into a private aggregates-only one; either way the run's
	// routine times are recorder 0's delta from this reading on.
	spans := opts.Spans
	if spans == nil {
		spans = obs.NewProfiler(1, 0)
	}
	rec := spans.Recorder(0)
	base := rec.Nanos()

	// One arena serves the whole run: the backend's kernel workspaces, the
	// dense Workspace, and the decomposer's own scratch all draw from it,
	// so steady-state iterations allocate nothing.
	arena := parallel.NewArena(tasks)
	cfg := opts.backendConfig(rec)
	cfg.Team = team
	cfg.Kernel.Arena = arena
	var backend format.Backend
	var err error
	if opts.Init != nil {
		// Warm start: the seed factors must tile the tensor exactly, and
		// only the storage backend is rebuilt for the delta'd tensor — the
		// factors carry over, so Auto is pinned to a concrete spec first
		// and the run goes through the revision rebuild path.
		if opts.Init.Order() != t.NModes() {
			return nil, fmt.Errorf("core: warm-start seed has order %d, tensor has order %d",
				opts.Init.Order(), t.NModes())
		}
		for m, d := range t.Dims {
			if f := opts.Init.Factors[m]; f.Rows != d {
				return nil, fmt.Errorf("core: warm-start seed mode %d has %d rows, tensor has %d (ExpandTo first)",
					m, f.Rows, d)
			}
		}
		spec := opts.Format
		if spec == format.Auto {
			spec, _ = format.Choose(t)
		}
		backend, err = format.Rebuild(t, spec, cfg)
	} else {
		backend, err = format.Build(t, opts.Format, cfg)
	}
	if err != nil {
		return nil, err
	}
	return newDecomposer(t, backend, team, arena, opts, rec, base), nil
}

// decomposer holds the state of one CP-ALS run.
type decomposer struct {
	t       *sptensor.Tensor
	backend format.Backend
	team    *parallel.Team
	arena   *parallel.Arena
	ws      *dense.Workspace
	opts    Options

	k     *KruskalTensor
	grams []*dense.Matrix // A(m)ᵀA(m), maintained per mode
	v     *dense.Matrix   // Hadamard product of the other modes' grams
	gbuf  *dense.Matrix   // model-norm scratch for the fit evaluation
	mbuf  *dense.Matrix   // MTTKRP output backing (maxDim rows used per mode)
	mrows []*dense.Matrix // per-mode views into mbuf, built once
	blas  *dense.BLASPool
	normX float64

	// rec is the run's span recorder and base its per-phase reading
	// before the backend build: Report.Times and the trace's routine
	// seconds are the delta since base.
	rec  *obs.SpanRecorder
	base [obs.NumPhases]int64

	// Fit-reduction scratch: staged operands plus a body built once.
	fitPartials []float64
	fitFactor   *dense.Matrix
	fitBody     func(tid int)

	// Iteration-loop state (shared by run and Session stepping).
	sampledLeft int
	oldFit      float64
	prevSampled bool

	// Sampled-solver state (nil / zero for the exact solver).
	solver       sketch.Solver   // resolved: ALS or ARLS, never Auto
	sampler      *sketch.Sampler // sampled-MTTKRP machinery
	vs           *dense.Matrix   // sampled normal matrix HᵀWH
	sampledIters int
}

func newDecomposer(t *sptensor.Tensor, backend format.Backend, team *parallel.Team,
	arena *parallel.Arena, opts Options, rec *obs.SpanRecorder, base [obs.NumPhases]int64) *decomposer {

	r := opts.Rank
	if arena == nil {
		arena = parallel.NewArena(team.N())
	}
	// Warm start clones the seed model (never mutating the caller's copy);
	// cold start keeps SPLATT's random initialization.
	var k *KruskalTensor
	if opts.Init != nil {
		k = opts.Init.Clone()
	} else {
		k = NewRandomKruskal(t.Dims, r, opts.Seed)
	}
	d := &decomposer{
		t: t, backend: backend, team: team, arena: arena, opts: opts, rec: rec, base: base,
		k:     k,
		grams: make([]*dense.Matrix, t.NModes()),
		v:     dense.NewMatrix(r, r),
		gbuf:  dense.NewMatrix(r, r),
		normX: t.NormSquared(),
	}
	d.ws = dense.NewWorkspace(team, arena, r)
	maxDim := 0
	for _, dim := range t.Dims {
		if dim > maxDim {
			maxDim = dim
		}
	}
	d.mbuf = dense.NewMatrix(maxDim, r)
	d.mrows = make([]*dense.Matrix, t.NModes())
	for m, dim := range t.Dims {
		d.mrows[m] = dense.NewMatrixFrom(dim, r, d.mbuf.Data[:dim*r])
	}
	for m := range d.grams {
		d.grams[m] = dense.NewMatrix(r, r)
	}
	if opts.BLASThreads > 1 || opts.BLASSpin > 0 {
		d.blas = &dense.BLASPool{Threads: opts.BLASThreads, SpinCount: opts.BLASSpin}
	}

	d.fitPartials = arena.Task(0).F64(team.N())
	d.fitBody = func(tid int) {
		factor := d.fitFactor
		r := d.opts.Rank
		begin, end := parallel.Partition(factor.Rows, d.team.N(), tid)
		acc := 0.0
		for i := begin; i < end; i++ {
			frow := factor.Row(i)
			mrow := d.mbuf.Data[i*r : i*r+r]
			for j := 0; j < r; j++ {
				acc += mrow[j] * frow[j] * d.k.Lambda[j]
			}
		}
		d.fitPartials[tid] = acc
	}

	d.resolveSolver()
	return d
}

// resolveSolver fixes the factor-update algorithm before the loop starts:
// Auto picks per tensor, and an ARLS request builds the sampler through
// the backend's nonzero access path (falling back to exact ALS when the
// tensor cannot be sampled, e.g. a complement index space beyond 64 bits).
func (d *decomposer) resolveSolver() {
	solver := d.opts.Solver
	if solver == sketch.Auto {
		solver, _ = sketch.Choose(d.t.NNZ(), d.t.Dims, d.opts.Rank)
	}
	if solver != sketch.ARLS {
		d.solver = sketch.ALS
		return
	}
	// A budget the refinement pass fully consumes runs exact everywhere;
	// skip the sampler build (O(nnz) copy + leverage maintenance) and
	// report the run as what it is.
	if sketch.SampledIters(d.opts.MaxIters, d.opts.RefineIters) == 0 {
		d.solver = sketch.ALS
		return
	}
	span := d.rec.Start()
	sampler, err := sketch.NewSampler(d.backend, d.t.Dims, sketch.Config{
		Rank:    d.opts.Rank,
		Samples: d.opts.Samples,
		Seed:    d.opts.Seed,
		Team:    d.team,
	})
	d.rec.End(obs.PhaseSketchBuild, span)
	if err != nil {
		d.solver = sketch.ALS
		return
	}
	d.solver = sketch.ARLS
	d.sampler = sampler
	d.sampler.SetSpans(d.rec)
	d.vs = dense.NewMatrix(d.opts.Rank, d.opts.Rank)
}

// newReport assembles the report skeleton for this run.
func (d *decomposer) newReport() *Report {
	return &Report{
		Strategies: make([]mttkrp.ConflictStrategy, d.t.NModes()),
		FitHistory: make([]float64, 0, d.opts.MaxIters),
		Format:     d.backend.Format().String(),
		Solver:     d.solver.String(),
		CSFBytes:   d.backend.MemoryBytes(),
		WarmStart:  d.opts.Init != nil,
	}
}

// prepare computes the initial Grams (line 2 setup of Algorithm 1) and the
// sampled-phase budget.
func (d *decomposer) prepare() {
	order := d.t.NModes()
	span := d.rec.Start()
	for m := 0; m < order; m++ {
		d.ws.Syrk(d.k.Factors[m], d.grams[m])
	}
	d.rec.End(obs.PhaseGram, span)

	// Sampled phase budget: the last RefineIters iterations always run
	// exact, restoring exact-MTTKRP fit semantics before reporting.
	d.sampledLeft = 0
	if d.solver == sketch.ARLS {
		d.sampledLeft = sketch.SampledIters(d.opts.MaxIters, d.opts.RefineIters)
		for m := 0; m < order; m++ {
			d.refreshLeverage(m)
		}
	}
	d.oldFit = 0
	d.prevSampled = false
}

// iterate runs ALS iteration `it` (all modes plus the fit evaluation),
// returning stop=true when the run should end (convergence or
// cancellation). Cancellation is polled at mode boundaries, so it takes
// effect within one iteration.
func (d *decomposer) iterate(it int, report *Report) (stop bool) {
	order := d.t.NModes()
	sampled := d.sampledLeft > 0
	iterSpan := d.rec.Start()
	for m := 0; m < order; m++ {
		if d.cancelled() {
			report.Cancelled = true
			return true
		}
		d.updateMode(m, it, sampled, report)
	}
	var fit float64
	if sampled {
		fit = d.estimateFit(it)
		d.sampledIters++
		d.sampledLeft--
	} else {
		fit = d.computeFit()
	}
	// The iteration span envelops the per-phase spans recorded above
	// (subtract them from it for unattributed time). ARLS refinement
	// iterations get their own phase so the sampled/exact split is
	// visible in the aggregate table.
	iterPhase := obs.PhaseIteration
	if d.solver == sketch.ARLS && !sampled {
		iterPhase = obs.PhaseRefine
	}
	d.rec.EndMode(iterPhase, iterSpan, it+1)
	report.FitHistory = append(report.FitHistory, fit)
	report.Iterations = it + 1
	d.emitTrace(it, fit, sampled)
	// Convergence: a converged sampled phase hands over to the exact
	// refinement pass instead of stopping; the first exact iteration
	// after the switch skips the test (its predecessor fit was an
	// estimate).
	if d.opts.Tolerance > 0 && it > 0 && d.prevSampled == sampled &&
		math.Abs(fit-d.oldFit) < d.opts.Tolerance {
		if sampled {
			d.sampledLeft = 0
		} else {
			stop = true
		}
	}
	d.oldFit = fit
	d.prevSampled = sampled
	return stop
}

// emitTrace pushes one per-iteration event to the configured trace sink.
// d.oldFit still holds the previous iteration's fit here (iterate updates
// it after the convergence test), so the delta needs no extra state. The
// event is all scalars pushed by value through the interface — no heap
// traffic, keeping traced steady-state iterations at 0 allocs/op.
func (d *decomposer) emitTrace(it int, fit float64, sampled bool) {
	if d.opts.Trace == nil {
		return
	}
	nanos := d.rec.NanosSince(d.base)
	d.opts.Trace.RecordIteration(obs.IterEvent{
		Iteration: it + 1,
		Fit:       fit,
		Delta:     fit - d.oldFit,
		Sampled:   sampled,
		Seconds:   obs.RoutineSeconds(nanos, perf.RoutineCPD),
		Routines:  obs.Routines(nanos),
	})
}

// run executes the ALS loop and assembles the report.
func (d *decomposer) run() (*KruskalTensor, *Report) {
	report := d.newReport()
	d.prepare()
	for it := 0; it < d.opts.MaxIters; it++ {
		if d.iterate(it, report) {
			break
		}
	}
	d.finish(report)
	return d.k, report
}

// finish seals the report after the last iteration.
func (d *decomposer) finish(report *Report) {
	report.Fit = d.oldFit
	report.SampledIters = d.sampledIters
	report.Times = obs.RoutineTimes(d.rec.NanosSince(d.base))
}

// refreshLeverage recomputes mode m's sampling distribution from the
// current factor and Gram (CP-ARLS-LEV maintains scores per factor,
// refreshed whenever that factor changes).
func (d *decomposer) refreshLeverage(m int) {
	span := d.rec.Start()
	d.sampler.RefreshLeverage(m, d.k.Factors[m], d.grams[m])
	d.rec.EndMode(obs.PhaseLeverage, span, m)
}

// cancelled reports whether the run's context has been cancelled.
func (d *decomposer) cancelled() bool {
	return d.opts.Ctx != nil && d.opts.Ctx.Err() != nil
}

// updateMode performs one least-squares factor update (one of lines 4-6,
// 7-9, or 10-12 of Algorithm 1) for mode m. A sampled update replaces the
// exact MTTKRP and the Hadamard-of-Grams normal matrix with their
// leverage-score-sampled counterparts (CP-ARLS-LEV); everything after the
// solve (clamp, normalize, Gram refresh) is identical.
func (d *decomposer) updateMode(m, iter int, sampled bool, report *Report) {
	r := d.opts.Rank
	factor := d.k.Factors[m]
	mrows := d.mrows[m]

	v := d.v
	if sampled {
		// M ← X(m)·W·H and V ← HᵀWH over the sampled Khatri-Rao rows.
		d.sampler.SampledMTTKRP(m, iter, d.k.Factors, mrows, d.vs)
		v = d.vs
		if d.opts.Ridge > 0 {
			for i := 0; i < r; i++ {
				v.Set(i, i, v.At(i, i)+d.opts.Ridge)
			}
		}
	} else {
		// V ← ∘_{n≠m} A(n)ᵀA(n) (+ optional ridge), fused into one pass.
		gramSpan := d.rec.Start()
		dense.HadamardOfGrams(d.v, d.grams, m)
		if d.opts.Ridge > 0 {
			for i := 0; i < r; i++ {
				d.v.Set(i, i, d.v.At(i, i)+d.opts.Ridge)
			}
		}
		d.rec.EndMode(obs.PhaseGram, gramSpan, m)

		// M ← X(m) · (⊙_{n≠m} A(n)), the MTTKRP.
		mttkrpSpan := d.rec.Start()
		d.backend.MTTKRP(m, d.k.Factors, mrows)
		d.rec.EndMode(obs.PhaseMTTKRP, mttkrpSpan, m)
		report.Strategies[m] = d.backend.LastStrategy()
	}

	// A(m) ← M · V†.
	solveSpan := d.rec.Start()
	factor.CopyFrom(mrows)
	if d.blas != nil {
		dense.SolveNormalsBLAS(d.blas, v, factor)
	} else {
		d.ws.SolveNormals(v, factor)
	}
	d.rec.EndMode(obs.PhaseSolve, solveSpan, m)

	if d.opts.NonNegative {
		dense.ClampNonNegative(d.team, factor)
	}

	// Normalize columns, storing norms as λ: 2-norm on the first
	// iteration, max-norm afterwards (SPLATT's schedule).
	normSpan := d.rec.Start()
	kind := dense.NormMax
	if iter == 0 {
		kind = dense.Norm2
	}
	d.ws.NormalizeColumns(factor, d.k.Lambda, kind)
	d.rec.EndMode(obs.PhaseNormalize, normSpan, m)

	// Refresh this mode's Gram for subsequent V products.
	gramSpan := d.rec.Start()
	d.ws.Syrk(factor, d.grams[m])
	d.rec.EndMode(obs.PhaseGram, gramSpan, m)

	// The sampled solver keeps mode m's leverage scores in sync with the
	// factor it just rewrote.
	if sampled {
		d.refreshLeverage(m)
	}
}

// estimateFit evaluates the sampled-phase fit estimate: the model norm is
// exact (from the maintained Grams) while ⟨X, model⟩ comes from a seeded
// uniform subset of the nonzeros — the exact inner-product identity needs
// the exact last-mode MTTKRP, which sampled iterations never compute.
func (d *decomposer) estimateFit(iter int) float64 {
	span := d.rec.Start()
	inner := d.sampler.EstimateInner(iter, 0, d.k.Lambda, d.k.Factors)
	modelNorm2 := d.modelNormSquared()
	residual2 := d.normX + modelNorm2 - 2*inner
	if residual2 < 0 {
		residual2 = 0
	}
	fit := 0.0
	if d.normX > 0 {
		fit = 1 - math.Sqrt(residual2)/math.Sqrt(d.normX)
	}
	d.rec.End(obs.PhaseFit, span)
	return fit
}

// computeFit evaluates the fit via SPLATT's cheap inner-product identity:
// ⟨X, model⟩ = Σ_{i,r} M_last[i,r] · λ_r · A_last[i,r], where M_last is
// the final mode's MTTKRP output (still resident in mbuf) and A_last its
// updated, normalized factor. No pass over the nonzeros is needed.
func (d *decomposer) computeFit() float64 {
	span := d.rec.Start()
	last := d.t.NModes() - 1
	d.fitFactor = d.k.Factors[last]
	if d.team == nil || d.team.N() == 1 {
		d.fitBody(0)
	} else {
		d.team.Run(d.fitBody)
	}
	inner := parallel.ReduceSum(d.fitPartials)

	modelNorm2 := d.modelNormSquared()
	residual2 := d.normX + modelNorm2 - 2*inner
	if residual2 < 0 {
		residual2 = 0
	}
	fit := 0.0
	if d.normX > 0 {
		fit = 1 - math.Sqrt(residual2)/math.Sqrt(d.normX)
	}
	d.rec.End(obs.PhaseFit, span)
	return fit
}

// modelNormSquared computes λᵀ (∘_m Gram_m) λ from the maintained Grams.
func (d *decomposer) modelNormSquared() float64 {
	return d.k.NormSquaredFromGramsInto(d.grams, d.gbuf)
}

// SortOnly runs just the pre-processing sort the way the CSF backend
// would, for the Figure 1 study: it clones t, sorts for the policy's first
// root, and reports the elapsed seconds.
func SortOnly(t *sptensor.Tensor, opts Options) float64 {
	tasks := opts.Tasks
	if tasks < 1 {
		tasks = 1
	}
	team := parallel.NewTeam(tasks)
	defer team.Close()
	clone := t.Clone()
	roots := csf.RootsFor(t.Dims, opts.Alloc)
	start := time.Now()
	tsort.SortForRoot(clone, roots[0], team, opts.SortVariant)
	return time.Since(start).Seconds()
}
