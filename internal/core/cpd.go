package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
	p, err := NewParticipant(Shard{Tensor: t}, opts)
	if err != nil {
		return nil, nil, err
	}
	k, report := p.Run()
	if report.Cancelled {
		return k, report, opts.Ctx.Err()
	}
	return k, report, nil
}

// buildDecomposer assembles shard s's arena, storage backend, and
// decomposer state.
func buildDecomposer(s Shard, team *parallel.Team, tasks int, opts Options) (*decomposer, error) {
	t := s.Tensor
	// Spans are the run's only clock. Without a caller profiler the run
	// records into a private aggregates-only one; either way the run's
	// routine times are recorder ID's delta from this reading on.
	spans := opts.Spans
	if spans == nil {
		spans = obs.NewProfiler(1, 0)
	}
	rec := spans.Recorder(s.ID)
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
	return newDecomposer(s, backend, team, arena, opts, rec, base)
}

// decomposer holds the state of one participant's CP-ALS run.
type decomposer struct {
	t       *sptensor.Tensor // the shard's nonzeros
	backend format.Backend
	team    *parallel.Team
	arena   *parallel.Arena
	ws      *dense.Workspace
	opts    Options

	// coll combines partial results with the other participants'; single
	// marks a run with no others, which polls Ctx at every mode boundary.
	// id salts the sampled fit estimate.
	coll   Collective
	single bool
	id     int

	k       *KruskalTensor  // the whole model, replicated on every participant
	factors []*dense.Matrix // the rows updated here: mode 0's owned rows, every other mode whole
	grams   []*dense.Matrix // A(m)ᵀA(m), maintained per mode
	v       *dense.Matrix   // Hadamard product of the other modes' grams
	gbuf    *dense.Matrix   // model-norm scratch for the fit evaluation
	mbuf    *dense.Matrix   // MTTKRP output backing (maxDim rows used per mode)
	mrows   []*dense.Matrix // per-mode views into mbuf, built once
	blas    *dense.BLASPool
	normX   float64

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

func newDecomposer(s Shard, backend format.Backend, team *parallel.Team,
	arena *parallel.Arena, opts Options, rec *obs.SpanRecorder, base [obs.NumPhases]int64) (*decomposer, error) {

	t := s.Tensor
	r := opts.Rank
	// Each participant updates its own clone of the seed model (never the
	// caller's copy); without one, SPLATT's random initialization.
	var k *KruskalTensor
	if seed := cmp.Or(s.Model, opts.Init); seed != nil {
		k = seed.Clone()
	} else {
		k = NewRandomKruskal(t.Dims, r, opts.Seed)
	}
	coll := s.Collective
	if coll == nil {
		coll = sharedMemory{}
	}
	d := &decomposer{
		t: t, backend: backend, team: team, arena: arena, opts: opts, rec: rec, base: base,
		coll:    coll,
		single:  s.Collective == nil,
		id:      s.ID,
		k:       k,
		factors: append([]*dense.Matrix(nil), k.Factors...),
		grams:   make([]*dense.Matrix, t.NModes()),
		v:       dense.NewMatrix(r, r),
		gbuf:    dense.NewMatrix(r, r),
	}
	d.factors[0] = dense.NewMatrixFrom(t.Dims[0], r, k.Factors[0].Data[s.Lo*r:(s.Lo+t.Dims[0])*r])
	d.ws = dense.NewWorkspace(team, arena, r)
	d.mbuf = dense.NewMatrix(slices.Max(t.Dims), r)
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

	d.solver = ResolveSolver(t, opts)
	if d.solver == sketch.ARLS {
		// The sampler works in global coordinates: mode 0's offset puts
		// every participant's nonzeros in one index space, so all draw the
		// same samples and key fibers alike.
		offsets := make([]int, t.NModes())
		offsets[0] = s.Lo
		span := d.rec.Start()
		sampler, err := sketch.NewSampler(backend, k.Dims(), sketch.Config{
			Rank:    r,
			Samples: opts.Samples,
			Seed:    opts.Seed,
			Offsets: offsets,
			Team:    team,
		})
		d.rec.End(obs.PhaseSketchBuild, span)
		if err != nil {
			return nil, fmt.Errorf("core: sampler: %w", err)
		}
		d.sampler = sampler
		d.sampler.SetSpans(d.rec)
		d.vs = dense.NewMatrix(r, r)
	}
	return d, nil
}

// ResolveSolver fixes the factor-update algorithm of a run on t before
// its loop starts: Auto picks per tensor, and an ARLS request runs exact
// ALS when the refinement pass consumes the whole iteration budget or the
// tensor cannot be sampled (a complement index space beyond 64 bits, or
// more nonzeros than a fiber index addresses). A run split across
// participants resolves once, on the whole tensor.
func ResolveSolver(t *sptensor.Tensor, opts Options) sketch.Solver {
	solver := opts.Solver
	if solver == sketch.Auto {
		solver, _ = sketch.Choose(t.NNZ(), t.Dims, opts.Rank)
	}
	if solver != sketch.ARLS || sketch.SampledIters(opts.MaxIters, opts.RefineIters) == 0 ||
		t.NNZ() > sptensor.MaxNNZ {
		return sketch.ALS
	}
	// A sampler without a source runs only the shape checks.
	if _, err := sketch.NewSampler(nil, t.Dims, sketch.Config{Rank: opts.Rank}); err != nil {
		return sketch.ALS
	}
	return sketch.ARLS
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

// prepare computes the tensor's norm, the initial Grams (line 2 setup of
// Algorithm 1) and the sampled-phase budget. These are the run's first
// collectives.
func (d *decomposer) prepare() {
	order := d.t.NModes()
	d.normX = d.coll.ReduceScalar(d.t.NormSquared())
	span := d.rec.Start()
	for m := 0; m < order; m++ {
		d.ws.Syrk(d.factors[m], d.grams[m])
	}
	d.rec.End(obs.PhaseGram, span)
	d.coll.ReduceGram(d.grams[0])

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
// cancellation, see cancelled).
func (d *decomposer) iterate(it int, report *Report) (stop bool) {
	order := d.t.NModes()
	sampled := d.sampledLeft > 0
	iterSpan := d.rec.Start()
	for m := 0; m < order; m++ {
		if d.cancelled(m) {
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

// cancelled reports whether the run stops before updating mode m. A
// single participant polls Ctx at every mode boundary. The participants of
// a split run agree once per iteration, before mode 0: each adds its view
// of Ctx to one flag reduction, so all stop at the same boundary even when
// they see the cancellation at different times.
func (d *decomposer) cancelled(m int) bool {
	if d.opts.Ctx == nil || (m > 0 && !d.single) {
		return false
	}
	flag := 0.0
	if d.opts.Ctx.Err() != nil {
		flag = 1
	}
	return d.coll.ReduceScalar(flag) > 0
}

// updateMode performs one least-squares factor update (one of lines 4-6,
// 7-9, or 10-12 of Algorithm 1) for mode m. A sampled update replaces the
// exact MTTKRP and the Hadamard-of-Grams normal matrix with their
// leverage-score-sampled counterparts (CP-ARLS-LEV); everything after the
// solve (clamp, normalize, Gram refresh) is identical.
//
// Split across participants, mode 0 updates only the owned rows: its
// column norms and Gram are reduced from the participants' partials and
// its rows gathered, so no nonzero leaves its participant. A replicated
// mode reduces the partial M, then solves, normalizes and refreshes its
// Gram redundantly on identical inputs.
func (d *decomposer) updateMode(m, iter int, sampled bool, report *Report) {
	r := d.opts.Rank
	factor := d.factors[m]
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
		d.backend.MTTKRP(m, d.factors, mrows)
		d.rec.EndMode(obs.PhaseMTTKRP, mttkrpSpan, m)
		report.Strategies[m] = d.backend.LastStrategy()
	}
	if m > 0 {
		d.coll.ReduceMTTKRP(mrows)
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
	var across dense.NormReducer
	if m == 0 {
		across = d.coll
	}
	d.ws.NormalizeColumns(factor, d.k.Lambda, kind, across)
	d.rec.EndMode(obs.PhaseNormalize, normSpan, m)

	// Refresh this mode's Gram for subsequent V products.
	gramSpan := d.rec.Start()
	d.ws.Syrk(factor, d.grams[m])
	d.rec.EndMode(obs.PhaseGram, gramSpan, m)
	if m == 0 {
		d.coll.ReduceGram(d.grams[0])
		d.coll.GatherRows(d.k.Factors[0])
	}

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
	inner := d.coll.ReduceScalar(d.sampler.EstimateInner(iter, uint64(d.id), d.k.Lambda, d.k.Factors))
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
// updated, normalized factor. No pass over the nonzeros is needed. In a
// split run the final mode is replicated, so every participant computes
// the same value with no reduction.
func (d *decomposer) computeFit() float64 {
	span := d.rec.Start()
	last := d.t.NModes() - 1
	d.fitFactor = d.k.Factors[last]
	d.team.Run(d.fitBody)
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
