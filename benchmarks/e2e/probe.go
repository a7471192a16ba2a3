package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/format"
	"repro/internal/model"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/sptensor"
)

// probeInput is what the layer probes of a traced run work on: the
// workload's own tensor, storage format and rank, and for the serving
// workload the model it served.
type probeInput struct {
	t      *sptensor.Tensor
	tns    []byte // t in .tns text; nil encodes t
	format format.Spec
	rank   int
	served *core.KruskalTensor // nil: the model of the probe's own solve
}

// How much work each probe times; every probe reports a median.
const (
	probeReps       = 3   // loads, appends, sorts, model builds
	probeCalls      = 5   // kernel calls per mode
	probeQueries    = 200 // model queries per kind
	probeIters      = 5   // timed ALS iterations
	probeAllocIters = 3   // ALS iterations whose allocations are counted
	probeJobIters   = 5   // iterations of the probe's cold service job
	probeKeep       = 0.995
)

// prober times calls into the layers, one span per call.
type prober struct {
	e    *env
	root int
}

// time runs f reps times, each under a span named name, and returns the
// median time. prep, when not nil, runs untimed before each call. Each
// probe starts from a collected heap, so no collection of the earlier
// probes' garbage runs beside it and takes a worker's processor.
func (p *prober) time(name string, reps int, prep func(), f func() error) (time.Duration, error) {
	runtime.GC()
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		sp := p.e.tr.child(name, p.root)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		p.e.tr.end(sp)
		if !p.e.led.op(err) {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// mttkrp times probeCalls calls of b's mode-m MTTKRP, after one untimed
// call that sizes the kernel's buffers.
func (p *prober) mttkrp(name string, b format.Backend, m int, factors []*dense.Matrix, out *dense.Matrix) (time.Duration, error) {
	b.MTTKRP(m, factors, out)
	return p.time(name, probeCalls, nil, func() error {
		b.MTTKRP(m, factors, out)
		return nil
	})
}

// probeLayers times each layer directly on the workload's inputs and
// records the per-layer metrics. Every probe runs on every workload, so
// a layer a workload does not use shows what that layer costs on the
// workload's data.
func probeLayers(e *env, in probeInput) error {
	p := &prober{e: e, root: e.tr.root("bench.probe", -1, laneProbe)}
	defer e.tr.end(p.root)
	t, rank, tasks, seed := in.t, in.rank, e.cfg.tasks, e.cfg.seed
	tns := in.tns
	if tns == nil {
		tns = encodeTNS(t)
	}
	rng := rand.New(rand.NewSource(seed))
	rest, batches := splitHeldOut(t, probeKeep, 1, rng)
	batch := batches[0]

	// sptensor: parse, and the merge an append makes.
	d, err := p.time("sptensor.load", probeReps, nil, func() error {
		_, err := sptensor.LoadTensorReader(bytes.NewReader(tns))
		return err
	})
	if err != nil {
		return err
	}
	e.layer("sptensor.load_s", d.Seconds(), "s")
	var merged *sptensor.Tensor
	if d, err = p.time("sptensor.append", probeReps, nil, func() (err error) {
		merged, _, err = sptensor.AppendBatch(rest, batch)
		return err
	}); err != nil {
		return err
	}
	e.layer("sptensor.append_ms", ms(d), "ms")

	// tsort: SortOnly reports the sort alone, without its clone of t.
	opts := cpdOptions(in.format, tasks, seed)
	opts.Rank = rank
	var sorts []float64
	if _, err = p.time("tsort.sort", probeReps, nil, func() error {
		sorts = append(sorts, core.SortOnly(t, opts))
		return nil
	}); err != nil {
		return err
	}
	e.layer("tsort.sort_s", median(sorts), "s")

	// format: the backend build of a new tensor and of an appended
	// revision, and the backends' footprint.
	team, serialTeam := parallel.NewTeam(tasks), parallel.NewTeam(1)
	defer team.Close()
	defer serialTeam.Close()
	cfg := format.Config{Team: team, Rank: rank, Kernel: mttkrp.DefaultOptions(),
		Alloc: opts.Alloc, SortVariant: opts.SortVariant}
	var backend format.Backend
	if d, err = p.time("format.build", 1, nil, func() (err error) {
		backend, err = format.Build(t, in.format, cfg)
		return err
	}); err != nil {
		return err
	}
	e.layer("format.build_s", d.Seconds(), "s")
	e.layer("format.backend_mb", float64(backend.MemoryBytes())/(1<<20), "MB")
	if d, err = p.time("format.rebuild", 1, nil, func() error {
		_, err := format.Rebuild(merged, in.format, cfg)
		return err
	}); err != nil {
		return err
	}
	e.layer("format.rebuild_ms", ms(d), "ms")
	serialCfg := cfg
	serialCfg.Team = serialTeam
	serial, err := format.Build(t, in.format, serialCfg)
	if !e.led.op(err) {
		return err
	}

	// mttkrp: per-mode kernel time at tasks=nproc and at tasks=1.
	k := core.NewRandomKruskal(t.Dims, rank, seed)
	outs := make([]*dense.Matrix, len(t.Dims))
	var par, ser float64
	privatized, locked := 0, 0
	for m := range t.Dims {
		outs[m] = dense.NewMatrix(t.Dims[m], rank)
		name := fmt.Sprintf("mttkrp.mode%d", m)
		dp, err := p.mttkrp(name, backend, m, k.Factors, outs[m])
		if err != nil {
			return err
		}
		ds, err := p.mttkrp("mttkrp.serial", serial, m, k.Factors, outs[m])
		if err != nil {
			return err
		}
		e.layer(name+"_ms", ms(dp), "ms")
		par += ms(dp)
		ser += ms(ds)
		switch backend.StrategyFor(m) {
		case mttkrp.StrategyPrivatize:
			privatized++
		case mttkrp.StrategyLock:
			locked++
		}
	}
	order := float64(len(t.Dims))
	e.layer("mttkrp.round_serial_ms", ser, "ms")
	e.layer("mttkrp.speedup", ser/par, "x")
	// A computed rate: 2·N·nnz·R operations per call (the COO-equivalent
	// count), N calls per round.
	e.layer("mttkrp.gflops", order*2*order*float64(t.NNZ())*float64(rank)/(par/1e3)/1e9, "GFLOP/s")
	e.layer("mttkrp.privatized_modes", float64(privatized), "count")
	e.layer("mttkrp.locked_modes", float64(locked), "count")

	// dense: one round of Gram refreshes and normal-equation solves on this
	// tensor's factor shapes.
	ws := dense.NewWorkspace(team, parallel.NewArena(tasks), rank)
	var syrk, solve float64
	for m := range t.Dims {
		gram := dense.NewMatrix(rank, rank)
		if d, err = p.time("dense.syrk", probeCalls, nil, func() error {
			ws.Syrk(k.Factors[m], gram)
			return nil
		}); err != nil {
			return err
		}
		syrk += ms(d)
		for i := 0; i < rank; i++ {
			gram.Set(i, i, gram.At(i, i)+1) // positive definite, as ALS's normal matrices are
		}
		rhs := dense.NewMatrix(t.Dims[m], rank)
		if d, err = p.time("dense.solve", probeCalls, func() { rhs.CopyFrom(outs[m]) }, func() error {
			ws.SolveNormals(gram, rhs)
			return nil
		}); err != nil {
			return err
		}
		solve += ms(d)
	}
	e.layer("dense.syrk_ms", syrk, "ms")
	e.layer("dense.solve_ms", solve, "ms")

	// core: session set-up, steady-state iterations and their allocations.
	// The session records the program's own phase spans (aggregates only),
	// which split an iteration into MTTKRP, Gram, solve and the rest.
	opts.MaxIters = 1 + probeIters + probeAllocIters
	opts.Spans = obs.NewProfiler(1, 0)
	var s *core.Session
	if d, err = p.time("core.session", 1, nil, func() (err error) {
		s, err = core.NewSession(t, opts)
		return err
	}); err != nil {
		return err
	}
	defer s.Close()
	e.layer("core.session_ms", ms(d), "ms")
	s.Iterate(1) // the first iteration normalizes with 2-norms; later ones are the steady state
	before := phaseSeconds(opts.Spans)
	if d, err = p.time("core.iterate", probeIters, nil, func() error {
		if s.Iterate(1) != 1 {
			return errors.New("session stopped early")
		}
		return nil
	}); err != nil {
		return err
	}
	after := phaseSeconds(opts.Spans)
	e.layer("core.iter_ms", ms(d), "ms")
	other := 0.0
	for ph, sign := range map[string]float64{"iteration": 1, "mttkrp": -1, "gram": -1, "solve": -1} {
		other += sign * (after[ph] - before[ph])
	}
	e.layer("core.other_ms", 1e3*other/probeIters, "ms")
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	n := s.Iterate(probeAllocIters)
	runtime.ReadMemStats(&m1)
	e.layer("core.allocs_per_iter", float64(m1.Mallocs-m0.Mallocs)/float64(max(n, 1)), "count")
	trained := s.Model().Clone()

	// sketch: the sampled absorb solve a warm-started job runs on an
	// appended revision.
	warm, err := trained.ExpandTo(merged.Dims, seed)
	if !e.led.op(err) {
		return err
	}
	absorb := opts
	absorb.Init, absorb.Solver, absorb.MaxIters = warm, sketch.ARLS, sketch.AbsorbMaxIters
	var report *core.Report
	if d, err = p.time("sketch.absorb", 1, nil, func() (err error) {
		_, report, err = core.CPD(merged, absorb)
		return err
	}); err != nil {
		return err
	}
	e.layer("sketch.absorb_ms", ms(d), "ms")
	e.layer("sketch.absorb_iters", float64(report.Iterations), "count")
	e.layer("sketch.sampled_iters", float64(report.SampledIters), "count")

	// model: building the serving layout and the three query kernels.
	kt := in.served
	if kt == nil {
		kt = trained
	}
	var mdl *model.Model
	if d, err = p.time("model.build", probeReps, nil, func() (err error) {
		mdl, err = model.Build(kt)
		return err
	}); err != nil {
		return err
	}
	e.layer("model.build_ms", ms(d), "ms")
	q, err := directQueries(p, mdl, rng)
	if err != nil {
		return err
	}
	e.layer("model.topk_us", us(q.topK), "us")
	e.layer("model.similar_us", us(q.similar), "us")
	e.layer("model.at_us", us(q.at), "us")

	return probeService(p, rest, batch, in.format, rank, rng)
}

// phaseSeconds reads a profiler's per-phase seconds so far.
func phaseSeconds(p *obs.Profiler) map[string]float64 {
	out := make(map[string]float64)
	for _, ph := range p.Profile().Phases {
		out[ph.Phase] = ph.Seconds
	}
	return out
}

// queryTimes are the median latencies of the three model query kernels.
type queryTimes struct{ topK, similar, at time.Duration }

// directQueries times probeQueries calls of each query kernel on random
// coordinates, with one reused workspace.
func directQueries(p *prober, m *model.Model, rng *rand.Rand) (queryTimes, error) {
	ws := model.NewWorkspace()
	dims := m.Dims()
	coord := make([]int, len(dims))
	draw := func() {
		for i, d := range dims {
			coord[i] = rng.Intn(d)
		}
	}
	var q queryTimes
	var err error
	if q.topK, err = p.time("model.topk", probeQueries, draw, func() error {
		_, err := m.TopK(ws, 0, coord, topK, nil)
		return err
	}); err != nil {
		return q, err
	}
	if q.similar, err = p.time("model.similar", probeQueries, draw, func() error {
		_, err := m.Similar(ws, 1, coord[1], topK, nil)
		return err
	}); err != nil {
		return q, err
	}
	q.at, err = p.time("model.at", probeQueries, draw, func() error {
		_, err := m.At(ws, coord)
		return err
	})
	return q, err
}

// probeService walks the service path once on the probe tensor: upload,
// a short cold job, an append, a warm-started job and its first query,
// then a run of top-K reads to price the HTTP layer.
func probeService(p *prober, rest, batch *sptensor.Tensor, f format.Spec, rank int, rng *rand.Rand) error {
	e := p.e
	svc := startService(e.cfg.rt)
	defer svc.close()
	restTNS, batchTNS := encodeTNS(rest), encodeTNS(batch)

	var up serve.IngestResult
	d, err := p.time("serve.upload", 1, nil, func() (err error) {
		up, err = svc.c.upload(restTNS)
		return err
	})
	if err != nil {
		return err
	}
	e.layer("serve.upload_ms", ms(d), "ms")
	if _, err := runJob(e, svc, serve.JobSpec{TensorID: up.ID, Rank: rank, MaxIters: probeJobIters,
		Tasks: e.cfg.tasks, Format: f.String(), Seed: e.cfg.seed, Publish: true}); err != nil {
		return err
	}
	var app serve.AppendResult
	if d, err = p.time("serve.append", 1, nil, func() (err error) {
		app, err = svc.c.appendBatch(up.ID, batchTNS)
		return err
	}); err != nil {
		return err
	}
	e.layer("serve.append_ms", ms(d), "ms")

	done, err := runJob(e, svc, serve.JobSpec{TensorID: app.ID, WarmStart: "auto", Publish: true,
		Tasks: e.cfg.tasks, Format: f.String(), Seed: e.cfg.seed})
	if err != nil {
		return err
	}
	_, err = svc.c.topK(done.Result.ModelID, 0, randomCoord(rng, app.Dims), topK)
	if !e.led.op(err) {
		return err
	}
	e.layer("serve.publish_to_query_ms", ms(time.Since(*done.Finished)), "ms")
	queue, engine := done.Started.Sub(done.Submitted), done.Finished.Sub(*done.Started)
	e.tr.interval("serve.queue", p.root, laneServer, done.Submitted, *done.Started)
	e.tr.interval("serve.engine", p.root, laneServer, *done.Started, *done.Finished)
	e.layer("serve.queue_wait_ms", ms(queue), "ms")
	e.layer("serve.engine_ms", ms(engine), "ms")
	prof, err := svc.c.profile(done.ID)
	if !e.led.op(err) {
		return err
	}
	// The engine time the job's profile leaves to no top-level phase: the
	// backend rebuild and the sampler set-up, untimed inside the service.
	top := 0.0
	for _, ph := range prof.Profile.Phases {
		switch ph.Phase {
		case "iteration", "refine", "warm_start":
			top += ph.Seconds
		}
	}
	e.layer("serve.unattributed_ms", ms(engine)-1e3*top, "ms")

	// HTTP overhead of a read: a top-K over HTTP minus the same kernel on a
	// local model of the same shape.
	local, err := model.Build(core.NewRandomKruskal(app.Dims, rank, e.cfg.seed))
	if !e.led.op(err) {
		return err
	}
	direct, err := directQueries(p, local, rng)
	if err != nil {
		return err
	}
	coord := randomCoord(rng, app.Dims)
	overHTTP, err := p.time("serve.topk", probeQueries, func() { coord = randomCoord(rng, app.Dims) }, func() error {
		_, err := svc.c.topK(done.Result.ModelID, 0, coord, topK)
		return err
	})
	if err != nil {
		return err
	}
	e.layer("serve.http_overhead_us", us(overHTTP-direct.topK), "us")
	return nil
}
