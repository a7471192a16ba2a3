package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/format"
	"repro/internal/serve"
)

const (
	// streamScale sizes the YELP twin of the streaming workload (~0.5M
	// nonzeros, 2562×687×4687).
	streamScale = 1.0 / 16
	streamRank  = 16
	// The base upload holds streamKeep of the twin's nonzeros; the rest is
	// held out as streamBatches appends of 0.5% each.
	streamKeep    = 0.88
	streamBatches = 24
	// topK is the K of every top-K query.
	topK = 10
	// warmFitTol bounds how far the last warm model's fit may fall from a
	// cold solve of the same revision.
	warmFitTol = 1e-2
)

// runStream drives the service the way a user of an evolving tensor does:
// upload, a cold ALTO job that publishes a model, then cycles of PATCH a
// held-out batch → warm-started job that publishes → one top-K on the new
// model. Each cycle, from PATCH sent to top-K answered, is a latency
// sample; set-up is service start, upload and cold job. The 24 cycles take
// about the default measured seconds on a 2-core host.
func runStream(e *env) (probeInput, error) {
	scale := streamScale
	if e.cfg.quick {
		scale /= quickShrink
	}
	t := twin("yelp", scale, e.cfg.seed)
	rng := rand.New(rand.NewSource(e.cfg.seed))
	base, batches := splitHeldOut(t, streamKeep, streamBatches, rng)
	baseTNS := encodeTNS(base)
	batchTNS := make([][]byte, len(batches))
	for i, b := range batches {
		batchTNS[i] = encodeTNS(b)
	}
	alto := format.ALTO.String()
	coldSpec := func(id string) serve.JobSpec {
		return serve.JobSpec{TensorID: id, Rank: streamRank, MaxIters: cpdIters, Tasks: e.cfg.tasks,
			Format: alto, Seed: e.cfg.seed, Publish: true}
	}

	var svc *service
	var up serve.IngestResult
	var setups []float64
	for i := 0; i < minReps; i++ {
		if svc != nil {
			svc.close()
		}
		runtime.GC()
		e.ref.sample(refPerPause)
		t0 := time.Now()
		svc = startService(e.cfg.rt)
		var err error
		if up, err = svc.c.upload(baseTNS); !e.led.op(err) {
			svc.close()
			return probeInput{}, err
		}
		if _, err = runJob(e, svc, coldSpec(up.ID)); err != nil {
			svc.close()
			return probeInput{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.close()

	// The workload always runs all streamBatches cycles, whatever the
	// measured seconds: every finished job the service keeps pins its
	// revision, so peak memory grows with each cycle, and a cycle count
	// set by the host's speed would make it vary with that speed.
	var cycles, tracedCycles, appends, queues, engines []float64
	var last serve.JobStatus
	cur, wantNNZ, badNNZ, cold := up.ID, up.NNZ, 0, 0
	for c := range batches {
		// Appends arrive with idle time between them, in which the service
		// collects the previous cycle's garbage; the reference loop runs
		// in that idle time.
		runtime.GC()
		e.ref.sample(refPerPause)
		tr := e.traceEvery(c)
		root := tr.root("bench.cycle", int64(c), 0)
		t0 := time.Now()
		sp := tr.child("serve.append", root)
		app, err := svc.c.appendBatch(cur, batchTNS[c])
		tr.end(sp)
		if !e.led.op(err) {
			return probeInput{}, err
		}
		appends = append(appends, ms(time.Since(t0)))
		wantNNZ += batches[c].NNZ()
		if app.NNZ != wantNNZ || app.MergedDuplicates != 0 {
			badNNZ++
		}
		sp = tr.child("serve.submit", root)
		st, err := svc.c.submit(serve.JobSpec{TensorID: app.ID, WarmStart: "auto", Publish: true,
			Format: alto, Tasks: e.cfg.tasks, Seed: e.cfg.seed})
		tr.end(sp)
		if !e.led.op(err) {
			return probeInput{}, err
		}
		done, err := svc.c.wait(&e.led, st.ID)
		if err != nil {
			return probeInput{}, err
		}
		tr.interval("serve.queue", root, laneServer, done.Submitted, *done.Started)
		tr.interval("serve.engine", root, laneServer, *done.Started, *done.Finished)
		sp = tr.child("serve.topk", root)
		ans, err := svc.c.topK(done.Result.ModelID, 0, randomCoord(rng, app.Dims), topK)
		tr.end(sp)
		if err == nil && (ans.ModelID != done.Result.ModelID || len(ans.Items) != topK) {
			err = fmt.Errorf("top-K on model %s answered model %s with %d items", done.Result.ModelID, ans.ModelID, len(ans.Items))
		}
		if !e.led.op(err) {
			return probeInput{}, err
		}
		cycleDur := time.Since(t0)
		tr.end(root)
		if tr != nil {
			tracedCycles = append(tracedCycles, ms(cycleDur))
		} else {
			cycles = append(cycles, ms(cycleDur))
		}
		queues = append(queues, ms(done.Started.Sub(done.Submitted)))
		engines = append(engines, ms(done.Finished.Sub(*done.Started)))
		if !done.Result.WarmStart {
			cold++
		}
		cur, last = app.ID, done
	}
	if len(cycles) == 0 {
		e.led.op(errNoSamples)
		return probeInput{}, errNoSamples
	}
	e.peakRSS()
	n := len(cycles) + len(tracedCycles)
	e.led.gate("revision-nnz", badNNZ == 0,
		"%d of %d revisions differ from base + appended nonzeros (final %d)", badNNZ, n, wantNNZ)
	e.led.gate("warm-started", cold == 0, "%d of %d cycle jobs were not warm-started", cold, n)

	// The last warm model should fit about as well as a cold solve of the
	// same revision.
	ref, err := runJob(e, svc, coldSpec(cur))
	if err != nil {
		return probeInput{}, err
	}
	gap := math.Abs(last.Result.Fit - ref.Result.Fit)
	e.led.gate("warm-fit-vs-cold", gap <= warmFitTol,
		"last warm fit %.6f, cold fit %.6f on the same revision", last.Result.Fit, ref.Result.Fit)

	refScale := e.ref.scale()
	e.setup(setups, refScale)
	e.latency(cycles, scaleAll(cycles, refScale))
	e.detail("ops_per_s", 1000*float64(len(cycles))/sum(cycles), "1/s")
	e.detail("fit", last.Result.Fit, "1")
	e.detail("cold_fit", ref.Result.Fit, "1")
	e.detail("cycles", float64(n), "count")
	e.detail("append_ms", median(appends), "ms")
	e.detail("queue_wait_ms", median(queues), "ms")
	e.detail("engine_ms", median(engines), "ms")
	e.detail("absorb_iters", float64(last.Result.Iterations), "count")
	e.detail("sampled_iters", float64(last.Result.SampledIters), "count")
	e.traceOverhead(tracedCycles, cycles)
	return probeInput{t: t, format: format.ALTO, rank: streamRank}, nil
}

// runJob submits a job and waits for it to finish.
func runJob(e *env, svc *service, spec serve.JobSpec) (serve.JobStatus, error) {
	st, err := svc.c.submit(spec)
	if !e.led.op(err) {
		return st, err
	}
	return svc.c.wait(&e.led, st.ID)
}

// randomCoord draws a coordinate inside dims.
func randomCoord(rng *rand.Rand, dims []int) []int {
	c := make([]int, len(dims))
	for m, d := range dims {
		c[m] = rng.Intn(d)
	}
	return c
}
