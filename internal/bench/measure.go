package bench

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/perf"
	"repro/internal/sptensor"
)

// measure.go holds the two measurement primitives every experiment builds
// on: an isolated MTTKRP timing loop (Figures 2-4, 9-10) and a full CP-ALS
// run with per-routine times (Table III, Figures 5-8).

// mustRunner builds an MTTKRP runner, panicking on backend-build failure
// (the harness's tensors are always encodable).
func mustRunner(t *sptensor.Tensor, rank, tasks int, opts core.Options) *core.MTTKRPRunner {
	runner, err := core.NewMTTKRPRunner(t, rank, tasks, opts)
	if err != nil {
		panic(err)
	}
	return runner
}

// benchFactors builds deterministic random factor matrices for a tensor.
func benchFactors(t *sptensor.Tensor, rank int) []*dense.Matrix {
	rng := rand.New(rand.NewSource(12345))
	factors := make([]*dense.Matrix, t.NModes())
	for m, d := range t.Dims {
		factors[m] = dense.NewRandomMatrix(d, rank, rng)
	}
	return factors
}

// timeMTTKRP measures the total MTTKRP seconds for `iters` CP-ALS
// iterations' worth of kernel invocations (one per mode per iteration,
// matching the paper's "MTTKRP runtime" which accumulates over the full
// 20-iteration run). CSF construction and sorting are excluded, exactly as
// the paper's MTTKRP-only figures exclude them. The mean over cfg.Trials
// is returned.
func (r *Runner) timeMTTKRP(t *sptensor.Tensor, tasks int, opts core.Options) float64 {
	opts.Rank = r.cfg.Rank
	runner := mustRunner(t, r.cfg.Rank, tasks, opts)
	defer runner.Close()
	return r.timeMTTKRPOn(runner, t)
}

// timeMTTKRPOn is the timing core over an already-built runner, so
// callers that also need backend introspection (the formats ablation)
// construct the backend once.
func (r *Runner) timeMTTKRPOn(runner *core.MTTKRPRunner, t *sptensor.Tensor) float64 {
	factors := benchFactors(t, r.cfg.Rank)
	maxDim := 0
	for _, d := range t.Dims {
		if d > maxDim {
			maxDim = d
		}
	}
	out := dense.NewMatrix(maxDim, r.cfg.Rank)

	// Warm up (page in the CSF, JIT the team) and reset the GC so heap
	// growth from a previous configuration (the allocation-heavy Initial
	// profile inflates the GC target) cannot contaminate this one.
	for mode := 0; mode < t.NModes(); mode++ {
		sub := dense.NewMatrixFrom(t.Dims[mode], r.cfg.Rank, out.Data[:t.Dims[mode]*r.cfg.Rank])
		runner.Apply(mode, factors, sub)
	}
	runtime.GC()

	trials := make([]float64, 0, r.cfg.Trials)
	for trial := 0; trial < r.cfg.Trials; trial++ {
		start := time.Now()
		for it := 0; it < r.cfg.Iters; it++ {
			for mode := 0; mode < t.NModes(); mode++ {
				sub := dense.NewMatrixFrom(t.Dims[mode], r.cfg.Rank, out.Data[:t.Dims[mode]*r.cfg.Rank])
				runner.Apply(mode, factors, sub)
			}
		}
		trials = append(trials, time.Since(start).Seconds())
	}
	return perf.Summarize(trials).Mean
}

// runCPD executes a full CP-ALS run and returns the per-routine seconds
// (mean over cfg.Trials) plus the last run's report.
func (r *Runner) runCPD(t *sptensor.Tensor, tasks int, opts core.Options) (map[string]float64, *core.Report) {
	opts.Rank = r.cfg.Rank
	opts.MaxIters = r.cfg.Iters
	opts.Tolerance = 0 // fixed iteration count, like the paper's runs
	opts.Tasks = tasks

	sums := make(map[string]float64)
	var last *core.Report
	for trial := 0; trial < r.cfg.Trials; trial++ {
		runtime.GC() // isolate trials from prior configurations' heap growth
		opts.Spans = r.spans
		_, report, err := core.CPD(t, opts)
		if err != nil {
			panic(err)
		}
		for k, v := range report.Times {
			sums[k] += v
		}
		last = report
	}
	for k := range sums {
		sums[k] /= float64(r.cfg.Trials)
	}
	return sums, last
}

// timeSort measures the pre-processing sort (mean seconds over trials).
func (r *Runner) timeSort(t *sptensor.Tensor, tasks int, opts core.Options) float64 {
	trials := make([]float64, 0, r.cfg.Trials)
	for trial := 0; trial < r.cfg.Trials; trial++ {
		trials = append(trials, core.SortOnly(t, withTasks(opts, tasks)))
	}
	return perf.Summarize(trials).Mean
}

func withTasks(opts core.Options, tasks int) core.Options {
	opts.Tasks = tasks
	return opts
}

// options returns core.DefaultOptions with the Config-level storage-format
// default applied. Experiments build their per-run options from this, so a
// `-format` sweep default reaches every experiment while a per-experiment
// pin (the ablformat sweep sets opts.Format itself) is never overridden.
func (r *Runner) options() core.Options {
	opts := core.DefaultOptions()
	if r.cfg.Format != "" {
		opts.Format = r.cfg.formatSpec()
	}
	if r.cfg.Solver != "" {
		opts.Solver = r.cfg.solverSpec()
	}
	return opts
}

// profileOptions returns the runner's default options with a profile
// applied.
func (r *Runner) profileOptions(p core.Profile) core.Options {
	opts := r.options()
	opts.ApplyProfile(p)
	return opts
}
