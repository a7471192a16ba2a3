package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sketch"
	"repro/internal/sptensor"
)

// AblationSolvers compares the exact and sampled (CP-ARLS-LEV) solvers on
// the pluggable-solver axis: per-iteration MTTKRP cost (the exact kernel
// streams every nonzero, the sampled kernel touches only the sampled
// fibers) and final fit after the sampled run's exact refinement pass.
// Both solvers run to the same convergence tolerance, the honest
// comparison for a randomized method: the sampled phase advances on cheap
// noisy steps, then exact refinement polishes to the same asymptote.
func (r *Runner) AblationSolvers() {
	r.header("Ablation solvers", "exact ALS vs leverage-score sampled ARLS (CP-ARLS-LEV direction)")
	tasks := r.maxTasks()
	iters := 3 * r.cfg.Iters // convergence budget: generous, tolerance-stopped
	refine := 2 * r.cfg.Iters
	const tol = 1e-4

	tbl := newTable("tolerance-converged CP-ALS at "+humanInt(tasks)+" tasks (tol 1e-4)",
		"Dataset", "exact fit", "arls fit", "Δfit", "exact MTTKRP/it", "sampled/it", "speedup", "sampled its")
	for _, ds := range []string{"yelp", "nell-2"} {
		t := r.dataset(ds)

		exOpts := r.options()
		exOpts.Solver = sketch.ALS
		exOpts.MaxIters = iters
		exOpts.Tolerance = tol
		exTimes, exRep := r.runTolCPD(t, tasks, exOpts)

		arOpts := r.options()
		arOpts.Solver = sketch.ARLS
		arOpts.MaxIters = iters
		arOpts.RefineIters = refine
		arOpts.Tolerance = tol
		arTimes, arRep := r.runTolCPD(t, tasks, arOpts)

		exIter := exTimes[perf.RoutineMTTKRP] / float64(exRep.Iterations)
		skIter := 0.0
		if arRep.SampledIters > 0 {
			skIter = arTimes[perf.RoutineSketch] / float64(arRep.SampledIters)
		}
		speed := "n/a"
		if skIter > 0 {
			speed = ratio(exIter / skIter)
		}
		tbl.addRow(datasetName(ds),
			fmt.Sprintf("%.4f", exRep.Fit), fmt.Sprintf("%.4f", arRep.Fit),
			fmt.Sprintf("%+.1e", arRep.Fit-exRep.Fit),
			secs(exIter), secs(skIter), speed, humanInt(arRep.SampledIters))
	}
	tbl.note("arls samples Khatri-Rao rows by leverage score (seeded, deterministic),")
	tbl.note("solves the sampled normal equations, then refines with exact ALS;")
	tbl.note("expected: sampled per-iteration MTTKRP well below exact, fit parity ~1e-3")
	tbl.render(r.out)

	// Overhead breakdown: where the sampled solver spends its time beyond
	// the kernel itself (leverage maintenance, fiber-index build).
	yelp := r.dataset("yelp")
	obl := newTable("ARLS cost breakdown (YELP twin, seconds over the whole run)",
		"Routine", "seconds")
	arOpts := r.options()
	arOpts.Solver = sketch.ARLS
	arOpts.MaxIters = iters
	arOpts.RefineIters = refine
	arOpts.Tolerance = tol
	times, _ := r.runTolCPD(yelp, tasks, arOpts)
	for _, routine := range []string{perf.RoutineSketch, perf.RoutineLeverage,
		perf.RoutineSketchBuild, perf.RoutineMTTKRP, perf.RoutineInverse, perf.RoutineFit} {
		obl.addRow(routine, secs(times[routine]))
	}
	obl.note("MTTKRP here is the refinement pass's exact kernel; LEVERAGE is the")
	obl.note("per-update score maintenance that amortizes only when nnz ≫ Σ dims·R")
	obl.render(r.out)
}

// runTolCPD is runCPD without the fixed-iteration override: tolerance and
// iteration budget come from the options (the solver ablation compares
// converged runs, not fixed-budget ones).
func (r *Runner) runTolCPD(t *sptensor.Tensor, tasks int, opts core.Options) (map[string]float64, *core.Report) {
	opts.Rank = r.cfg.Rank
	opts.Tasks = tasks
	opts.Spans = r.spans
	_, report, err := core.CPD(t, opts)
	if err != nil {
		panic(err)
	}
	return report.Times, report
}
