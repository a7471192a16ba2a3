package bench

import (
	"repro/internal/alto"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/sptensor"
)

// AblationFormats compares the CSF and ALTO storage backends' MTTKRP
// across the whole synthetic tensor family (Table I twins), reporting
// kernel seconds, storage footprint, and what the auto heuristic would
// pick for each tensor. This is the headline number of the pluggable-
// format axis: one linearized representation vs. the multi-CSF set.
func (r *Runner) AblationFormats() {
	r.header("Ablation formats", "CSF vs ALTO storage backends (arXiv:2403.06348 direction)")
	tasks := r.maxTasks()
	tbl := newTable("MTTKRP seconds for "+humanInt(r.cfg.Iters)+" iterations at "+humanInt(tasks)+" tasks",
		"Dataset", "CSF s", "ALTO s", "CSF/ALTO", "CSF MiB", "ALTO MiB", "auto picks")
	for _, ds := range sptensor.DatasetOrder {
		t := r.dataset(ds)
		times := map[format.Spec]float64{}
		mems := map[format.Spec]int64{}
		for _, spec := range []format.Spec{format.CSF, format.ALTO} {
			// Pin the format per run; the sweep must not inherit the
			// Config-level default.
			opts := core.DefaultOptions()
			opts.Format = spec
			runner := mustRunner(t, r.cfg.Rank, tasks, opts)
			times[spec] = r.timeMTTKRPOn(runner, t)
			mems[spec] = runner.MemoryBytes()
			runner.Close()
		}
		choice, _ := format.Choose(t)
		tbl.addRow(datasetName(ds),
			secs(times[format.CSF]), secs(times[format.ALTO]),
			ratio(perf.Speedup(times[format.CSF], times[format.ALTO])),
			secs(float64(mems[format.CSF])/(1<<20)), secs(float64(mems[format.ALTO])/(1<<20)),
			choice.String())
	}
	tbl.note("ALTO stores one linearized array for all modes (vs the multi-CSF")
	tbl.note("set) and prices lock-vs-privatize by row windows and fiber runs;")
	tbl.note("CSF's tree reuse wins on regular tensors, ALTO on hub-skewed ones")
	tbl.render(r.out)

	// Conflict-strategy interaction: the window- and reuse-driven decision
	// per mode, with both sides of the rule.
	yelp := r.dataset("yelp")
	stbl := newTable("ALTO auto conflict strategy per mode (YELP twin, "+humanInt(tasks)+" tasks)",
		"Mode", "strategy", "window rows", "I_m*tasks", "runs/"+humanInt(mttkrp.PrivRatio))
	at, err := alto.FromCOO(yelp, nil)
	if err != nil {
		panic(err)
	}
	team := parallel.NewTeam(tasks)
	op := alto.NewOperator(at, team, r.cfg.Rank, mttkrp.DefaultOptions())
	for m := 0; m < yelp.NModes(); m++ {
		stbl.addRow(humanInt(m), op.StrategyFor(m).String(), humanInt(op.WindowRows(m)),
			humanInt(yelp.Dims[m]*tasks), humanInt(int(at.Runs(m))/mttkrp.PrivRatio))
	}
	team.Close()
	stbl.note("a mode privatizes when its window rows (the rows each task's key")
	stbl.note("range touches, summed) are at most runs/50, since a row flushes once")
	stbl.note("per run; I_m*tasks is what a whole-mode buffer per task would cost")
	stbl.render(r.out)
}
