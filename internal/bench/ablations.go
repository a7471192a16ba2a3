package bench

import (
	"runtime"
	"time"

	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/dist"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/perf"
)

// AblationBLAS reproduces the §V-E interference study: running the inverse
// routine on an independent BLAS thread pool (the OpenBLAS/OpenMP
// analogue) degrades both the inverse itself and the Chapel-side routine
// that follows it (matrix normalization), especially with long post-call
// spin-waiting (the QT_SPINCOUNT effect).
func (r *Runner) AblationBLAS() {
	r.header("Ablation §V-E", "BLAS pool threads / spin-wait vs. inverse + norm runtime, YELP twin")
	t := r.dataset("yelp")
	tasks := r.maxTasks()
	if n := runtime.NumCPU(); tasks > n {
		tasks = n
	}
	tbl := newTable("per-routine seconds (CP-ALS at team size "+humanInt(tasks)+")",
		"BLAS threads", "Spin", "INVERSE", "MAT NORM", "MTTKRP")
	for _, blas := range []struct {
		threads, spin int
	}{
		{1, 0},
		{2, 0}, {2, 300000},
		{4, 0}, {4, 300000},
		{8, 300000},
	} {
		opts := r.options()
		opts.BLASThreads = blas.threads
		opts.BLASSpin = blas.spin
		times, _ := r.runCPD(t, tasks, opts)
		tbl.addRow(humanInt(blas.threads), humanInt(blas.spin),
			secs(times[perf.RoutineInverse]), secs(times[perf.RoutineNorm]),
			secs(times[perf.RoutineMTTKRP]))
	}
	tbl.note("paper shape: more OpenMP threads + long spin-wait made the inverse")
	tbl.note("up to 15x slower and the following normalization 7-13x slower;")
	tbl.note("the paper's final configuration pins BLAS threads to 1")
	tbl.render(r.out)
}

// AblationLockDecision ablates the lock-vs-privatize rule (mttkrp.Decide;
// the `abllock` experiment in EXPERIMENTS.md): force both strategies on
// both twins and compare with the automatic decision.
func (r *Runner) AblationLockDecision() {
	r.header("Ablation lock-vs-privatize", "forced conflict strategies vs. the automatic rule")
	tasks := r.maxTasks()
	tbl := newTable("MTTKRP seconds at "+humanInt(tasks)+" tasks",
		"Dataset", "auto", "auto chose", "force lock", "force privatize")
	for _, ds := range []string{"yelp", "nell-2"} {
		t := r.dataset(ds)
		row := []string{datasetName(ds)}
		var chose string
		for _, strat := range []mttkrp.ConflictStrategy{mttkrp.StrategyAuto, mttkrp.StrategyLock, mttkrp.StrategyPrivatize} {
			opts := r.options()
			opts.Strategy = strat
			s := r.timeMTTKRP(t, tasks, opts)
			row = append(row, secs(s))
			if strat == mttkrp.StrategyAuto {
				runner := mustRunner(t, r.cfg.Rank, tasks, opts)
				chose = "privatize"
				for m := 0; m < t.NModes(); m++ {
					if runner.StrategyFor(m) == mttkrp.StrategyLock {
						chose = "lock"
					}
				}
				runner.Close()
				row = append(row, chose)
			}
		}
		tbl.addRow(row...)
	}
	tbl.note("expected: auto matches the better forced strategy per dataset;")
	tbl.note("YELP flips to locks at high task counts, NELL-2 never does (§V-D)")
	tbl.render(r.out)
}

// AblationCSFAlloc ablates the CSF allocation policy (the `ablcsf`
// experiment in EXPERIMENTS.md; README, "Tensor formats"): one/two/all-mode
// representations trade memory for conflict-free kernels.
func (r *Runner) AblationCSFAlloc() {
	r.header("Ablation CSF allocation", "one vs two vs all-mode CSF representations")
	tasks := r.maxTasks()
	tbl := newTable("YELP twin at "+humanInt(tasks)+" tasks",
		"Policy", "MTTKRP s", "CSF memory", "conflict-free modes")
	t := r.dataset("yelp")
	for _, policy := range []csf.AllocPolicy{csf.AllocOne, csf.AllocTwo, csf.AllocAll} {
		opts := r.options()
		opts.Alloc = policy
		s := r.timeMTTKRP(t, tasks, opts)

		runner := mustRunner(t, r.cfg.Rank, tasks, opts)
		free := 0
		for m := 0; m < t.NModes(); m++ {
			if runner.StrategyFor(m) == mttkrp.StrategyNone {
				free++
			}
		}
		mem := runner.MemoryBytes()
		runner.Close()

		tbl.addRow(policy.String(), secs(s),
			secs(float64(mem)/(1<<20))+" MiB", humanInt(free))
	}
	tbl.note("expected: all-mode removes every conflict at ~Nx the memory;")
	tbl.note("two-mode (SPLATT default) frees the two extreme modes")
	tbl.render(r.out)
}

// AblationTiling exercises the extension the paper's port omitted
// (§V-A / §VII future work): tile-phased lock-free scheduling vs. the
// lock pool and privatization on the lock-requiring twin.
func (r *Runner) AblationTiling() {
	r.header("Ablation tiling", "tile-phased scheduling vs locks vs privatization (paper's omitted feature)")
	tbl := newTable("MTTKRP seconds on the conflicted YELP twin",
		"Tasks", "lock (atomic)", "privatize", "tile", "best")
	t := r.dataset("yelp")
	for _, tasks := range r.cfg.Tasks {
		if tasks == 1 {
			continue // all strategies degenerate to direct writes
		}
		row := []string{humanInt(tasks) + oversubscribed(tasks)}
		vals := map[string]float64{}
		for _, strat := range []mttkrp.ConflictStrategy{mttkrp.StrategyLock, mttkrp.StrategyPrivatize, mttkrp.StrategyTile} {
			opts := r.options()
			opts.Strategy = strat
			s := r.timeMTTKRP(t, tasks, opts)
			row = append(row, secs(s))
			vals[strat.String()] = s
		}
		best, bestS := "", 0.0
		for k, v := range vals {
			if best == "" || v < bestS {
				best, bestS = k, v
			}
		}
		row = append(row, best)
		tbl.addRow(row...)
	}
	tbl.note("tiling trades locks for T barriers per MTTKRP plus per-tile")
	tbl.note("fiber-product recompute; it wins when lock contention dominates")
	tbl.render(r.out)
}

// AblationDistributed exercises the multi-locale future-work extension:
// coarse-grained distributed CP-ALS over simulated locales, reporting the
// distributed MTTKRP critical path and the communication volume the
// collectives move.
func (r *Runner) AblationDistributed() {
	r.header("Ablation distributed", "simulated multi-locale CP-ALS (paper §VII future work)")
	tbl := newTable("NELL-2 twin, full CP-ALS",
		"Locales", "Fit", "MTTKRP path s", "Comm MiB", "max/min shard nnz")
	t := r.dataset("nell-2")
	for _, locales := range []int{1, 2, 4, 8} {
		opts := dist.DefaultOptions()
		opts.Locales = locales
		opts.Rank = r.cfg.Rank
		opts.MaxIters = r.cfg.Iters
		_, report, err := dist.CPD(t, opts)
		if err != nil {
			panic(err)
		}
		minNNZ, maxNNZ := report.ShardNNZ[0], report.ShardNNZ[0]
		for _, n := range report.ShardNNZ {
			if n < minNNZ {
				minNNZ = n
			}
			if n > maxNNZ {
				maxNNZ = n
			}
		}
		balance := "inf"
		if minNNZ > 0 {
			balance = ratio(float64(maxNNZ) / float64(minNNZ))
		}
		tbl.addRow(humanInt(locales)+oversubscribed(locales),
			secs(report.Fit), secs(report.MTTKRPSeconds),
			secs(float64(report.CommBytes)/(1<<20)), balance)
	}
	tbl.note("expected shape: MTTKRP critical path shrinks with locales while")
	tbl.note("comm volume grows linearly (one factor-matrix allreduce per mode")
	tbl.note("per iteration); fit identical to shared memory at every width")
	tbl.render(r.out)
}

// AblationCOOBaseline compares CSF MTTKRP against the raw coordinate-form
// parallel baseline — quantifying what the CSF structure buys.
func (r *Runner) AblationCOOBaseline() {
	r.header("Ablation CSF vs COO", "CSF kernels vs coordinate-form MTTKRP baseline")
	tasks := r.maxTasks()
	tbl := newTable("MTTKRP seconds for "+humanInt(r.cfg.Iters)+" iterations at "+humanInt(tasks)+" tasks",
		"Dataset", "CSF (reference)", "COO + locks", "CSF speedup")
	for _, ds := range []string{"yelp", "nell-2"} {
		t := r.dataset(ds)
		csfS := r.timeMTTKRP(t, tasks, r.options())

		// Time the COO baseline over the same invocation schedule.
		factors := benchFactors(t, r.cfg.Rank)
		team := parallel.NewTeam(tasks)
		pool := locks.NewPool(locks.Spin, 0)
		outs := make([]*dense.Matrix, t.NModes())
		for m := range outs {
			outs[m] = dense.NewMatrix(t.Dims[m], r.cfg.Rank)
		}
		start := time.Now()
		for it := 0; it < r.cfg.Iters; it++ {
			for m := 0; m < t.NModes(); m++ {
				mttkrp.COOParallel(t, factors, m, outs[m], team, pool)
			}
		}
		cooS := time.Since(start).Seconds()
		team.Close()

		tbl.addRow(datasetName(ds), secs(csfS), secs(cooS), ratio(perf.Speedup(cooS, csfS)))
	}
	tbl.note("CSF reuses fiber partial products and avoids per-nonzero locking;")
	tbl.note("COO recomputes the full Hadamard product per nonzero")
	tbl.render(r.out)
}
