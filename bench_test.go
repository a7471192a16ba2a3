// Benchmarks regenerating every table and figure of the paper's evaluation
// as testing.B targets (one Benchmark per artifact, configurations as
// sub-benchmarks). These run at a reduced twin scale so `go test -bench=.`
// finishes on a laptop; cmd/splatt-bench produces the full paper-style
// reports with side-by-side paper values.
//
// Mapping (see EXPERIMENTS.md, "Experiment ids"):
//
//	BenchmarkTable1  dataset twin generation + statistics
//	BenchmarkTable3  full CP-ALS per profile (C vs Chapel-initial)
//	BenchmarkFig1    sorting optimization variants
//	BenchmarkFig2/3  MTTKRP access modes (YELP / NELL-2)
//	BenchmarkFig4    mutex pool kinds on the lock-requiring twin
//	BenchmarkFig5-8  per-routine CP-ALS, reference vs optimized port
//	BenchmarkFig9/10 MTTKRP scaling across the three codes
//	BenchmarkAblation* design-choice ablations (EXPERIMENTS.md, "Experiment ids")
package splatt_test

import (
	"fmt"
	"sync"
	"testing"

	splatt "repro"
	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/dist"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// benchScale keeps bench tensors laptop-sized (YELP twin ≈ 31k nnz,
// NELL-2 twin ≈ 300k nnz) while preserving the scale-invariant nnz/slice
// ratios that drive the lock-vs-privatize behaviour.
const benchScale = 1.0 / 256

const benchRank = 16

var (
	benchMu    sync.Mutex
	benchCache = map[string]*sptensor.Tensor{}
)

func benchTensor(b *testing.B, name string) *sptensor.Tensor {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if t, ok := benchCache[name]; ok {
		return t
	}
	t := splatt.MustDataset(name, benchScale)
	benchCache[name] = t
	return t
}

func benchFactors(t *sptensor.Tensor, rank int) []*dense.Matrix {
	factors := make([]*dense.Matrix, t.NModes())
	for m, d := range t.Dims {
		factors[m] = dense.NewMatrix(d, rank)
		for i := range factors[m].Data {
			factors[m].Data[i] = float64(i%97) / 97
		}
	}
	return factors
}

// benchMTTKRP times one full round of MTTKRPs (every mode once).
func benchMTTKRP(b *testing.B, t *sptensor.Tensor, tasks int, opts core.Options) {
	b.Helper()
	runner, err := core.NewMTTKRPRunner(t, benchRank, tasks, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer runner.Close()
	factors := benchFactors(t, benchRank)
	outs := make([]*dense.Matrix, t.NModes())
	for m := range outs {
		outs[m] = dense.NewMatrix(t.Dims[m], benchRank)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := 0; m < t.NModes(); m++ {
			runner.Apply(m, factors, outs[m])
		}
	}
	b.SetBytes(int64(t.NNZ()) * int64(t.NModes()) * 8)
}

// benchCPD times a short full CP-ALS run.
func benchCPD(b *testing.B, t *sptensor.Tensor, tasks int, p core.Profile) {
	b.Helper()
	opts := core.DefaultOptions()
	opts.ApplyProfile(p)
	opts.Rank = benchRank
	opts.MaxIters = 3
	opts.Tasks = tasks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.CPD(t, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I: twin generation + statistics.
func BenchmarkTable1_DatasetProperties(b *testing.B) {
	for _, key := range sptensor.DatasetOrder {
		spec := sptensor.Datasets[key]
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := spec.Generate(benchScale / 4)
				_ = sptensor.ComputeStats(spec.Name, t)
			}
		})
	}
}

// BenchmarkTable3 regenerates Table III: full CP-ALS, reference vs initial
// port, serial and parallel.
func BenchmarkTable3_InitialResults(b *testing.B) {
	for _, ds := range []string{"yelp", "nell-2"} {
		t := benchTensor(b, ds)
		for _, tasks := range []int{1, 4} {
			for _, p := range []core.Profile{core.ProfileReference, core.ProfileInitial} {
				b.Run(fmt.Sprintf("%s/tasks=%d/%v", ds, tasks, p), func(b *testing.B) {
					benchCPD(b, t, tasks, p)
				})
			}
		}
	}
}

// BenchmarkFig1 regenerates Figure 1: the sorting optimization variants.
func BenchmarkFig1_SortVariants(b *testing.B) {
	t := benchTensor(b, "nell-2")
	for _, v := range tsort.Variants {
		for _, tasks := range []int{1, 4} {
			b.Run(fmt.Sprintf("%v/tasks=%d", v, tasks), func(b *testing.B) {
				team := parallel.NewTeam(tasks)
				defer team.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					clone := t.Clone()
					b.StartTimer()
					tsort.SortForRoot(clone, 0, team, v)
				}
			})
		}
	}
}

// figAccessBench shares the Figures 2-3 access sweep.
func figAccessBench(b *testing.B, ds string) {
	t := benchTensor(b, ds)
	for _, access := range []mttkrp.AccessMode{mttkrp.AccessSlice, mttkrp.AccessIndex2D, mttkrp.AccessPointer} {
		for _, tasks := range []int{1, 4} {
			b.Run(fmt.Sprintf("%v/tasks=%d", access, tasks), func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.Access = access
				benchMTTKRP(b, t, tasks, opts)
			})
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: YELP access modes.
func BenchmarkFig2_AccessModes_YELP(b *testing.B) { figAccessBench(b, "yelp") }

// BenchmarkFig3 regenerates Figure 3: NELL-2 access modes.
func BenchmarkFig3_AccessModes_NELL2(b *testing.B) { figAccessBench(b, "nell-2") }

// BenchmarkFig4 regenerates Figure 4: mutex pool kinds on YELP (which
// requires locks beyond 2 tasks).
func BenchmarkFig4_LockKinds_YELP(b *testing.B) {
	t := benchTensor(b, "yelp")
	for _, kind := range []locks.Kind{locks.Sync, locks.Spin, locks.FIFO} {
		for _, tasks := range []int{1, 4} {
			b.Run(fmt.Sprintf("%v/tasks=%d", kind, tasks), func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.Access = mttkrp.AccessPointer
				opts.LockKind = kind
				benchMTTKRP(b, t, tasks, opts)
			})
		}
	}
}

// figPerRoutineBench shares the Figures 5-8 comparison.
func figPerRoutineBench(b *testing.B, ds string, tasks int) {
	t := benchTensor(b, ds)
	for _, p := range []core.Profile{core.ProfileReference, core.ProfileOptimized} {
		b.Run(p.String(), func(b *testing.B) {
			benchCPD(b, t, tasks, p)
		})
	}
}

// BenchmarkFig5 regenerates Figure 5: YELP per-routine, serial.
func BenchmarkFig5_PerRoutine_YELP_1task(b *testing.B) { figPerRoutineBench(b, "yelp", 1) }

// BenchmarkFig6 regenerates Figure 6: NELL-2 per-routine, serial.
func BenchmarkFig6_PerRoutine_NELL2_1task(b *testing.B) { figPerRoutineBench(b, "nell-2", 1) }

// BenchmarkFig7 regenerates Figure 7: YELP per-routine, parallel.
func BenchmarkFig7_PerRoutine_YELP_4tasks(b *testing.B) { figPerRoutineBench(b, "yelp", 4) }

// BenchmarkFig8 regenerates Figure 8: NELL-2 per-routine, parallel.
func BenchmarkFig8_PerRoutine_NELL2_4tasks(b *testing.B) { figPerRoutineBench(b, "nell-2", 4) }

// figScalingBench shares the Figures 9-10 code comparison.
func figScalingBench(b *testing.B, ds string) {
	t := benchTensor(b, ds)
	for _, p := range []core.Profile{core.ProfileReference, core.ProfileInitial, core.ProfileOptimized} {
		for _, tasks := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%v/tasks=%d", p, tasks), func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.ApplyProfile(p)
				benchMTTKRP(b, t, tasks, opts)
			})
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: YELP MTTKRP scaling across codes.
func BenchmarkFig9_MTTKRPScaling_YELP(b *testing.B) { figScalingBench(b, "yelp") }

// BenchmarkFig10 regenerates Figure 10: NELL-2 MTTKRP scaling across codes.
func BenchmarkFig10_MTTKRPScaling_NELL2(b *testing.B) { figScalingBench(b, "nell-2") }

// BenchmarkAblationBlasThreads reproduces the §V-E interference study.
func BenchmarkAblationBlasThreads(b *testing.B) {
	t := benchTensor(b, "yelp")
	for _, cfg := range []struct{ threads, spin int }{
		{1, 0}, {2, 0}, {2, 300000}, {4, 300000},
	} {
		b.Run(fmt.Sprintf("threads=%d/spin=%d", cfg.threads, cfg.spin), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Rank = benchRank
			opts.MaxIters = 3
			opts.Tasks = 2
			opts.BLASThreads = cfg.threads
			opts.BLASSpin = cfg.spin
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.CPD(t, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPrivatize ablates the lock-vs-privatize decision rule.
func BenchmarkAblationPrivatize(b *testing.B) {
	for _, ds := range []string{"yelp", "nell-2"} {
		t := benchTensor(b, ds)
		for _, strat := range []mttkrp.ConflictStrategy{mttkrp.StrategyAuto, mttkrp.StrategyLock, mttkrp.StrategyPrivatize} {
			b.Run(fmt.Sprintf("%s/%v", ds, strat), func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.Strategy = strat
				benchMTTKRP(b, t, 4, opts)
			})
		}
	}
}

// BenchmarkAblationTile compares tile-phased scheduling (the extension)
// against locks and privatization on the lock-requiring twin.
func BenchmarkAblationTile(b *testing.B) {
	t := benchTensor(b, "yelp")
	for _, strat := range []mttkrp.ConflictStrategy{mttkrp.StrategyLock, mttkrp.StrategyPrivatize, mttkrp.StrategyTile} {
		b.Run(strat.String(), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Strategy = strat
			benchMTTKRP(b, t, 4, opts)
		})
	}
}

// BenchmarkAblationCSFAlloc ablates the CSF allocation policy.
func BenchmarkAblationCSFAlloc(b *testing.B) {
	t := benchTensor(b, "yelp")
	for _, policy := range []csf.AllocPolicy{csf.AllocOne, csf.AllocTwo, csf.AllocAll} {
		b.Run(policy.String(), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Alloc = policy
			benchMTTKRP(b, t, 4, opts)
		})
	}
}

// BenchmarkAblationCOO compares CSF kernels against the coordinate-form
// parallel baseline.
func BenchmarkAblationCOO(b *testing.B) {
	for _, ds := range []string{"yelp", "nell-2"} {
		t := benchTensor(b, ds)
		factors := benchFactors(t, benchRank)
		b.Run(ds+"/csf", func(b *testing.B) {
			benchMTTKRP(b, t, 2, core.DefaultOptions())
		})
		b.Run(ds+"/coo", func(b *testing.B) {
			team := parallel.NewTeam(2)
			defer team.Close()
			pool := locks.NewPool(locks.Spin, 0)
			outs := make([]*dense.Matrix, t.NModes())
			for m := range outs {
				outs[m] = dense.NewMatrix(t.Dims[m], benchRank)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for m := 0; m < t.NModes(); m++ {
					mttkrp.COOParallel(t, factors, m, outs[m], team, pool)
				}
			}
		})
	}
}

// BenchmarkAblationFormat compares the CSF and ALTO storage backends'
// MTTKRP on the regular and hub-skewed twins.
func BenchmarkAblationFormat(b *testing.B) {
	for _, ds := range []string{"yelp", "nell-2"} {
		t := benchTensor(b, ds)
		for _, f := range []splatt.StorageFormat{splatt.FormatCSF, splatt.FormatALTO} {
			b.Run(fmt.Sprintf("%s/%v", ds, f), func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.Format = f
				benchMTTKRP(b, t, 4, opts)
			})
		}
	}
}

// BenchmarkAblationSolver compares the exact and leverage-score sampled
// (CP-ARLS-LEV) solvers on a short full CP-ALS run over the skewed twin.
func BenchmarkAblationSolver(b *testing.B) {
	t := benchTensor(b, "yelp")
	for _, solver := range []splatt.Solver{splatt.SolverALS, splatt.SolverARLS} {
		b.Run(fmt.Sprintf("solver=%v", solver), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Solver = solver
			opts.Rank = benchRank
			opts.MaxIters = 6
			opts.RefineIters = 2
			opts.Tasks = 4
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.CPD(t, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDistributed times the simulated multi-locale CP-ALS
// extension across world sizes.
func BenchmarkAblationDistributed(b *testing.B) {
	t := benchTensor(b, "nell-2")
	for _, locales := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("locales=%d", locales), func(b *testing.B) {
			opts := dist.DefaultOptions()
			opts.Locales = locales
			opts.Rank = benchRank
			opts.MaxIters = 3
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := dist.CPD(t, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubstrates covers the dense linear-algebra substrate the
// pipeline calls per iteration (syrk + normal-equation solve at paper
// shapes: 35-column factors).
func BenchmarkSubstrates(b *testing.B) {
	const rows, rank = 20000, 35
	a := dense.NewMatrix(rows, rank)
	for i := range a.Data {
		a.Data[i] = float64(i%31) / 31
	}
	gram := dense.NewMatrix(rank, rank)
	b.Run("syrk", func(b *testing.B) {
		team := parallel.NewTeam(2)
		defer team.Close()
		for i := 0; i < b.N; i++ {
			dense.Syrk(team, a, gram)
		}
	})
	b.Run("solve-normals", func(b *testing.B) {
		team := parallel.NewTeam(2)
		defer team.Close()
		dense.Syrk(team, a, gram)
		for j := 0; j < rank; j++ {
			gram.Set(j, j, gram.At(j, j)+1)
		}
		m := a.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dense.SolveNormals(team, gram, m)
		}
	})
	b.Run("pseudo-inverse", func(b *testing.B) {
		team := parallel.NewTeam(1)
		defer team.Close()
		dense.Syrk(team, a, gram)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = dense.PseudoInverse(gram, 0)
		}
	})
}
