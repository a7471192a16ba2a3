// Command splatt-verify cross-checks every MTTKRP kernel configuration —
// access modes × conflict strategies × lock kinds × CSF allocation
// policies × task counts — against the naive coordinate-form MTTKRP on
// random tensors, and validates full CPD runs across implementation
// profiles. It is the repository's end-to-end correctness gate.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("splatt-verify: ")

	var (
		seed   = flag.Int64("seed", 1, "random tensor seed")
		rank   = flag.Int("rank", 9, "decomposition rank")
		trials = flag.Int("trials", 3, "random tensors per configuration")
	)
	flag.Parse()

	failures := 0
	failures += verifyKernels(*seed, *rank, *trials)
	failures += verifyProfiles(*seed + 1000)
	failures += verifyArbitraryOrder(*seed + 2000)

	if failures > 0 {
		fmt.Printf("\nFAIL: %d configuration(s) deviated\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nPASS: all configurations match the coordinate-form reference")
}

// verifyKernels sweeps the kernel configuration space on 3rd-order tensors.
func verifyKernels(seed int64, rank, trials int) int {
	fmt.Println("== MTTKRP kernel matrix (3rd order) ==")
	accesses := []mttkrp.AccessMode{
		mttkrp.AccessReference, mttkrp.AccessPointer, mttkrp.AccessIndex2D, mttkrp.AccessSlice,
	}
	strategies := []mttkrp.ConflictStrategy{
		mttkrp.StrategyAuto, mttkrp.StrategyNone, mttkrp.StrategyLock,
		mttkrp.StrategyPrivatize, mttkrp.StrategyTile,
	}
	kinds := []locks.Kind{locks.Spin, locks.Sync, locks.FIFO}
	allocs := []csf.AllocPolicy{csf.AllocOne, csf.AllocTwo, csf.AllocAll}

	failures := 0
	for trial := 0; trial < trials; trial++ {
		t := sptensor.Random([]int{60, 45, 80}, 4000, seed+int64(trial))
		factors := randomFactors(t.Dims, rank, seed+int64(trial)+500)
		for _, alloc := range allocs {
			for _, access := range accesses {
				for _, strategy := range strategies {
					for _, kind := range kinds {
						for _, tasks := range []int{1, 2, 4} {
							opts := mttkrp.Options{
								Access: access, Strategy: strategy, LockKind: kind,
							}
							if !verifyOne(t, factors, rank, tasks, alloc, opts) {
								fmt.Printf("  FAIL access=%v strategy=%v locks=%v alloc=%v tasks=%d\n",
									access, strategy, kind, alloc, tasks)
								failures++
							}
						}
					}
				}
			}
		}
	}
	fmt.Printf("  kernel matrix verified over %d trials\n", trials)
	return failures
}

// verifyOne compares an operator configuration to COO on every mode.
func verifyOne(t *sptensor.Tensor, factors []*dense.Matrix, rank, tasks int,
	alloc csf.AllocPolicy, opts mttkrp.Options) bool {

	team := parallel.NewTeam(tasks)
	defer team.Close()
	set := csf.NewSet(t, alloc, team, tsort.AllOpt)
	op := mttkrp.NewOperator(set, team, rank, opts)
	for mode := 0; mode < t.NModes(); mode++ {
		want := dense.NewMatrix(t.Dims[mode], rank)
		mttkrp.COO(t, factors, mode, want)
		got := dense.NewMatrix(t.Dims[mode], rank)
		op.Apply(mode, factors, got)
		if got.MaxAbsDiff(want) > 1e-9 {
			return false
		}
	}
	return true
}

// verifyProfiles checks that full CPD runs agree across profiles.
func verifyProfiles(seed int64) int {
	fmt.Println("== CPD profile agreement ==")
	t := sptensor.Random([]int{40, 30, 35}, 3000, seed)
	opts := core.DefaultOptions()
	opts.Rank = 6
	opts.MaxIters = 8
	opts.Tasks = 4

	failures := 0
	var ref *core.KruskalTensor
	for _, p := range core.Profiles {
		o := opts
		o.ApplyProfile(p)
		k, report, err := core.CPD(t, o)
		if err != nil {
			log.Fatalf("profile %v: %v", p, err)
		}
		fmt.Printf("  %-16v fit=%.6f iters=%d\n", p, report.Fit, report.Iterations)
		if ref == nil {
			ref = k
			continue
		}
		for m := range ref.Factors {
			if d := ref.Factors[m].MaxAbsDiff(k.Factors[m]); d > 1e-6 {
				fmt.Printf("  FAIL profile %v factor %d deviates by %g\n", p, m, d)
				failures++
			}
		}
	}
	return failures
}

// verifyArbitraryOrder exercises the generic N-mode path.
func verifyArbitraryOrder(seed int64) int {
	fmt.Println("== arbitrary-order kernels ==")
	failures := 0
	for _, dims := range [][]int{{15, 12}, {10, 8, 9, 7}, {6, 5, 7, 4, 5}} {
		t := sptensor.Random(dims, 600, seed)
		factors := randomFactors(dims, 5, seed+1)
		opts := mttkrp.DefaultOptions()
		if !verifyOne(t, factors, 5, 3, csf.AllocTwo, opts) {
			fmt.Printf("  FAIL order %d\n", len(dims))
			failures++
		} else {
			fmt.Printf("  order %d ok\n", len(dims))
		}
	}
	return failures
}

func randomFactors(dims []int, rank int, seed int64) []*dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	factors := make([]*dense.Matrix, len(dims))
	for m, d := range dims {
		factors[m] = dense.NewRandomMatrix(d, rank, rng)
	}
	return factors
}
