// Command splatt-cpd runs CP-ALS on a sparse tensor and prints the
// SPLATT-style per-routine timing report — the workflow behind every
// timing table in the paper.
//
// Input is either a tensor file (-tensor foo.tns) or a synthetic twin of a
// Table I dataset (-dataset yelp -scale 0.015625).
//
// Example:
//
//	splatt-cpd -dataset nell-2 -scale 0.01 -rank 35 -iters 20 -tasks 4 \
//	           -profile optimized
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/alto"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/format"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sketch"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("splatt-cpd: ")

	var (
		tensorPath = flag.String("tensor", "", "path to a .tns or binary tensor file (\"-\" reads stdin)")
		dataset    = flag.String("dataset", "", "synthetic Table I twin: yelp|rate-beer|beer-advocate|nell-2|netflix")
		scale      = flag.Float64("scale", 1.0/64, "twin scale factor (1.0 = paper scale)")
		rank       = flag.Int("rank", 35, "decomposition rank R")
		iters      = flag.Int("iters", 20, "maximum ALS iterations")
		tol        = flag.Float64("tol", 0, "convergence tolerance on fit change (0 = fixed iterations)")
		tasks      = flag.Int("tasks", 1, "worker tasks (threads)")
		seed       = flag.Int64("seed", 1, "factor initialization seed")
		profile    = flag.String("profile", "c", "implementation profile: c|initial|optimized")
		access     = flag.String("access", "", "override row access: reference|pointer|2d|slice")
		lockKind   = flag.String("locks", "", "override mutex pool: atomic|sync|fifo-sync")
		sortVar    = flag.String("sort", "", "override sort variant: initial|array|slices|all")
		alloc      = flag.String("alloc", "two", "CSF allocation policy: one|two|all")
		formatStr  = flag.String("format", "csf", "tensor storage backend: csf|alto|auto")
		solverStr  = flag.String("solver", "als", "factor-update solver: als|arls|auto (arls = leverage-score sampled with exact refinement)")
		samples    = flag.Int("samples", 0, "arls Khatri-Rao rows sampled per update (0 = heuristic)")
		refine     = flag.Int("refine", 0, "arls trailing exact refinement iterations (0 = default)")
		strategy   = flag.String("strategy", "auto", "conflict strategy: auto|lock|privatize|tile")
		nonneg     = flag.Bool("nonneg", false, "project factors onto the nonnegative orthant")
		ridge      = flag.Float64("ridge", 0, "Tikhonov regularizer added to each normal system")
		blasTh     = flag.Int("blas-threads", 0, "BLAS pool threads for the inverse routine (>1 reproduces the §V-E interference)")
		blasSpin   = flag.Int("blas-spin", 0, "BLAS pool post-call spin iterations (QT_SPINCOUNT analogue)")
		phaseProf  = flag.String("phase-profile", "", "print the span-profiler per-phase table after the run: tsv|json (-profile, by contrast, selects the implementation profile)")
	)
	flag.Parse()

	if *phaseProf != "" && *phaseProf != "tsv" && *phaseProf != "json" {
		log.Fatalf("unknown -phase-profile format %q (want tsv or json)", *phaseProf)
	}

	t, name, err := loadInput(*tensorPath, *dataset, *scale)
	if err != nil {
		log.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.Rank = *rank
	opts.MaxIters = *iters
	opts.Tolerance = *tol
	opts.Tasks = *tasks
	opts.Seed = *seed
	opts.NonNegative = *nonneg
	opts.Ridge = *ridge
	opts.BLASThreads = *blasTh
	opts.BLASSpin = *blasSpin

	prof, err := core.ParseProfile(*profile)
	if err != nil {
		log.Fatal(err)
	}
	opts.ApplyProfile(prof)
	if err := applyOverrides(&opts, *access, *lockKind, *sortVar, *alloc, *strategy, *formatStr, *solverStr); err != nil {
		log.Fatal(err)
	}
	opts.Samples = *samples
	opts.RefineIters = *refine

	stats := sptensor.ComputeStats(name, t)
	fmt.Printf("Tensor: %s\n", stats.Row())
	fmt.Printf("Config: profile=%v access=%v locks=%v sort=%v alloc=%v format=%v solver=%v rank=%d iters=%d tasks=%d\n",
		prof, opts.Access, opts.LockKind, opts.SortVariant, opts.Alloc, opts.Format, opts.Solver, opts.Rank, opts.MaxIters, opts.Tasks)
	altoWalker := "tables"
	if alto.NativeExtract() {
		altoWalker = "pext"
	}
	fmt.Printf("Kernels: cpu=%s dense=%s alto=%s\n\n", cpu.Summary(), dense.KernelISA(), altoWalker)

	var spans *obs.Profiler
	if *phaseProf != "" {
		spans = obs.NewProfiler(1, 8192)
		opts.Spans = spans
	}
	k, report, err := core.CPD(t, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Converged after %d iterations, final fit %.6f\n", report.Iterations, report.Fit)
	for m, s := range report.Strategies {
		fmt.Printf("  mode %d MTTKRP conflict strategy: %v\n", m, s)
	}
	fmt.Printf("  storage format: %s, %.2f MiB\n", report.Format, float64(report.CSFBytes)/(1<<20))
	fmt.Printf("  solver: %s (%d sampled + %d exact iterations)\n\n",
		report.Solver, report.SampledIters, report.Iterations-report.SampledIters)
	fmt.Print(perf.Report(report.Times))

	if spans != nil {
		fmt.Println()
		prof := spans.Profile()
		var perr error
		if *phaseProf == "json" {
			perr = prof.WriteJSON(os.Stdout)
		} else {
			perr = prof.WriteTSV(os.Stdout)
		}
		if perr != nil {
			log.Fatalf("writing phase profile: %v", perr)
		}
	}

	if err := k.Validate(); err != nil {
		log.Fatalf("result failed validation: %v", err)
	}
}

// loadInput resolves the tensor source.
func loadInput(path, dataset string, scale float64) (*sptensor.Tensor, string, error) {
	switch {
	case path != "" && dataset != "":
		return nil, "", fmt.Errorf("use either -tensor or -dataset, not both")
	case path == "-":
		t, err := sptensor.LoadTensorReader(os.Stdin)
		return t, "stdin", err
	case path != "":
		t, err := sptensor.LoadFile(path)
		return t, path, err
	case dataset != "":
		spec, err := sptensor.LookupDataset(dataset)
		if err != nil {
			return nil, "", err
		}
		return spec.Generate(scale), spec.Name, nil
	default:
		flag.Usage()
		os.Exit(2)
		return nil, "", nil
	}
}

// applyOverrides layers individual axis flags over the profile defaults.
func applyOverrides(opts *core.Options, access, lockKind, sortVar, alloc, strategy, formatStr, solverStr string) error {
	if access != "" {
		a, err := mttkrp.ParseAccessMode(access)
		if err != nil {
			return err
		}
		opts.Access = a
	}
	if lockKind != "" {
		k, err := locks.ParseKind(lockKind)
		if err != nil {
			return err
		}
		opts.LockKind = k
	}
	if sortVar != "" {
		switch sortVar {
		case "initial":
			opts.SortVariant = tsort.Initial
		case "array", "array-opt":
			opts.SortVariant = tsort.ArrayOpt
		case "slices", "slices-opt":
			opts.SortVariant = tsort.SliceOpt
		case "all", "all-opts":
			opts.SortVariant = tsort.AllOpt
		default:
			return fmt.Errorf("unknown sort variant %q", sortVar)
		}
	}
	p, err := csf.ParseAllocPolicy(alloc)
	if err != nil {
		return err
	}
	opts.Alloc = p
	s, err := mttkrp.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	opts.Strategy = s
	f, err := format.Parse(formatStr)
	if err != nil {
		return err
	}
	opts.Format = f
	sv, err := sketch.Parse(solverStr)
	if err != nil {
		return err
	}
	opts.Solver = sv
	return nil
}
