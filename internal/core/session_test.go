package core

import (
	"math"
	"testing"

	"repro/internal/format"
	"repro/internal/mttkrp"
	"repro/internal/sketch"
	"repro/internal/sptensor"
)

func sessionTensor(tb testing.TB) *sptensor.Tensor {
	tb.Helper()
	spec := sptensor.Datasets["yelp"]
	return spec.Generate(1.0 / 1024)
}

// TestSessionMatchesCPD proves that stepping a Session to completion is
// bit-equivalent to one CPD call with the same options.
func TestSessionMatchesCPD(t *testing.T) {
	tensor := sessionTensor(t)
	for _, tc := range []struct {
		name   string
		format format.Spec
		solver sketch.Solver
		tasks  int
	}{
		{"csf-als-serial", format.CSF, sketch.ALS, 1},
		{"alto-als-parallel", format.ALTO, sketch.ALS, 3},
		{"csf-arls", format.CSF, sketch.ARLS, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Rank = 8
			opts.MaxIters = 6
			opts.RefineIters = 2
			opts.Tasks = tc.tasks
			opts.Format = tc.format
			opts.Solver = tc.solver

			wantK, wantR, err := CPD(tensor, opts)
			if err != nil {
				t.Fatal(err)
			}

			s, err := NewSession(tensor, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Step in uneven chunks to exercise the resumption path.
			total := s.Iterate(1)
			total += s.Iterate(3)
			total += s.Iterate(100) // clamped at MaxIters
			gotR := s.Report()

			if total != wantR.Iterations || gotR.Iterations != wantR.Iterations {
				t.Fatalf("iterations: session %d/%d vs CPD %d", total, gotR.Iterations, wantR.Iterations)
			}
			if gotR.Solver != wantR.Solver || gotR.Format != wantR.Format {
				t.Fatalf("resolved (%s,%s) vs (%s,%s)", gotR.Solver, gotR.Format, wantR.Solver, wantR.Format)
			}
			if math.Abs(gotR.Fit-wantR.Fit) > 1e-12 {
				t.Fatalf("fit: session %.15f vs CPD %.15f", gotR.Fit, wantR.Fit)
			}
			gotK := s.Model()
			for m := range wantK.Factors {
				if d := gotK.Factors[m].MaxAbsDiff(wantK.Factors[m]); d > 1e-12 {
					t.Fatalf("factor %d diverges by %g", m, d)
				}
			}
		})
	}
}

// TestSessionSteadyStateAllocationFree is the engine-level counterpart of
// the dense workspace tests: after one warm-up iteration, a full ALS
// iteration (MTTKRP, Gram, solve, normalize, fit) allocates nothing, for
// both storage backends and both solvers, and with the privatized
// conflict strategy forced.
func TestSessionSteadyStateAllocationFree(t *testing.T) {
	tensor := sessionTensor(t)
	for _, tc := range []struct {
		name     string
		format   format.Spec
		solver   sketch.Solver
		tasks    int
		strategy mttkrp.ConflictStrategy
	}{
		{"csf-als-serial", format.CSF, sketch.ALS, 1, mttkrp.StrategyAuto},
		{"csf-als-parallel", format.CSF, sketch.ALS, 4, mttkrp.StrategyAuto},
		{"alto-als-serial", format.ALTO, sketch.ALS, 1, mttkrp.StrategyAuto},
		{"alto-als-parallel", format.ALTO, sketch.ALS, 4, mttkrp.StrategyAuto},
		{"csf-arls-parallel", format.CSF, sketch.ARLS, 4, mttkrp.StrategyAuto},
		{"csf-als-privatize", format.CSF, sketch.ALS, 4, mttkrp.StrategyPrivatize},
		{"alto-als-privatize", format.ALTO, sketch.ALS, 4, mttkrp.StrategyPrivatize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Rank = 8
			opts.MaxIters = 1 << 20 // never the limiter
			opts.RefineIters = 2
			opts.Tasks = tc.tasks
			opts.Format = tc.format
			opts.Solver = tc.solver
			opts.Strategy = tc.strategy
			s, err := NewSession(tensor, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Iterate(1) // warm-up: grows arena pools, builds fiber indexes
			if n := testing.AllocsPerRun(5, func() { s.Iterate(1) }); n != 0 {
				t.Errorf("steady-state iteration allocates %.1f per run, want 0", n)
			}
		})
	}
}
