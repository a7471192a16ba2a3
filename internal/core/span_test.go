package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/format"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sketch"
)

func phaseStats(p *obs.Profiler) map[string]obs.PhaseStat {
	out := map[string]obs.PhaseStat{}
	for _, st := range p.Profile().Phases {
		out[st.Phase] = st
	}
	return out
}

// TestSpanPhasesExactALS pins the phase ledger of an exact ALS run: every
// phase the solver executes appears with the structurally-determined call
// count (modes × iterations for per-mode phases, iterations for the rest).
func TestSpanPhasesExactALS(t *testing.T) {
	tensor := sessionTensor(t)
	modes := tensor.NModes()
	opts := DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 6
	opts.Spans = obs.NewProfiler(1, 4096)

	_, report, err := CPD(tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	iters := int64(report.Iterations)
	stats := phaseStats(opts.Spans)

	for phase, want := range map[string]int64{
		"iteration": iters,
		"fit":       iters,
		"mttkrp":    iters * int64(modes),
		"solve":     iters * int64(modes),
		"normalize": iters * int64(modes),
		"gram":      iters*int64(modes)*2 + 1, // Hadamard + post-solve Syrk, plus the initial Grams
	} {
		if got := stats[phase].Calls; got != want {
			t.Errorf("%s calls = %d, want %d", phase, got, want)
		}
	}
	for _, phase := range []string{"refine", "sample", "sampled_mttkrp", "leverage",
		"comm_barrier", "comm_allreduce", "comm_allgather"} {
		if _, ok := stats[phase]; ok {
			t.Errorf("exact single-node ALS recorded unexpected phase %s", phase)
		}
	}
	// The iteration envelope must dominate its constituent phases; the
	// initial Grams (the one mode -1 gram span) run before any iteration.
	inner := stats["fit"].Seconds + stats["mttkrp"].Seconds +
		stats["solve"].Seconds + stats["normalize"].Seconds + stats["gram"].Seconds
	for _, sp := range opts.Spans.Spans()[0].Spans {
		if sp.Phase == obs.PhaseGram && sp.Mode < 0 {
			inner -= float64(sp.Dur) / 1e9
		}
	}
	if stats["iteration"].Seconds < inner {
		t.Errorf("iteration seconds %v < sum of nested phases %v",
			stats["iteration"].Seconds, inner)
	}
}

// TestSpanPhasesARLS pins the sampled solver's split: sampled iterations
// record iteration/sample/sampled_mttkrp/leverage spans, the exact tail
// records refine spans, and the two iteration envelopes partition the run.
func TestSpanPhasesARLS(t *testing.T) {
	tensor := sessionTensor(t)
	opts := DefaultOptions()
	opts.Rank = 8
	opts.MaxIters = 8
	opts.RefineIters = 3
	opts.Solver = sketch.ARLS
	opts.Spans = obs.NewProfiler(1, 4096)

	_, report, err := CPD(tensor, opts)
	if err != nil {
		t.Fatal(err)
	}
	stats := phaseStats(opts.Spans)

	sampled := int64(report.SampledIters)
	exact := int64(report.Iterations - report.SampledIters)
	if sampled == 0 || exact == 0 {
		t.Fatalf("run had %d sampled / %d exact iterations; test needs both", sampled, exact)
	}
	if got := stats["iteration"].Calls; got != sampled {
		t.Errorf("iteration calls = %d, want %d (sampled envelopes)", got, sampled)
	}
	if got := stats["refine"].Calls; got != exact {
		t.Errorf("refine calls = %d, want %d (exact tail envelopes)", got, exact)
	}
	for _, phase := range []string{"sample", "sampled_mttkrp", "leverage"} {
		if stats[phase].Calls == 0 {
			t.Errorf("no %s spans recorded for the sampled phase", phase)
		}
	}
}

// routinePhases is the phase→routine map the paper's routine rows are
// derived through, written out so a change to the map fails here.
var routinePhases = map[string][]string{
	perf.RoutineMTTKRP:      {"mttkrp"},
	perf.RoutineATA:         {"gram"},
	perf.RoutineInverse:     {"solve"},
	perf.RoutineNorm:        {"normalize"},
	perf.RoutineFit:         {"fit"},
	perf.RoutineSort:        {"sort"},
	perf.RoutineBuild:       {"build"},
	perf.RoutineSketch:      {"sample", "sampled_mttkrp"},
	perf.RoutineSketchBuild: {"sketch_build"},
	perf.RoutineLeverage:    {"leverage"},
	perf.RoutineCPD:         {"iteration", "refine"},
}

// TestRoutineTimesFromPhases pins the one-clock property: every routine
// time a run reports is the sum of its phases' span aggregates, the last
// trace event carries the same routine seconds as the Report, and a
// profiler shared across runs still yields per-run times.
func TestRoutineTimesFromPhases(t *testing.T) {
	tensor := sessionTensor(t)
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		want := ""
		for r, phases := range routinePhases {
			if slices.Contains(phases, p.String()) {
				want = r
			}
		}
		if got := p.Routine(); got != want {
			t.Errorf("phase %s charged to %q, want %q", p, got, want)
		}
	}

	spans := obs.NewProfiler(1, 0) // shared by all three runs
	for _, tc := range []struct {
		name      string
		format    format.Spec
		solver    sketch.Solver
		exercised []string
	}{
		{"als-csf", format.CSF, sketch.ALS, []string{perf.RoutineCPD, perf.RoutineMTTKRP,
			perf.RoutineATA, perf.RoutineInverse, perf.RoutineNorm, perf.RoutineFit,
			perf.RoutineSort, perf.RoutineBuild}},
		{"als-alto", format.ALTO, sketch.ALS, []string{perf.RoutineCPD, perf.RoutineMTTKRP,
			perf.RoutineATA, perf.RoutineInverse, perf.RoutineNorm, perf.RoutineFit,
			perf.RoutineBuild}},
		{"arls-csf", format.CSF, sketch.ARLS, []string{perf.RoutineCPD, perf.RoutineMTTKRP,
			perf.RoutineATA, perf.RoutineInverse, perf.RoutineNorm, perf.RoutineFit,
			perf.RoutineSort, perf.RoutineBuild, perf.RoutineSketch, perf.RoutineSketchBuild,
			perf.RoutineLeverage}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ring := obs.NewTraceRing(64)
			opts := DefaultOptions()
			opts.Rank = 8
			opts.MaxIters = 6
			opts.RefineIters = 2
			opts.Format = tc.format
			opts.Solver = tc.solver
			opts.Spans = spans
			opts.Trace = ring
			before := phaseStats(spans)
			_, report, err := CPD(tensor, opts)
			if err != nil {
				t.Fatal(err)
			}
			after := phaseStats(spans)

			for r, phases := range routinePhases {
				sum := 0.0
				for _, ph := range phases {
					sum += after[ph].Seconds - before[ph].Seconds
				}
				if got := report.Times[r]; math.Abs(got-sum) > 1e-9 {
					t.Errorf("%s: Report.Times %v s, its phases sum to %v s", r, got, sum)
				}
			}
			for r := range report.Times {
				if _, ok := routinePhases[r]; !ok {
					t.Errorf("Report.Times has unmapped routine %q", r)
				}
			}
			for _, r := range tc.exercised {
				if report.Times[r] <= 0 {
					t.Errorf("exercised routine %s has %v s", r, report.Times[r])
				}
			}

			last, ok := ring.Last()
			if !ok {
				t.Fatal("no trace events")
			}
			for r, got := range map[string]float64{
				perf.RoutineCPD:      last.Seconds,
				perf.RoutineMTTKRP:   last.Routines.MTTKRP,
				perf.RoutineATA:      last.Routines.ATA,
				perf.RoutineInverse:  last.Routines.Inverse,
				perf.RoutineNorm:     last.Routines.Norm,
				perf.RoutineFit:      last.Routines.Fit,
				perf.RoutineSketch:   last.Routines.Sketch,
				perf.RoutineLeverage: last.Routines.Leverage,
			} {
				if got != report.Times[r] {
					t.Errorf("%s: last trace event %v s, Report.Times %v s", r, got, report.Times[r])
				}
			}
		})
	}
}

// TestSpanIterateAllocationFree pins the tentpole's hard constraint:
// steady-state iterations with span recording enabled stay at 0
// allocs/op. The ring is sized to overflow mid-test so the drop path is
// covered too.
func TestSpanIterateAllocationFree(t *testing.T) {
	tensor := sessionTensor(t)
	for _, tc := range []struct {
		name   string
		solver sketch.Solver
		tasks  int
	}{
		{"als-serial", sketch.ALS, 1},
		{"als-parallel", sketch.ALS, 4},
		{"arls-parallel", sketch.ARLS, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Rank = 8
			opts.MaxIters = 1 << 20 // never the limiter
			opts.RefineIters = 2
			opts.Tasks = tc.tasks
			opts.Solver = tc.solver
			opts.Spans = obs.NewProfiler(1, 32)
			s, err := NewSession(tensor, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Iterate(1) // warm-up: grows arena pools, builds fiber indexes
			if n := testing.AllocsPerRun(5, func() { s.Iterate(1) }); n != 0 {
				t.Errorf("span-enabled steady-state iteration allocates %.1f per run, want 0", n)
			}
		})
	}
}
