package obs

import "repro/internal/perf"

// phaseRoutine is the phase→routine map: the paper routine (Table III,
// Figures 5-8) each phase is charged to. Every routine time the engines
// report is derived through it, so the CLI, the bench harness, and the
// server read one clock. Warm-start seeding and the collectives belong to
// no routine.
var phaseRoutine = [NumPhases]string{
	PhaseIteration:     perf.RoutineCPD,
	PhaseRefine:        perf.RoutineCPD,
	PhaseMTTKRP:        perf.RoutineMTTKRP,
	PhaseGram:          perf.RoutineATA,
	PhaseSolve:         perf.RoutineInverse,
	PhaseNormalize:     perf.RoutineNorm,
	PhaseFit:           perf.RoutineFit,
	PhaseSample:        perf.RoutineSketch,
	PhaseSampledMTTKRP: perf.RoutineSketch,
	PhaseLeverage:      perf.RoutineLeverage,
	PhaseSort:          perf.RoutineSort,
	PhaseBuild:         perf.RoutineBuild,
	PhaseSketchBuild:   perf.RoutineSketchBuild,
}

// Routine returns the paper routine the phase is charged to ("" for
// none).
func (p Phase) Routine() string {
	if p < NumPhases {
		return phaseRoutine[p]
	}
	return ""
}

// RoutineSeconds sums the nanoseconds of every phase charged to routine
// and converts once, so a routine's seconds are an exact function of the
// integer aggregates.
func RoutineSeconds(nanos [NumPhases]int64, routine string) float64 {
	var n int64
	for p, r := range phaseRoutine {
		if r == routine {
			n += nanos[p]
		}
	}
	return float64(n) / 1e9
}

// RoutineTimes derives the routine → seconds view from per-phase
// nanoseconds, omitting routines none of whose phases recorded time.
func RoutineTimes(nanos [NumPhases]int64) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range phaseRoutine {
		if _, done := out[r]; r == "" || done {
			continue
		}
		if secs := RoutineSeconds(nanos, r); secs > 0 {
			out[r] = secs
		}
	}
	return out
}

// Routines derives a trace event's routine fields from per-phase
// nanoseconds. It allocates nothing, so a traced iteration stays at
// 0 allocs/op.
func Routines(nanos [NumPhases]int64) RoutineSnapshot {
	return RoutineSnapshot{
		MTTKRP:   RoutineSeconds(nanos, perf.RoutineMTTKRP),
		ATA:      RoutineSeconds(nanos, perf.RoutineATA),
		Inverse:  RoutineSeconds(nanos, perf.RoutineInverse),
		Norm:     RoutineSeconds(nanos, perf.RoutineNorm),
		Fit:      RoutineSeconds(nanos, perf.RoutineFit),
		Sketch:   RoutineSeconds(nanos, perf.RoutineSketch),
		Leverage: RoutineSeconds(nanos, perf.RoutineLeverage),
	}
}
