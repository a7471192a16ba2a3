// Package perf names the per-routine rows of SPLATT's cumulative timing
// report — the split the paper reports in Table III and Figures 5-8 —
// renders them as SPLATT's timing block, and summarizes repeated trials.
// The routine times themselves are derived from span-profiler phases
// (see obs.Phase.Routine).
package perf

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Routine names used by the CP-ALS driver. They match the column labels in
// the paper's Table III ("MTTKRP", "Sort", "Mat A^TA", "Mat norm", "CPD fit",
// "Inverse") so the benchmark harness can print paper-style rows directly.
const (
	RoutineMTTKRP  = "MTTKRP"
	RoutineSort    = "SORT"
	RoutineATA     = "MAT A^TA"
	RoutineNorm    = "MAT NORM"
	RoutineFit     = "CPD FIT"
	RoutineInverse = "INVERSE"
	RoutineCPD     = "CPD TOTAL"
	// RoutineBuild is storage-backend construction after the sort (CSF
	// assembly or ALTO linearization; Report.Format names the backend).
	RoutineBuild = "BUILD"
	// RoutineSketch is the sampled (ARLS) solver's replacement for the
	// exact MTTKRP: drawing + sampled accumulation per factor update.
	// RoutineSketchBuild and RoutineLeverage are its setup costs (fiber
	// index construction, leverage-score maintenance).
	RoutineSketch      = "SKETCH MTTKRP"
	RoutineSketchBuild = "SKETCH BUILD"
	RoutineLeverage    = "LEVERAGE"
)

// CanonicalRoutines lists the six per-routine rows reported by the paper,
// in the order the paper's figures present them.
var CanonicalRoutines = []string{
	RoutineMTTKRP, RoutineInverse, RoutineATA, RoutineNorm, RoutineFit, RoutineSort,
}

// Report renders routine seconds as the SPLATT-style timing block, e.g.
//
//	Timing information ---------------------------------------
//	  MTTKRP        13.3102s
//	  SORT           0.8210s
//
// Only non-zero routines are shown; the run total and the canonical
// routines come first in paper order, then any extras alphabetically.
func Report(times map[string]float64) string {
	var b strings.Builder
	b.WriteString("Timing information ---------------------------------------\n")
	order := append([]string{RoutineCPD}, CanonicalRoutines...)
	var extras []string
	for name := range times {
		if !slices.Contains(order, name) {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range append(order, extras...) {
		if secs := times[name]; secs != 0 {
			fmt.Fprintf(&b, "  %-10s %10.4fs\n", name, secs)
		}
	}
	return b.String()
}
