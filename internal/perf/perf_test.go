package perf

import (
	"math"
	"strings"
	"testing"
)

func TestReportOrdersCanonicalFirst(t *testing.T) {
	rep := Report(map[string]float64{"ZEBRA": 0.001, RoutineMTTKRP: 0.002, RoutineFit: 0})
	mi := strings.Index(rep, RoutineMTTKRP)
	zi := strings.Index(rep, "ZEBRA")
	if mi < 0 || zi < 0 {
		t.Fatalf("report missing rows:\n%s", rep)
	}
	if mi > zi {
		t.Errorf("canonical routine after extras:\n%s", rep)
	}
	if strings.Contains(rep, RoutineFit) {
		t.Errorf("zero routine rendered:\n%s", rep)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("bad summary: %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 || math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("mean/median wrong: %+v", s)
	}
	wantSD := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Errorf("stddev = %g, want %g", s.StdDev, wantSD)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Errorf("odd median = %g, want 3", odd.Median)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary not zero: %+v", z)
	}
}

func TestSpeedupAndEfficiency(t *testing.T) {
	if v := Speedup(10, 2); v != 5 {
		t.Errorf("Speedup = %g", v)
	}
	if !math.IsInf(Speedup(10, 0), 1) {
		t.Error("Speedup by zero should be +Inf")
	}
	if v := Efficiency(16, 2, 4); v != 2 {
		t.Errorf("Efficiency = %g", v)
	}
	if v := Efficiency(16, 2, 0); v != 0 {
		t.Errorf("Efficiency with 0 tasks = %g", v)
	}
}

func TestRelativePerformance(t *testing.T) {
	// Paper metric: Chapel at 83-96% of C. ref=0.83s chapel=1.0s -> 83%.
	if v := RelativePerformance(0.83, 1.0); math.Abs(v-83) > 1e-9 {
		t.Errorf("RelativePerformance = %g, want 83", v)
	}
	if v := RelativePerformance(1, 0); v != 0 {
		t.Errorf("degenerate = %g, want 0", v)
	}
}
