package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(base, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5) // quartiles of ±2 steps
	}
	return xs
}

func TestJudge(t *testing.T) {
	latency := metricSpec{Name: "latency_ms", Better: "lower", Bound: 0.1}
	rate := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	parent := series(100, 1, 10) // spread ~3%
	noisy := series(100, 10, 10) // spread ~30%
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"faster in every pair", latency, parent, scaleAll(parent, 0.8), improved},
		{"slower beyond the bound", latency, parent, scaleAll(parent, 1.2), regressed},
		{"slower within the bound", latency, parent, scaleAll(parent, 1.05), unchanged},
		{"spread wider than the bound", latency, noisy, scaleAll(noisy, 1.15), unresolved},
		{"every change run better despite the spread", latency, noisy, scaleAll(noisy, 0.5), improved},
		{"higher is better", rate, parent, scaleAll(parent, 1.2), improved},
		{"higher is better, regression", rate, parent, scaleAll(parent, 0.8), regressed},
		{"too few pairs to claim a gain", latency, parent[:5], scaleAll(parent[:5], 0.8), unchanged},
		{"one run a side", latency, parent[:1], parent[:1], missing},
	} {
		if v := judge(c.m, true, c.parent, c.change); v.Status != c.want {
			t.Errorf("%s: got %s (%+v), want %s", c.name, v.Status, v, c.want)
		}
	}

	// Eight wins in ten pairs is not a gain: the rule asks for nine.
	change := scaleAll(parent, 0.9)
	change[0], change[1] = parent[0]*1.01, parent[1]*1.01
	if v := judge(latency, true, parent, change); v.Wins != 8 || v.Status != unchanged {
		t.Errorf("8/10 wins: got %d wins, %s", v.Wins, v.Status)
	}
	// A gap inside the parent's interquartile range is not a gain either.
	if v := judge(latency, true, parent, scaleAll(parent, 0.985)); v.Wins != 10 || v.Status != unchanged {
		t.Errorf("gap inside the IQR: got %d wins, %s", v.Wins, v.Status)
	}
	if v := judge(latency, false, parent, scaleAll(parent, 2)); v.Status != info {
		t.Errorf("a metric without a bound: got %s, want %s", v.Status, info)
	}
}

const cohort = "cpu=amd64:avx2 dense=avx2+fma alto=pext"

// testRun is one result file's worth of a comparator input.
type testRun struct {
	seed    int64
	latency float64
	failed  int64 // failed operations; the run is correct when 0
}

// runsOf gives latencies seeds 1, 2, ... in order, every run correct.
func runsOf(latencies []float64) []testRun {
	rs := make([]testRun, len(latencies))
	for i, l := range latencies {
		rs[i] = testRun{seed: int64(i + 1), latency: l}
	}
	return rs
}

func writeRuns(t *testing.T, path, cohort string, rs []testRun) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range rs {
		b, err := json.Marshal(report{
			Provenance: provenance{Cohort: cohort, Seed: r.seed},
			Results: []result{{Workload: "query-mix", Correct: r.failed == 0, Attempted: 100, Failed: r.failed,
				EndToEnd: map[string]metric{"latency_ms": {r.latency, "ms"}}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"latency_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	path := func(name string) string { return filepath.Join(dir, name) }
	parent := series(100, 1, 11)
	writeRuns(t, path("a"), cohort, runsOf(parent))
	writeRuns(t, path("slower"), cohort, runsOf(scaleAll(parent, 1.3)))
	writeRuns(t, path("other"), "cpu=amd64:generic dense=generic alto=tables", runsOf(parent))
	// A faster change that failed an operation in one run is no gain.
	fails := runsOf(scaleAll(parent, 0.5))
	fails[3].failed = 1
	writeRuns(t, path("fails"), cohort, fails)
	// Too few pairs to judge: the change ran one seed.
	writeRuns(t, path("one"), cohort, runsOf(parent[:1]))

	for _, c := range []struct {
		name, change string
		code         int
		want         string
	}{
		{"a 30% slower change", "slower", 1, regressed},
		{"identical runs", "a", 0, unchanged},
		{"a change with a failed run", "fails", 1, failed},
		{"a change with one run", "one", 1, missing},
	} {
		var out, errOut bytes.Buffer
		code := compareMain([]string{"-bench", spec, path("a"), path(c.change)}, &out, &errOut)
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %s; output:\n%s%s", c.name, code, c.code, c.want, out.String(), errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := compareMain([]string{"-bench", spec, path("a"), path("other")}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "cohorts") {
		t.Errorf("cross-cohort comparison: exit %d, stderr %q", code, errOut.String())
	}

	// Runs pair by seed. The change is 1 ms faster than the parent on every
	// seed of a rising series, but its seed-2 run is lost: the other ten
	// pairs must still line up (paired by position, each change run would
	// meet the parent run before its own and lose).
	rising := make([]float64, 11)
	for i := range rising {
		rising[i] = 100 + 2*float64(i)
	}
	lost := runsOf(rising)
	for i := range lost {
		lost[i].latency--
	}
	lost = append(lost[:1], lost[2:]...)
	writeRuns(t, path("rising"), cohort, runsOf(rising))
	writeRuns(t, path("lost"), cohort, lost)
	p, err := loadRuns(path("rising"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadRuns(path("lost"))
	if err != nil {
		t.Fatal(err)
	}
	var specs benchSpec
	specs.EndToEnd = []metricSpec{{Name: "latency_ms", Better: "lower", Bound: 0.1}}
	if vs := compare(specs, p, c); len(vs) != 1 || vs[0].Pairs != 10 || vs[0].Wins != 10 {
		t.Errorf("a change missing one run: verdicts %+v, want 10 pairs and 10 wins", vs)
	}
}
