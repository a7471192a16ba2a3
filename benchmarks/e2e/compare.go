package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparator reads: each
// metric's direction and, for end-to-end metrics, the share of the
// parent's median by which it may worsen.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// The rule for claiming a gain: at least minPairs pairs of parent and
// change runs, the change better in at least winShare of them, and the
// medians further apart than the parent's interquartile range.
const (
	minPairs = 10
	winShare = 0.9
)

// verdict is the comparator's finding for one metric on one workload.
type verdict struct {
	Workload, Metric  string
	Parent, Change    float64 // medians
	ParentIQR, Spread float64 // Spread: the wider side's IQR over its median
	Pairs, Wins       int
	Status            string
}

// Verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // the run-to-run spread exceeds the bound
	info       = "per-layer"  // no bound: medians reported only
	missing    = "missing"    // too few pairs of runs
	failed     = "failed"     // the change failed more operations than the parent
)

// judge compares the per-run values of one metric. parent[i] and change[i]
// are a pair: runs with the same seed, which should have alternated.
func judge(m metricSpec, hasBound bool, parent, change []float64) verdict {
	v := verdict{Metric: m.Name, Status: missing}
	if len(parent) < 2 || len(change) < 2 {
		return v
	}
	lower := m.Better == "lower"
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	v.Parent, v.Change = midpoint(parent), midpoint(change)
	pq1, _, pq3, _ := quartiles(parent)
	cq1, _, cq3, _ := quartiles(change)
	v.ParentIQR = pq3 - pq1
	v.Spread = math.Max(v.ParentIQR/math.Abs(v.Parent), (cq3-cq1)/math.Abs(v.Change))
	v.Pairs = min(len(parent), len(change))
	for i := 0; i < v.Pairs; i++ {
		if better(change[i], parent[i]) {
			v.Wins++
		}
	}
	gain := v.Pairs >= minPairs && float64(v.Wins) >= winShare*float64(v.Pairs) &&
		math.Abs(v.Change-v.Parent) > v.ParentIQR && better(v.Change, v.Parent)
	if !hasBound {
		v.Status = info
		if gain {
			v.Status = improved
		}
		return v
	}
	worse := (v.Change - v.Parent) / math.Abs(v.Parent)
	if !lower {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case gain:
		v.Status = improved
	case v.Spread > m.Bound && !allBetter:
		v.Status = unresolved
	case worse > m.Bound:
		v.Status = regressed
	default:
		v.Status = unchanged
	}
	return v
}

// runKey names one run of a workload on one side: its seed and how many
// runs of that seed came before it in the file. Runs pair by key, so a run
// missing on one side loses only its own pair.
type runKey struct {
	seed int64
	n    int
}

// workloadRuns is one side's runs of one workload.
type workloadRuns struct {
	keys   []runKey                      // runs whose values count, in file order
	values map[string]map[runKey]float64 // metric → run → value
	seen   map[int64]int                 // runs per seed, failed ones too
	// failedOps counts failed operations over every run; a run that is not
	// correct counts at least one.
	failedOps int64
}

// runs holds one side's results by workload.
type runs struct {
	cohorts   map[string]bool
	workloads map[string]*workloadRuns
}

// loadRuns reads a file of result reports, one JSON object after another
// (a JSON Lines file of appended result files). Untraced results give the
// end-to-end values, traced ones the per-layer values. A run that failed an
// operation or a gate adds to its workload's failed operations, and its
// values do not count.
func loadRuns(path string) (runs, error) {
	r := runs{cohorts: map[string]bool{}, workloads: map[string]*workloadRuns{}}
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	for {
		var rep report
		if err := dec.Decode(&rep); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return r, fmt.Errorf("%s: %w", path, err)
		}
		r.cohorts[rep.Provenance.Cohort] = true
		for _, res := range rep.Results {
			w := r.workloads[res.Workload]
			if w == nil {
				w = &workloadRuns{values: map[string]map[runKey]float64{}, seen: map[int64]int{}}
				r.workloads[res.Workload] = w
			}
			key := runKey{rep.Provenance.Seed, w.seen[rep.Provenance.Seed]}
			w.seen[key.seed]++
			if !res.Correct || res.Failed > 0 {
				w.failedOps += max(res.Failed, 1)
				continue
			}
			ms := res.EndToEnd
			if res.Traced {
				ms = res.Layers
			}
			w.keys = append(w.keys, key)
			for name, m := range ms {
				if w.values[name] == nil {
					w.values[name] = map[runKey]float64{}
				}
				w.values[name][key] = m.Value
			}
		}
	}
	return r, nil
}

// pairs returns the values of metric name on the runs both sides have, in
// the parent's file order.
func pairs(parent, change *workloadRuns, name string) (p, c []float64) {
	for _, k := range parent.keys {
		pv, ok1 := parent.values[name][k]
		cv, ok2 := change.values[name][k]
		if ok1 && ok2 {
			p, c = append(p, pv), append(c, cv)
		}
	}
	return p, c
}

// compare judges every metric of BENCHMARK.json on every workload the
// parent ran. Where the change failed more operations than the parent, every
// metric of the workload is judged failed: a faster wrong answer is no gain.
func compare(spec benchSpec, parent, change runs) []verdict {
	var out []verdict
	var names []string
	for w := range parent.workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		pw, cw := parent.workloads[w], change.workloads[w]
		if cw == nil {
			cw = &workloadRuns{} // no run at all: every metric is missing
		}
		for i, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			if len(pw.values[m.Name]) == 0 {
				continue // untraced runs give no per-layer values, traced ones no end-to-end values
			}
			p, c := pairs(pw, cw, m.Name)
			v := judge(m, i < len(spec.EndToEnd), p, c)
			if cw.failedOps > pw.failedOps {
				v.Status = failed
			}
			v.Workload = w
			out = append(out, v)
		}
	}
	return out
}

// compareMain implements "e2e compare PARENT CHANGE". It exits 1 when a
// metric regressed beyond its bound, when the change failed more operations
// than the parent, or when a metric the parent measured has too few pairs
// to judge.
// It exits 2 on a usage error or when the two sides ran on different
// cpu-features cohorts.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: e2e compare [-bench BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	parent, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	change, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cohorts := map[string]bool{}
	for c := range parent.cohorts {
		cohorts[c] = true
	}
	for c := range change.cohorts {
		cohorts[c] = true
	}
	if len(cohorts) != 1 {
		fmt.Fprintf(stderr, "refusing to compare across cpu-features cohorts: %v\n", sortedKeys(cohorts))
		return 2
	}

	code := 0
	fmt.Fprintf(stdout, "%-14s %-26s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "parent", "change", "delta", "spread", "wins", "verdict")
	for _, v := range compare(spec, parent, change) {
		switch v.Status {
		case regressed, failed, missing:
			code = 1
		}
		fmt.Fprintf(stdout, "%-14s %-26s %14.6g %14.6g %+8.2f%% %7.2f%% %3d/%-3d  %s\n",
			v.Workload, v.Metric, v.Parent, v.Change, 100*(v.Change-v.Parent)/math.Abs(v.Parent),
			100*v.Spread, v.Wins, v.Pairs, v.Status)
	}
	return code
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
