// Command e2e is the repository's end-to-end benchmark. It times the paths
// a user waits on — batch CP-ALS on the paper's CSF backend and on ALTO,
// the streaming append→model path through the service, and model serving —
// checks their outputs, and in a traced run attributes the time to the
// repository's layers. README.md describes the workloads and metrics.
//
// Build and run it with run.sh from the repository root:
//
//	bash benchmarks/e2e/run.sh -seed 1            # every workload, untraced
//	bash benchmarks/e2e/run.sh -seed 1 -trace 1   # every workload, traced
//	bash benchmarks/e2e/run.sh --workload stream-yelp --seed 4 --seconds 20 --trace 0
//	bash benchmarks/e2e/run.sh compare parent.jsonl change.jsonl
//
// With --workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// defaultSeconds is the measured time per workload, as BENCHMARK.json's
// run_seconds.
const defaultSeconds = 22

// workload is one set of inputs the benchmark runs. refs are the
// reference loops its timings are scaled by (reference.go). run measures
// it and returns the inputs the layer probes of a traced run use. Every
// error a workload or probe returns has already been counted on the
// ledger.
type workload struct {
	name string
	refs []refKind
	run  func(*env) (probeInput, error)
}

var workloads = []workload{
	{"cpd-nell2-csf", []refKind{refGather}, func(e *env) (probeInput, error) { return runCPD(e, nell2CSF) }},
	{"cpd-yelp-alto", []refKind{refGather}, func(e *env) (probeInput, error) { return runCPD(e, yelpALTO) }},
	{"stream-yelp", []refKind{refStream, refCompute, refGather}, runStream},
	{"query-mix", []refKind{refHTTP}, runQuery},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is what every workload run shares.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	quick   bool // tiny inputs, for smoke tests
	tasks   int  // the solver's worker count: the host's CPU count
	outDir  string
	// rt replaces the HTTP transport of every client; tests inject
	// failures through it.
	rt http.RoundTripper
}

// metric is one measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate is one correctness check.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is everything one workload run measured.
type result struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// EndToEnd holds the end-to-end metrics. A traced run measures them
	// too, but with tracing overhead, so only untraced values count.
	EndToEnd map[string]metric `json:"end_to_end"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]metric `json:"per_layer,omitempty"`
	// Detail holds further numbers of this workload, such as the fit and
	// the latency of each operation kind.
	Detail  map[string]metric `json:"detail"`
	Samples map[string]int    `json:"samples"` // N behind each timing
	// LayerSelfMS is each layer's self time per traced rep, cycle or
	// request (the workload's root spans), from the spans of a traced run.
	LayerSelfMS map[string]float64 `json:"layer_self_ms_per_op,omitempty"`
	Gates       []gate             `json:"gates"`
	Errors      []string           `json:"errors,omitempty"`
}

// report is the content of a result file: one line of JSON, so runs can
// be appended to one JSON Lines file for the comparator.
type report struct {
	Provenance provenance `json:"provenance"`
	Results    []result   `json:"results"`
}

// summary is the last line of standard output of a one-workload run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts attempted and failed operations and records the
// correctness gates. It is safe for concurrent use.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	gates  []gate
	errors []string // the first few failures
}

// op counts one attempted operation and reports whether it succeeded.
func (l *ledger) op(err error) bool {
	l.attempted.Add(1)
	if err == nil {
		return true
	}
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.errors) < 8 {
		l.errors = append(l.errors, err.Error())
	}
	l.mu.Unlock()
	return false
}

// gate records a correctness check; a failed check is also a failed
// operation.
func (l *ledger) gate(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	var err error
	if !ok {
		err = fmt.Errorf("gate %s: %s", name, detail)
	}
	l.op(err)
	l.mu.Lock()
	l.gates = append(l.gates, gate{Name: name, OK: ok, Detail: detail})
	l.mu.Unlock()
}

// env is the state of one workload run.
type env struct {
	cfg config
	led ledger
	tr  *tracer // nil in an untraced run
	ref *refClock
	res *result
}

func (e *env) seconds() time.Duration { return time.Duration(e.cfg.seconds * float64(time.Second)) }

// e2e records an end-to-end metric computed from n samples.
func (e *env) e2e(name string, v float64, unit string, n int) {
	e.res.EndToEnd[name] = metric{v, unit}
	e.res.Samples[name] = n
}

// setup records the median set-up time (seconds) times scale, the factor
// to the nominal reference speed, and the measured median as detail.
func (e *env) setup(samples []float64, scale float64) {
	e.e2e("setup_s", median(samples)*scale, "s", len(samples))
	e.detail("setup_measured_s", median(samples), "s")
	e.detail("ref_scale", scale, "x")
}

// latency records the median of a workload's unit-operation latencies
// (ms) at the nominal reference speed, where scaled[i] is measured[i] at
// that speed, and as detail the measured median and the highest
// percentile with at least ten samples beyond it.
func (e *env) latency(measured, scaled []float64) {
	n := len(measured)
	e.e2e("latency_ms", median(scaled), "ms", n)
	e.detail("latency_measured_ms", median(measured), "ms")
	for _, p := range []float64{99.9, 99, 90, 75, 50} {
		if float64(n)*(1-p/100) >= 10 {
			e.detail("latency_tail_ms", percentile(measured, p), "ms")
			e.detail("latency_tail_pct", p, "%")
			return
		}
	}
}

// scaleAll returns xs times f.
func scaleAll(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// peakRSS records peak_rss_mb, the process's peak memory so far. Each
// workload calls it when its measured phase ends, before the correctness
// gates, whose extra solves and builds (a CSF backend of the YELP twin, for
// one) are not the workload's work.
func (e *env) peakRSS() { e.e2e("peak_rss_mb", peakRSSMB(), "MB", 1) }

// layer records a per-layer metric.
func (e *env) layer(name string, v float64, unit string) { e.res.Layers[name] = metric{v, unit} }

// detail records a workload-specific number.
func (e *env) detail(name string, v float64, unit string) { e.res.Detail[name] = metric{v, unit} }

// traceEvery returns the tracer for the i-th unit operation of a traced
// run: every other operation is traced, so the untraced ones beside them
// measure what tracing costs.
func (e *env) traceEvery(i int) *tracer {
	if i%2 == 0 {
		return e.tr
	}
	return nil
}

// traceOverhead records how much slower the traced operations ran than
// the untraced ones beside them.
func (e *env) traceOverhead(traced, untraced []float64) {
	if e.tr != nil && len(traced) > 0 && len(untraced) > 0 {
		e.layer("trace_overhead_pct", 100*(median(traced)/median(untraced)-1), "%")
	}
}

// runWorkload runs w once in this process and returns its result and, for
// a traced run, its spans.
func runWorkload(cfg config, w workload) (*result, []span) {
	e := &env{cfg: cfg, ref: newRefClock(cfg.tasks, w.refs), res: &result{
		Workload: w.name, Traced: cfg.traced,
		EndToEnd: map[string]metric{}, Detail: map[string]metric{}, Samples: map[string]int{},
	}}
	if cfg.traced {
		e.tr = newTracer()
		e.res.Layers = map[string]metric{}
	}
	defer e.ref.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := w.run(e)
	runtime.ReadMemStats(&after)
	for k, samples := range e.ref.samples {
		if len(samples) > 0 {
			name := "ref_" + refNames[k] + "_ms"
			e.detail(name, median(samples), "ms")
			e.res.Samples[name] = len(samples)
		}
	}
	gcs := float64(after.NumGC - before.NumGC)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	e.detail("go.gc_cycles", gcs, "count")
	e.detail("go.alloc_mb", allocMB, "MB")
	if cfg.traced && err == nil {
		e.layer("go.gc_cycles", gcs, "count")
		e.layer("go.alloc_mb", allocMB, "MB")
		if perr := probeLayers(e, in); perr != nil {
			err = perr
		}
	}

	res := e.res
	res.Attempted, res.Failed = e.led.attempted.Load(), e.led.failed.Load()
	res.Gates, res.Errors = e.led.gates, e.led.errors
	res.Correct = err == nil && len(res.Gates) > 0
	for _, g := range res.Gates {
		res.Correct = res.Correct && g.OK
	}
	res.Detail["error_rate"] = metric{float64(res.Failed) / float64(res.Attempted), "1"}
	spans := e.tr.snapshot()
	if cfg.traced {
		var work []span
		roots := 0
		for _, s := range spans {
			if s.Lane != laneProbe {
				work = append(work, s)
				if s.Parent == 0 {
					roots++
				}
			}
		}
		res.LayerSelfMS = layerSelfMS(work, roots)
	}
	return res, spans
}

// exitCode is non-zero when any operation failed or any gate did not pass.
func exitCode(r *result) int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in its own child process)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 for a traced run: per-layer metrics from spans and layer probes")
	quick := fs.Bool("quick", false, "tiny inputs, for a smoke test")
	out := fs.String("out", filepath.Join("benchmarks", "e2e", "out"), "directory for the result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR] | e2e compare PARENT CHANGE")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick,
		tasks: runtime.NumCPU(), outDir: *out}
	w, ok := lookup(*name)
	if !ok && *name != "" {
		fmt.Fprintf(stderr, "unknown workload %q; have:", *name)
		for _, w := range workloads {
			fmt.Fprint(stderr, " ", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if !ok {
		return runAll(cfg, stdout, stderr)
	}

	res, spans := runWorkload(cfg, w)
	if err := writeFiles(cfg, res, spans); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printResult(stdout, res)
	metrics := res.EndToEnd
	if cfg.traced {
		metrics = res.Layers
	}
	line, err := json.Marshal(summary{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res)
}

func resultPath(cfg config, workload string) string {
	return filepath.Join(cfg.outDir, "result-"+workload+".json")
}

// writeFiles writes the run's result file and, for a traced run, its
// Chrome trace.
func writeFiles(cfg config, res *result, spans []span) error {
	if err := writeReport(resultPath(cfg, res.Workload), report{newProvenance(cfg), []result{*res}}); err != nil {
		return err
	}
	if !cfg.traced {
		return nil
	}
	f, err := os.Create(filepath.Join(cfg.outDir, "trace-"+res.Workload+".json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, res.Workload, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func writeReport(path string, r report) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in its own child process, so peak memory and
// garbage-collector state stay per workload, and writes result.json with
// all their results.
func runAll(cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	rep := report{Provenance: newProvenance(cfg)}
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"--trace", "0", "--out", cfg.outDir}
		if cfg.traced {
			args[7] = "1"
		}
		if cfg.quick {
			args = append(args, "--quick")
		}
		path := resultPath(cfg, w.name)
		_ = os.Remove(path) // a stale file must not stand in for a failed child
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
		}
		var child report
		if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &child) == nil {
			rep.Results = append(rep.Results, child.Results...)
		} else {
			fmt.Fprintf(stderr, "%s: no result file\n", w.name)
			code = 1
		}
	}
	if err := writeReport(filepath.Join(cfg.outDir, "result.json"), rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return code
}

// printResult prints every metric of a run by name, unit and workload.
func printResult(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): correct=%v attempted=%d failed=%d\n", r.Workload, mode, r.Correct, r.Attempted, r.Failed)
	section := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s:\n", title)
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			fmt.Fprintf(w, "    %-28s %14.6g %-8s", n, m.Value, m.Unit)
			if k, ok := r.Samples[n]; ok {
				fmt.Fprintf(w, " n=%d", k)
			}
			fmt.Fprintln(w)
		}
	}
	section("end to end", r.EndToEnd)
	section("per layer", r.Layers)
	section("detail", r.Detail)
	for _, g := range r.Gates {
		status := "ok"
		if !g.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  gate %-26s %-6s %s\n", g.Name, status, g.Detail)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// errNoSamples reports a measured phase that completed no operation.
var errNoSamples = errors.New("no operation completed in the measured time")
