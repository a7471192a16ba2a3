package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sptensor"
)

// TestRequestIDs verifies the correlation-ID middleware: absent IDs are
// generated and echoed, caller-supplied IDs are propagated verbatim.
func TestRequestIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get(RequestIDHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(generated) {
		t.Fatalf("generated request ID %q, want 16 hex chars", generated)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set(RequestIDHeader, "caller-trace-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "caller-trace-42" {
		t.Fatalf("propagated request ID = %q, want caller-trace-42", got)
	}
}

// TestPanicRecovery drives a panicking handler through the middleware
// stack and checks the 500 envelope, the panic counter, and that the
// server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCapacity: 4})
	defer s.Close()
	h := withRequestID(s.observeRequests(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			panic("kaboom")
		})))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != "internal" {
		t.Fatalf("recovery envelope %s (err=%v)", data, err)
	}
	if s.met.panics.Value() != 1 {
		t.Fatalf("panic counter = %d, want 1", s.met.panics.Value())
	}
	// The connection and server survive.
	if resp, err := http.Get(ts.URL + "/again"); err != nil {
		t.Fatalf("request after panic: %v", err)
	} else {
		resp.Body.Close()
	}
}

// TestRequestTimeout pins the per-route deadline: a config with a tiny
// RequestTimeout turns a (normally instant) handler into a 503 envelope.
func TestRequestTimeout(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCapacity: 4, RequestTimeout: time.Nanosecond})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != "unavailable" {
		t.Fatalf("timeout envelope %s (err=%v)", data, err)
	}
}

// TestJobProgressAndTrace runs a publishable CPD job and checks the two
// live-observability surfaces: progress on the job status once iterations
// start, and the full per-iteration timeline at /v1/jobs/{id}/trace with
// monotone iteration numbers and fits matching the final result.
func TestJobProgressAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	tensor := sptensor.Random([]int{30, 24, 18}, 4000, 11)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))

	st, code := submitJob(t, ts.URL, JobSpec{
		TensorID: res.ID, Rank: 8, MaxIters: 12, Seed: 7,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Progress appears while (or shortly after) the job runs and reports a
	// growing iteration count.
	final := waitState(t, ts.URL, st.ID, 30*time.Second, terminal)
	if final.State != StateDone {
		t.Fatalf("state %s (err=%q)", final.State, final.Error)
	}
	if final.Progress == nil {
		t.Fatal("finished job has no progress block")
	}
	if final.Progress.Iterations != final.Result.Iterations {
		t.Fatalf("progress iterations %d, result %d",
			final.Progress.Iterations, final.Result.Iterations)
	}
	if final.Progress.Fit != final.Result.Fit {
		t.Fatalf("progress fit %v, result %v", final.Progress.Fit, final.Result.Fit)
	}
	if final.Progress.MTTKRPSeconds <= 0 {
		t.Fatalf("progress has no MTTKRP time: %+v", final.Progress)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	resp.Body.Close()
	if trace.JobID != st.ID || trace.State != StateDone {
		t.Fatalf("trace header: %+v", trace)
	}
	if trace.TotalIterations != final.Result.Iterations || trace.Dropped != 0 {
		t.Fatalf("trace counts: total %d dropped %d, want total %d dropped 0",
			trace.TotalIterations, trace.Dropped, final.Result.Iterations)
	}
	if len(trace.Events) != trace.TotalIterations {
		t.Fatalf("trace has %d events, want %d", len(trace.Events), trace.TotalIterations)
	}
	for i, ev := range trace.Events {
		if ev.Iteration != i+1 {
			t.Fatalf("event %d: iteration %d", i, ev.Iteration)
		}
	}
	if last := trace.Events[len(trace.Events)-1]; last.Fit != final.Result.Fit {
		t.Fatalf("final trace fit %v, result %v", last.Fit, final.Result.Fit)
	}

	// Unknown job → 404 envelope.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-job trace: status %d", resp.StatusCode)
	}
}

// TestGracefulShutdown covers both Shutdown outcomes under load: a
// generous deadline drains cleanly (cancelling the running job), and an
// already-expired deadline reports a forced drain.
func TestGracefulShutdown(t *testing.T) {
	start := func() (*Server, *httptest.Server, string) {
		s := NewServer(Config{Workers: 1, QueueCapacity: 8})
		ts := httptest.NewServer(s.Handler())
		tensor := sptensor.Random([]int{80, 60, 40}, 30000, 5)
		res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))
		st, code := submitJob(t, ts.URL, JobSpec{
			TensorID: res.ID, Rank: 16, MaxIters: 1000000, Seed: 2,
		})
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		waitState(t, ts.URL, st.ID, 30*time.Second, func(s JobStatus) bool {
			return s.State == StateRunning
		})
		return s, ts, st.ID
	}

	t.Run("drains", func(t *testing.T) {
		s, ts, id := start()
		defer ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
		// The in-flight job was cancelled, not abandoned.
		j, ok := s.lookupJob(id)
		if !ok || j.State() != StateCancelled {
			t.Fatalf("job after shutdown: ok=%v state=%v", ok, j.State())
		}
		// New submissions are refused after shutdown.
		if _, code := submitJob(t, ts.URL, JobSpec{TensorID: "x"}); code != http.StatusNotFound &&
			code != http.StatusGone && code != http.StatusServiceUnavailable {
			t.Fatalf("submit after shutdown: status %d", code)
		}
	})

	t.Run("forced", func(t *testing.T) {
		s, ts, _ := start()
		defer ts.Close()
		defer s.Close() // let the workers finish unwinding after the test
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already expired: the pool cannot possibly drain in time
		if err := s.Shutdown(ctx); err == nil {
			t.Fatal("forced drain returned nil error")
		}
	})
}

// TestPrometheusEndpoint scrapes a warmed server end-to-end and checks
// exposition-format conformance (HELP/TYPE before samples, contiguous
// families) plus the presence and consistency of the families the JSON
// document is rendered from.
func TestPrometheusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	tensor := sptensor.Random([]int{20, 16, 12}, 1500, 3)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))
	st, code := submitJob(t, ts.URL, JobSpec{TensorID: res.ID, Rank: 6, MaxIters: 4, Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts.URL, st.ID, 30*time.Second, terminal)

	resp, err := http.Get(ts.URL + "/v1/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}

	// Structural conformance: every sample line's family must have been
	// introduced by # HELP + # TYPE immediately above (families are
	// contiguous and sorted).
	families := map[string]bool{}
	var current string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			current = strings.Fields(line)[2]
			if families[current] {
				t.Fatalf("family %s introduced twice", current)
			}
			families[current] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			if name := strings.Fields(line)[2]; name != current {
				t.Fatalf("TYPE %s does not follow its HELP (current %s)", name, current)
			}
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if base != current && name != current {
			t.Fatalf("sample %q outside its family block (current %s)", name, current)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	text := string(data)
	for _, want := range []string{
		"splatt_jobs_completed_total 1",
		`splatt_jobs_by_format_total{format="csf"} 1`,
		`splatt_jobs_by_solver_total{solver="als"} 1`,
		`splatt_solver_routine_seconds_total{routine="MTTKRP"}`,
		`splatt_http_requests_total{code="2xx",method="POST",route="/v1/jobs"} 1`,
		`splatt_http_request_duration_seconds_bucket{method="GET",route="/v1/jobs/{id}",le="+Inf"}`,
		"splatt_queue_capacity 4",
		"splatt_workers_total 1",
		"splatt_tensor_cache_resident 1",
		"splatt_go_goroutines",
		"splatt_process_uptime_seconds",
		`splatt_build_info{go_version=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The JSON document and the exposition are the same instruments.
	m := getMetrics(t, ts.URL)
	if m.Jobs.Completed != 1 || m.Jobs.ByFormat["csf"] != 1 {
		t.Fatalf("JSON metrics disagree with exposition: %+v", m.Jobs)
	}
}

// TestJobCountedBeforeDone pins that the worker counts a finished job
// before its Done() closes, so a client that sees the job finished and
// then reads the metrics finds it in splatt_jobs_completed_total and in
// its format and solver families. Each job is watched from a goroutine
// that polls Done() and reads the counters the moment it closes; with
// the counts taken after the close, some of the 150 jobs read one short.
func TestJobCountedBeforeDone(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})
	up := uploadTensor(t, ts.URL, tnsBytes(t, sptensor.Random([]int{30, 20, 10}, 600, 13)))
	completed, byFormat, bySolver := s.met.jobsCompleted, s.met.format("csf"), s.met.solver("als")
	for n := uint64(1); n <= 150; n++ {
		st, code := submitJob(t, ts.URL, JobSpec{TensorID: up.ID, Format: "csf", Rank: 4, MaxIters: 3, Seed: int64(n)})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d", n, code)
		}
		j, ok := s.lookupJob(st.ID)
		if !ok {
			t.Fatalf("job %d: %s not found", n, st.ID)
		}
		deadline := time.Now().Add(30 * time.Second)
		for done := false; !done; {
			select {
			case <-j.Done():
				done = true
			default:
				if time.Now().After(deadline) {
					t.Fatalf("job %d: not done after 30s", n)
				}
				runtime.Gosched()
			}
		}
		c, f, v := completed.Value(), byFormat.Value(), bySolver.Value()
		if j.State() != StateDone || c != n || f != n || v != n {
			t.Fatalf("job %d %s: completed_total %d, by_format{csf} %d, by_solver{als} %d",
				n, j.State(), c, f, v)
		}
	}
}
