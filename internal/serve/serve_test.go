package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sptensor"
)

// tnsBytes renders a synthetic tensor in .tns text form, the shape of a
// client upload.
func tnsBytes(t *testing.T, tensor *sptensor.Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sptensor.WriteTNS(&buf, tensor); err != nil {
		t.Fatalf("WriteTNS: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postBytes(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func uploadTensor(t *testing.T, base string, body []byte) IngestResult {
	t.Helper()
	resp, data := postBytes(t, base+"/v1/tensors", body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, data)
	}
	var res IngestResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("upload: decoding %q: %v", data, err)
	}
	return res
}

func submitJob(t *testing.T, base string, spec JobSpec) (JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, data := postBytes(t, base+"/v1/jobs", body)
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("submit: decoding %q: %v", data, err)
		}
	}
	return st, resp.StatusCode
}

func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("GET job: decode: %v", err)
	}
	return st
}

// waitState polls until the job reaches a terminal state or pred matches.
func waitState(t *testing.T, base, id string, timeout time.Duration, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getJob(t, base, id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timed out in state %s (err=%q)", id, st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(st JobStatus) bool {
	return st.State == StateDone || st.State == StateFailed || st.State == StateCancelled
}

func getMetrics(t *testing.T, base string) Metrics {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	return m
}

// TestEndToEnd is the acceptance scenario: two tensors, eight concurrent
// job submissions, all fits matching a direct core.CPD run to 1e-8, a
// duplicate upload served from the registry without re-parsing, and
// metrics reflecting it all.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueCapacity: 64})

	tensorA := sptensor.Random([]int{30, 25, 20}, 900, 7)
	tensorB := sptensor.Random([]int{24, 18, 14, 10}, 700, 11)
	bytesA := tnsBytes(t, tensorA)
	bytesB := tnsBytes(t, tensorB)

	resA := uploadTensor(t, ts.URL, bytesA)
	resB := uploadTensor(t, ts.URL, bytesB)
	if resA.Cached || resB.Cached {
		t.Fatalf("first uploads must be cold: A=%+v B=%+v", resA, resB)
	}
	if resA.NNZ != tensorA.NNZ() || resB.NNZ != tensorB.NNZ() {
		t.Fatalf("upload nnz mismatch: %d/%d, %d/%d", resA.NNZ, tensorA.NNZ(), resB.NNZ, tensorB.NNZ())
	}

	// Duplicate upload of the same bytes: registry hit, no re-parse.
	resDup := uploadTensor(t, ts.URL, bytesA)
	if !resDup.Cached || resDup.ID != resA.ID {
		t.Fatalf("duplicate upload not served from cache: %+v vs %+v", resDup, resA)
	}
	m := getMetrics(t, ts.URL)
	if m.Cache.Hits < 1 || m.Cache.Misses != 2 {
		t.Fatalf("cache counters after duplicate upload: hits=%d misses=%d", m.Cache.Hits, m.Cache.Misses)
	}

	// Eight concurrent submissions across the two tensors.
	type jobCase struct {
		spec   JobSpec
		tensor *sptensor.Tensor
	}
	var cases []jobCase
	for i := 0; i < 8; i++ {
		id, tensor := resA.ID, tensorA
		if i%2 == 1 {
			id, tensor = resB.ID, tensorB
		}
		cases = append(cases, jobCase{
			spec: JobSpec{
				TensorID: id,
				Kind:     KindCPD,
				Rank:     6 + i%3,
				MaxIters: 8,
				Seed:     int64(100 + i),
				Tasks:    1 + i%2,
				Priority: i % 4,
			},
			tensor: tensor,
		})
	}

	ids := make([]string, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c jobCase) {
			defer wg.Done()
			st, code := submitJob(t, ts.URL, c.spec)
			if code != http.StatusAccepted {
				t.Errorf("job %d: submit status %d", i, code)
				return
			}
			ids[i] = st.ID
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, c := range cases {
		st := waitState(t, ts.URL, ids[i], 60*time.Second, terminal)
		if st.State != StateDone {
			t.Fatalf("job %d (%s): state %s err %q", i, ids[i], st.State, st.Error)
		}
		_, want, err := core.CPD(c.tensor, c.spec.coreOptions(nil))
		if err != nil {
			t.Fatalf("job %d: direct CPD: %v", i, err)
		}
		if math.Abs(st.Result.Fit-want.Fit) > 1e-8 {
			t.Fatalf("job %d: served fit %.12f != direct fit %.12f", i, st.Result.Fit, want.Fit)
		}
		if st.Result.Iterations != want.Iterations {
			t.Fatalf("job %d: iterations %d != %d", i, st.Result.Iterations, want.Iterations)
		}
	}

	// No re-parse happened for any job: misses stay at the two cold
	// ingests, and all eight jobs completed.
	m = getMetrics(t, ts.URL)
	if m.Cache.Misses != 2 {
		t.Fatalf("jobs triggered re-parses: misses=%d", m.Cache.Misses)
	}
	if m.Jobs.Completed < 8 {
		t.Fatalf("completed=%d, want >= 8", m.Jobs.Completed)
	}
	if m.RoutineSeconds["MTTKRP"] <= 0 {
		t.Fatalf("metrics missing aggregated MTTKRP time: %+v", m.RoutineSeconds)
	}
}
