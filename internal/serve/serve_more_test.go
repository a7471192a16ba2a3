package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/sptensor"
)

func deleteJob(t *testing.T, base, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestCancelRunningJob verifies DELETE on a running job stops the ALS loop
// mid-run: the job terminates as cancelled long before its (absurd)
// iteration budget, i.e. within one ALS iteration of the cancel.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 8})

	tensor := sptensor.Random([]int{80, 60, 40}, 30000, 3)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))

	st, code := submitJob(t, ts.URL, JobSpec{
		TensorID: res.ID,
		Kind:     KindCPD,
		Rank:     16,
		MaxIters: 1000000, // would run ~forever without cancellation
		Seed:     5,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	waitState(t, ts.URL, st.ID, 30*time.Second, func(s JobStatus) bool {
		return s.State == StateRunning
	})
	time.Sleep(20 * time.Millisecond) // let it get into the iteration loop

	resp, data := deleteJob(t, ts.URL, st.ID)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d: %s", resp.StatusCode, data)
	}
	cancelAt := time.Now()

	final := waitState(t, ts.URL, st.ID, 30*time.Second, terminal)
	if final.State != StateCancelled {
		t.Fatalf("state %s after DELETE, want cancelled (err=%q)", final.State, final.Error)
	}
	if took := time.Since(cancelAt); took > 10*time.Second {
		t.Fatalf("cancellation took %v, not within one ALS iteration", took)
	}
	if final.Result == nil || final.Result.Iterations >= 1000000 {
		t.Fatalf("expected a partial result, got %+v", final.Result)
	}

	m := getMetrics(t, ts.URL)
	if m.Jobs.Cancelled < 1 {
		t.Fatalf("metrics cancelled=%d, want >= 1", m.Jobs.Cancelled)
	}

	// A second DELETE of a finished job conflicts.
	resp, _ = deleteJob(t, ts.URL, st.ID)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE: status %d, want 409", resp.StatusCode)
	}
}

// TestCancelQueuedJob verifies DELETE on a not-yet-started job cancels it
// without it ever running.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 8})

	tensor := sptensor.Random([]int{60, 50, 40}, 20000, 9)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))

	blocker, code := submitJob(t, ts.URL, JobSpec{TensorID: res.ID, Rank: 12, MaxIters: 1000000, Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	waitState(t, ts.URL, blocker.ID, 30*time.Second, func(s JobStatus) bool {
		return s.State == StateRunning
	})

	queued, code := submitJob(t, ts.URL, JobSpec{TensorID: res.ID, Rank: 4, MaxIters: 5, Seed: 2})
	if code != http.StatusAccepted {
		t.Fatalf("queued: status %d", code)
	}
	if resp, data := deleteJob(t, ts.URL, queued.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued: status %d: %s", resp.StatusCode, data)
	}
	st := getJob(t, ts.URL, queued.ID)
	if st.State != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled", st.State)
	}
	if st.Started != nil {
		t.Fatalf("cancelled queued job has a start time: %+v", st)
	}
	deleteJob(t, ts.URL, blocker.ID)
}

// TestBackpressure fills the queue behind a blocked worker and verifies
// the next submission is rejected with 503.
func TestBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 2})

	tensor := sptensor.Random([]int{60, 50, 40}, 20000, 13)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))
	long := JobSpec{TensorID: res.ID, Rank: 12, MaxIters: 1000000, Seed: 1}

	blocker, code := submitJob(t, ts.URL, long)
	if code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	waitState(t, ts.URL, blocker.ID, 30*time.Second, func(s JobStatus) bool {
		return s.State == StateRunning
	})

	for i := 0; i < 2; i++ {
		if _, code := submitJob(t, ts.URL, long); code != http.StatusAccepted {
			t.Fatalf("fill %d: status %d", i, code)
		}
	}
	_, code = submitJob(t, ts.URL, long)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d, want 503", code)
	}
	m := getMetrics(t, ts.URL)
	if m.Queue.Rejected < 1 {
		t.Fatalf("metrics rejected=%d, want >= 1", m.Queue.Rejected)
	}
	deleteJob(t, ts.URL, blocker.ID)
}

// TestPriorityOrdering verifies high-priority jobs overtake earlier
// low-priority submissions while a single worker is busy.
func TestPriorityOrdering(t *testing.T) {
	q := NewQueue(8)
	mk := func(seq uint64, prio int) *Job {
		return newJob(fmt.Sprintf("j%d", seq), seq, JobSpec{Priority: prio}, nil, 8, 8)
	}
	if err := q.Push(mk(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(2, 5)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(3, 5)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(4, 1)); err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"j2", "j3", "j4", "j1"}
	for _, want := range wantOrder {
		j, ok := q.Pop()
		if !ok || j.ID != want {
			t.Fatalf("pop order: got %v (ok=%v), want %s", j, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d", q.Len())
	}
}

// TestQueueFull exercises the bounded Push directly.
func TestQueueFull(t *testing.T) {
	q := NewQueue(1)
	if err := q.Push(newJob("a", 1, JobSpec{}, nil, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(newJob("b", 2, JobSpec{}, nil, 8, 8)); err != ErrQueueFull {
		t.Fatalf("second push: %v, want ErrQueueFull", err)
	}
	q.Close()
	if err := q.Push(newJob("c", 3, JobSpec{}, nil, 8, 8)); err != ErrQueueClosed {
		t.Fatalf("push after close: %v, want ErrQueueClosed", err)
	}
}

// TestRegistryLRU verifies eviction order, byte accounting, and that a
// re-upload of an evicted tensor is a cold miss again.
func TestRegistryLRU(t *testing.T) {
	rg := NewRegistry(2, 0)
	up := func(seed int64) (IngestResult, []byte) {
		tensor := sptensor.Random([]int{10, 10, 10}, 50, seed)
		var buf bytes.Buffer
		if err := sptensor.WriteTNS(&buf, tensor); err != nil {
			t.Fatal(err)
		}
		res, err := rg.Ingest(bytes.NewReader(buf.Bytes()), 1<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	a, rawA := up(1)
	up(2)
	up(3) // evicts a (least recently used)

	if _, ok := rg.Lookup(a.ID); ok {
		t.Fatalf("tensor %s not evicted", shortID(a.ID))
	}
	st := rg.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	res, err := rg.Ingest(bytes.NewReader(rawA), 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatalf("evicted tensor reported cached")
	}
	if got := rg.Stats(); got.Misses != 4 || got.Hits != 0 {
		t.Fatalf("counters: %+v", got)
	}
}

// TestRegistryPinBlocksEviction verifies a pinned (running-job) tensor
// survives budget pressure.
func TestRegistryPinBlocksEviction(t *testing.T) {
	rg := NewRegistry(1, 0)
	tensorA := sptensor.Random([]int{10, 10, 10}, 50, 21)
	var bufA bytes.Buffer
	if err := sptensor.WriteTNS(&bufA, tensorA); err != nil {
		t.Fatal(err)
	}
	resA, err := rg.Ingest(bytes.NewReader(bufA.Bytes()), 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rg.Pin(resA.ID); err != nil {
		t.Fatal(err)
	}

	tensorB := sptensor.Random([]int{10, 10, 10}, 50, 22)
	var bufB bytes.Buffer
	if err := sptensor.WriteTNS(&bufB, tensorB); err != nil {
		t.Fatal(err)
	}
	if _, err := rg.Ingest(bytes.NewReader(bufB.Bytes()), 1<<20, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := rg.Lookup(resA.ID); !ok {
		t.Fatalf("pinned tensor was evicted")
	}
	rg.Unpin(resA.ID)
}

// TestJobHistoryBounded verifies terminal jobs are pruned beyond
// MaxJobHistory so a long-lived service cannot grow without bound.
func TestJobHistoryBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 8, MaxJobHistory: 2})
	tensor := sptensor.Random([]int{10, 10, 10}, 60, 5)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))

	var ids []string
	for i := 0; i < 4; i++ {
		st, code := submitJob(t, ts.URL, JobSpec{TensorID: res.ID, Rank: 3, MaxIters: 2, Seed: int64(i + 1)})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		waitState(t, ts.URL, st.ID, 30*time.Second, terminal)
		ids = append(ids, st.ID)
	}
	// Oldest two pruned, newest two retained.
	for _, id := range ids[:2] {
		if code := getJobStatusCode(t, ts.URL+"/v1/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("pruned job %s: status %d, want 404", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code := getJobStatusCode(t, ts.URL+"/v1/jobs/"+id); code != http.StatusOK {
			t.Fatalf("retained job %s: status %d, want 200", id, code)
		}
	}
}

// TestQueuedJobSurvivesEviction verifies the submission-time pin: a job
// accepted against a tensor still runs even if later uploads would have
// LRU-evicted that tensor while the job waited in the queue.
func TestQueuedJobSurvivesEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 8, MaxCachedTensors: 1})

	tensor := sptensor.Random([]int{60, 50, 40}, 20000, 31)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))

	// Occupy the worker, then queue a job on the pinned tensor.
	blocker, code := submitJob(t, ts.URL, JobSpec{TensorID: res.ID, Rank: 12, MaxIters: 1000000, Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	waitState(t, ts.URL, blocker.ID, 30*time.Second, func(s JobStatus) bool {
		return s.State == StateRunning
	})
	queued, code := submitJob(t, ts.URL, JobSpec{TensorID: res.ID, Rank: 3, MaxIters: 2, Seed: 2})
	if code != http.StatusAccepted {
		t.Fatalf("queued: status %d", code)
	}

	// Pressure the 1-entry cache with fresh uploads; the pinned tensor
	// must survive.
	for i := 0; i < 3; i++ {
		uploadTensor(t, ts.URL, tnsBytes(t, sptensor.Random([]int{10, 10, 10}, 40, int64(40+i))))
	}

	deleteJob(t, ts.URL, blocker.ID)
	st := waitState(t, ts.URL, queued.ID, 60*time.Second, terminal)
	if st.State != StateDone {
		t.Fatalf("queued job after cache churn: state %s err %q", st.State, st.Error)
	}
}

// TestRetiredJobReleasesTensor pins that a finished job does not keep its
// tensor reachable after the registry evicts it: retired jobs stay in the
// bounded history, so a retained pointer would let evicted revisions
// escape MaxCachedTensors.
func TestRetiredJobReleasesTensor(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxCachedTensors: 1})
	res := uploadTensor(t, ts.URL, tnsBytes(t, sptensor.Random([]int{12, 10, 8}, 300, 41)))
	tensor, err := s.registry.Pin(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref := weak.Make(tensor)
	s.registry.Unpin(res.ID)

	st, code := submitJob(t, ts.URL, JobSpec{TensorID: res.ID, Rank: 3, MaxIters: 2, Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts.URL, st.ID, 30*time.Second, terminal)
	s.Close() // the worker has retired the job once the pool drains

	// A second upload evicts the job's tensor from the one-entry cache.
	uploadTensor(t, ts.URL, tnsBytes(t, sptensor.Random([]int{10, 10, 10}, 40, 42)))
	if _, ok := s.registry.Lookup(res.ID); ok {
		t.Fatal("job tensor not evicted")
	}
	if _, ok := s.lookupJob(st.ID); !ok {
		t.Fatal("retired job missing from history")
	}
	runtime.GC()
	if ref.Value() != nil {
		t.Error("retired job keeps its evicted tensor reachable")
	}
}

// TestAPIErrors covers the failure surface of the HTTP layer.
func TestAPIErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 4})

	// Malformed upload.
	resp, _ := postBytes(t, ts.URL+"/v1/tensors", []byte("1 2 notanumber\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad upload: status %d", resp.StatusCode)
	}

	// Job against a tensor that was never uploaded.
	body, _ := json.Marshal(JobSpec{TensorID: "deadbeef"})
	resp, _ = postBytes(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job on missing tensor: status %d", resp.StatusCode)
	}

	// Unknown job kind.
	tensor := sptensor.Random([]int{8, 8, 8}, 40, 1)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))
	body, _ = json.Marshal(JobSpec{TensorID: res.ID, Kind: "qr"})
	resp, _ = postBytes(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", resp.StatusCode)
	}

	// Unknown job / tensor lookups.
	if st := getJobStatusCode(t, ts.URL+"/v1/jobs/nope"); st != http.StatusNotFound {
		t.Fatalf("missing job: status %d", st)
	}
	if st := getJobStatusCode(t, ts.URL+"/v1/tensors/nope"); st != http.StatusNotFound {
		t.Fatalf("missing tensor: status %d", st)
	}

	// Upload above the size limit: 413 with the envelope's too_large code.
	_, ts2 := newTestServer(t, Config{Workers: 1, QueueCapacity: 4, MaxUploadBytes: 16})
	resp, data := postBytes(t, ts2.URL+"/v1/tensors", bytes.Repeat([]byte("1 1 1 1.0\n"), 10))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != "too_large" {
		t.Fatalf("oversized upload envelope: %s (err=%v)", data, err)
	}

	// Tensor with an over-long mode is rejected AND not left resident.
	s3, ts3 := newTestServer(t, Config{Workers: 1, QueueCapacity: 4, MaxModeLength: 100})
	resp, _ = postBytes(t, ts3.URL+"/v1/tensors", []byte("1 1 1 1.0\n500 1 1 2.0\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-long mode: status %d", resp.StatusCode)
	}
	if tensors := s3.Registry().List(); len(tensors) != 0 {
		t.Fatalf("rejected tensor left resident: %+v", tensors)
	}
}

func getJobStatusCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDistAndCompletionKinds smoke-tests the two other engines through the
// API.
func TestDistAndCompletionKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCapacity: 8})
	tensor := sptensor.Random([]int{24, 20, 16}, 800, 17)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))

	dj, code := submitJob(t, ts.URL, JobSpec{
		TensorID: res.ID, Kind: KindDistributed, Rank: 6, MaxIters: 5, Locales: 2, Seed: 3,
	})
	if code != http.StatusAccepted {
		t.Fatalf("dist submit: %d", code)
	}
	cj, code := submitJob(t, ts.URL, JobSpec{
		TensorID: res.ID, Kind: KindComplete, Rank: 4, MaxIters: 6, Seed: 3,
	})
	if code != http.StatusAccepted {
		t.Fatalf("complete submit: %d", code)
	}

	dst := waitState(t, ts.URL, dj.ID, 60*time.Second, terminal)
	if dst.State != StateDone || dst.Result == nil || dst.Result.CommBytes <= 0 {
		t.Fatalf("dist job: %+v (err=%q)", dst.Result, dst.Error)
	}
	cst := waitState(t, ts.URL, cj.ID, 60*time.Second, terminal)
	if cst.State != StateDone || cst.Result == nil || cst.Result.RMSE <= 0 {
		t.Fatalf("completion job: %+v (err=%q)", cst.Result, cst.Error)
	}
}
