package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sptensor"
)

// decodeEnvelope asserts a response carries the uniform error envelope and
// returns its code.
func decodeEnvelope(t *testing.T, data []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("error body is not the envelope: %q (%v)", data, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %q", data)
	}
	return env.Error.Code
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// kruskalUploadOf renders a Kruskal tensor in the POST /v1/models wire form.
func kruskalUploadOf(k *core.KruskalTensor) KruskalUpload {
	u := KruskalUpload{Lambda: append([]float64(nil), k.Lambda...)}
	for _, f := range k.Factors {
		rows := make([][]float64, f.Rows)
		for i := range rows {
			rows[i] = append([]float64(nil), f.Row(i)...)
		}
		u.Factors = append(u.Factors, rows)
	}
	return u
}

// TestModelLifecycle is the serving acceptance scenario: a publish:true job
// produces a resident model whose queries round-trip against the directly
// computed Kruskal result to 1e-12, and DELETE retires it.
func TestModelLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	tensor := sptensor.Random([]int{25, 20, 15}, 700, 3)
	res := uploadTensor(t, ts.URL, tnsBytes(t, tensor))

	spec := JobSpec{
		TensorID: res.ID,
		Kind:     KindCPD,
		Rank:     5,
		MaxIters: 10,
		Seed:     42,
		Tasks:    1, // single-task runs are deterministic
		Publish:  true,
	}
	st, code := submitJob(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	st = waitState(t, ts.URL, st.ID, 30*time.Second, terminal)
	if st.State != StateDone {
		t.Fatalf("job state %s (err=%q)", st.State, st.Error)
	}
	if st.Result == nil || st.Result.ModelID == "" {
		t.Fatalf("publish:true job has no model_id: %+v", st.Result)
	}
	modelID := st.Result.ModelID

	// The same decomposition computed directly is the ground truth.
	k, _, err := core.CPD(tensor, spec.coreOptions(nil))
	if err != nil {
		t.Fatalf("direct CPD: %v", err)
	}
	want, err := model.Build(k)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if want.ID() != modelID {
		t.Fatalf("published model ID %s, direct build %s (nondeterministic run?)", modelID, want.ID())
	}

	// Listed with provenance.
	resp, data := doJSON(t, "GET", ts.URL+"/v1/models", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list models: status %d: %s", resp.StatusCode, data)
	}
	var infos []model.Info
	if err := json.Unmarshal(data, &infos); err != nil {
		t.Fatalf("list models: %v", err)
	}
	if len(infos) != 1 || infos[0].ID != modelID || infos[0].TensorID != res.ID || infos[0].JobID != st.ID {
		t.Fatalf("model listing: %+v", infos)
	}

	// Entry reconstruction round-trips against the direct result.
	ic := []sptensor.Index{3, 4, 5}
	resp, data = doJSON(t, "GET",
		fmt.Sprintf("%s/v1/models/%s/entry?coord=3,4,5", ts.URL, modelID), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("entry: status %d: %s", resp.StatusCode, data)
	}
	var entry entryResponse
	if err := json.Unmarshal(data, &entry); err != nil {
		t.Fatalf("entry decode: %v", err)
	}
	if got, wantV := entry.Value, k.At(ic); math.Abs(got-wantV) > 1e-12 {
		t.Fatalf("entry = %.15g, direct Kruskal = %.15g", got, wantV)
	}

	// Top-K matches a brute-force ranking of the direct result.
	const K = 5
	resp, data = doJSON(t, "POST", ts.URL+"/v1/models/"+modelID+"/topk",
		topKRequest{Mode: 0, Coord: []int{0, 4, 5}, K: K})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: status %d: %s", resp.StatusCode, data)
	}
	var qr queryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("topk decode: %v", err)
	}
	if len(qr.Items) != K {
		t.Fatalf("topk returned %d items, want %d", len(qr.Items), K)
	}
	for rank, it := range qr.Items {
		direct := k.At([]sptensor.Index{it.Index, 4, 5})
		if math.Abs(it.Score-direct) > 1e-12 {
			t.Fatalf("topk rank %d (index %d): score %.15g, direct %.15g",
				rank, it.Index, it.Score, direct)
		}
		if rank > 0 && it.Score > qr.Items[rank-1].Score {
			t.Fatalf("topk scores not descending at rank %d", rank)
		}
	}

	// Similar round-trips against the local query kernels.
	resp, data = doJSON(t, "POST", ts.URL+"/v1/models/"+modelID+"/similar",
		similarRequest{Mode: 1, Index: 2, K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("similar: status %d: %s", resp.StatusCode, data)
	}
	qr = queryResponse{}
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("similar decode: %v", err)
	}
	wsLocal := model.NewWorkspace()
	wantItems, err := want.Similar(wsLocal, 1, 2, 4, nil)
	if err != nil {
		t.Fatalf("local Similar: %v", err)
	}
	if len(qr.Items) != len(wantItems) {
		t.Fatalf("similar returned %d items, want %d", len(qr.Items), len(wantItems))
	}
	for i := range wantItems {
		if qr.Items[i].Index != wantItems[i].Index ||
			math.Abs(qr.Items[i].Score-wantItems[i].Score) > 1e-12 {
			t.Fatalf("similar rank %d: got %+v, want %+v", i, qr.Items[i], wantItems[i])
		}
	}

	// Metrics observed it all.
	m := getMetrics(t, ts.URL)
	if m.Jobs.Published != 1 {
		t.Fatalf("published counter = %d, want 1", m.Jobs.Published)
	}
	if m.Models.Entries != 1 {
		t.Fatalf("model cache entries = %d, want 1", m.Models.Entries)
	}
	for _, ep := range []string{"entry", "topk", "similar"} {
		q, ok := m.ModelQueries[ep]
		if !ok || q.Count < 1 {
			t.Fatalf("model query stats missing endpoint %s: %+v", ep, m.ModelQueries)
		}
	}

	// Delete retires the model; subsequent queries 404 with the envelope.
	resp, data = doJSON(t, "DELETE", ts.URL+"/v1/models/"+modelID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete model: status %d: %s", resp.StatusCode, data)
	}
	resp, data = doJSON(t, "GET", ts.URL+"/v1/models/"+modelID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
	if code := decodeEnvelope(t, data); code != "not_found" {
		t.Fatalf("get after delete: code %q", code)
	}
}

// TestDirectModelPublish covers POST /v1/models: offline factors become a
// queryable model, identical content dedupes, malformed uploads 400.
func TestDirectModelPublish(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	k := core.NewRandomKruskal([]int{12, 9, 7}, 4, 8)
	k.Lambda[2] = -0.75 // exercise sign folding through the wire format

	resp, data := doJSON(t, "POST", ts.URL+"/v1/models", kruskalUploadOf(k))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish: status %d: %s", resp.StatusCode, data)
	}
	var info model.Info
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("publish decode: %v", err)
	}

	// Same content again: dedupe, 200 not 201.
	resp, _ = doJSON(t, "POST", ts.URL+"/v1/models", kruskalUploadOf(k))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate publish: status %d, want 200", resp.StatusCode)
	}

	resp, data = doJSON(t, "GET",
		fmt.Sprintf("%s/v1/models/%s/entry?coord=1,2,3", ts.URL, info.ID), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("entry: status %d: %s", resp.StatusCode, data)
	}
	var entry entryResponse
	if err := json.Unmarshal(data, &entry); err != nil {
		t.Fatalf("entry decode: %v", err)
	}
	if want := k.At([]sptensor.Index{1, 2, 3}); math.Abs(entry.Value-want) > 1e-12 {
		t.Fatalf("entry = %.15g, direct = %.15g", entry.Value, want)
	}

	// Ragged factor row: 400 with envelope.
	bad := kruskalUploadOf(k)
	bad.Factors[1][3] = bad.Factors[1][3][:2]
	resp, data = doJSON(t, "POST", ts.URL+"/v1/models", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged upload: status %d", resp.StatusCode)
	}
	if code := decodeEnvelope(t, data); code != "bad_request" {
		t.Fatalf("ragged upload: code %q", code)
	}
}

// TestErrorEnvelopeEverywhere sweeps the failure paths of the API surface:
// every one must return {"error":{"code","message"}} with the right code.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	k := core.NewRandomKruskal([]int{6, 5, 4}, 3, 1)
	resp, data := doJSON(t, "POST", ts.URL+"/v1/models", kruskalUploadOf(k))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("seed model: status %d: %s", resp.StatusCode, data)
	}
	var info model.Info
	_ = json.Unmarshal(data, &info)
	up := uploadTensor(t, ts.URL, []byte("1 1 1 1.0\n2 2 2 2.0\n"))

	cases := []struct {
		name     string
		method   string
		path     string
		body     any
		status   int
		wantCode string
	}{
		{"tensor 404", "GET", "/v1/tensors/deadbeef", nil, 404, "not_found"},
		{"tensor delete 404", "DELETE", "/v1/tensors/deadbeef", nil, 404, "not_found"},
		{"job 404", "GET", "/v1/jobs/job-999999", nil, 404, "not_found"},
		{"job cancel 404", "DELETE", "/v1/jobs/job-999999", nil, 404, "not_found"},
		{"job bad spec", "POST", "/v1/jobs", map[string]any{"tensor_id": ""}, 400, "bad_request"},
		{"job unknown field", "POST", "/v1/jobs", map[string]any{"tensor_id": "x", "nope": 1}, 400, "bad_request"},
		{"job unknown tensor", "POST", "/v1/jobs", JobSpec{TensorID: "deadbeef"}, 404, "not_found"},
		{"jobs bad status filter", "GET", "/v1/jobs?status=bogus", nil, 400, "bad_request"},
		{"jobs bad limit", "GET", "/v1/jobs?limit=-1", nil, 400, "bad_request"},
		{"tensors bad offset", "GET", "/v1/tensors?offset=x", nil, 400, "bad_request"},
		{"model 404", "GET", "/v1/models/deadbeef", nil, 404, "not_found"},
		{"model delete 404", "DELETE", "/v1/models/deadbeef", nil, 404, "not_found"},
		{"model entry 404", "GET", "/v1/models/deadbeef/entry?coord=0,0,0", nil, 404, "not_found"},
		{"model topk 404", "POST", "/v1/models/deadbeef/topk", topKRequest{K: 1}, 404, "not_found"},
		{"model publish bad body", "POST", "/v1/models", map[string]any{"lambda": []float64{}}, 400, "bad_request"},
		{"entry missing coord", "GET", "/v1/models/" + info.ID + "/entry", nil, 400, "bad_request"},
		{"entry bad coord", "GET", "/v1/models/" + info.ID + "/entry?coord=1,zap,3", nil, 400, "bad_request"},
		{"entry out of range", "GET", "/v1/models/" + info.ID + "/entry?coord=99,0,0", nil, 400, "bad_request"},
		{"topk bad mode", "POST", "/v1/models/" + info.ID + "/topk",
			topKRequest{Mode: 9, Coord: []int{0, 0, 0}, K: 2}, 400, "bad_request"},
		{"topk zero k", "POST", "/v1/models/" + info.ID + "/topk",
			topKRequest{Mode: 0, Coord: []int{0, 0, 0}, K: 0}, 400, "bad_request"},
		{"topk garbage body", "POST", "/v1/models/" + info.ID + "/topk",
			map[string]any{"mode": "zero"}, 400, "bad_request"},
		{"similar bad index", "POST", "/v1/models/" + info.ID + "/similar",
			similarRequest{Mode: 0, Index: 99, K: 2}, 400, "bad_request"},
		{"append 404", "PATCH", "/v1/tensors/deadbeef", nil, 404, "not_found"},
		{"append empty batch", "PATCH", "/v1/tensors/" + up.ID, nil, 400, "bad_request"},
		{"append garbage batch", "PATCH", "/v1/tensors/" + up.ID,
			map[string]any{"not": "a tensor"}, 400, "bad_request"},
		{"revisions 404", "GET", "/v1/tensors/deadbeef/revisions", nil, 404, "not_found"},
		{"revisions bad limit", "GET", "/v1/tensors/" + up.ID + "/revisions?limit=-1", nil, 400, "bad_request"},
		{"revisions bad offset", "GET", "/v1/tensors/" + up.ID + "/revisions?offset=zap", nil, 400, "bad_request"},
		{"warm start wrong kind", "POST", "/v1/jobs",
			JobSpec{TensorID: up.ID, Kind: KindComplete, WarmStart: "auto"}, 400, "bad_request"},
	}
	for _, c := range cases {
		resp, data := doJSON(t, c.method, ts.URL+c.path, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, data)
			continue
		}
		if code := decodeEnvelope(t, data); code != c.wantCode {
			t.Errorf("%s: code %q, want %q", c.name, code, c.wantCode)
		}
	}
}

// TestDeleteTensor covers the new DELETE /v1/tensors/{id}: free tensors go,
// pinned tensors 409 until their jobs retire.
func TestDeleteTensor(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	free := uploadTensor(t, ts.URL, tnsBytes(t, sptensor.Random([]int{10, 8, 6}, 100, 1)))
	resp, data := doJSON(t, "DELETE", ts.URL+"/v1/tensors/"+free.ID, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete free tensor: status %d: %s", resp.StatusCode, data)
	}
	resp, _ = doJSON(t, "GET", ts.URL+"/v1/tensors/"+free.ID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
	resp, data = doJSON(t, "DELETE", ts.URL+"/v1/tensors/"+free.ID, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d", resp.StatusCode)
	}
	decodeEnvelope(t, data)

	// A long-running job pins its tensor; DELETE must 409 while it runs.
	busy := uploadTensor(t, ts.URL, tnsBytes(t, sptensor.Random([]int{20, 16, 12}, 500, 2)))
	st, code := submitJob(t, ts.URL, JobSpec{TensorID: busy.ID, Rank: 8, MaxIters: 100000})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, ts.URL, st.ID, 10*time.Second, func(s JobStatus) bool {
		return s.State == StateRunning
	})
	resp, data = doJSON(t, "DELETE", ts.URL+"/v1/tensors/"+busy.ID, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete pinned tensor: status %d: %s", resp.StatusCode, data)
	}
	if code := decodeEnvelope(t, data); code != "conflict" {
		t.Fatalf("delete pinned tensor: code %q", code)
	}

	// Cancel the job; the retiring worker unpins and the delete goes through.
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	waitState(t, ts.URL, st.ID, 10*time.Second, terminal)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/tensors/"+busy.ID, nil)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pinned tensor never became deletable: last status %d", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPaginationAndAliases covers ?limit=&offset=&status= with
// X-Total-Count, and that the retired unversioned aliases answer 404.
func TestPaginationAndAliases(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var tensorIDs []string
	for seed := int64(1); seed <= 3; seed++ {
		res := uploadTensor(t, ts.URL, tnsBytes(t, sptensor.Random([]int{8, 7, 6}, 60, seed)))
		tensorIDs = append(tensorIDs, res.ID)
	}

	resp, data := doJSON(t, "GET", ts.URL+"/v1/tensors?limit=2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Total-Count"); got != "3" {
		t.Fatalf("X-Total-Count = %q, want 3", got)
	}
	var page []TensorInfo
	if err := json.Unmarshal(data, &page); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if len(page) != 2 {
		t.Fatalf("limit=2 returned %d tensors", len(page))
	}
	resp, data = doJSON(t, "GET", ts.URL+"/v1/tensors?limit=2&offset=2", nil)
	var rest []TensorInfo
	_ = json.Unmarshal(data, &rest)
	if len(rest) != 1 {
		t.Fatalf("offset=2 returned %d tensors, want 1", len(rest))
	}
	// The two pages tile the full listing with no overlap or gap.
	seen := map[string]bool{}
	for _, info := range append(page, rest...) {
		seen[info.ID] = true
	}
	for _, id := range tensorIDs {
		if !seen[id] {
			t.Fatalf("paged listing dropped tensor %s", id)
		}
	}
	// Offset past the end: empty page, not an error.
	resp, data = doJSON(t, "GET", ts.URL+"/v1/tensors?offset=99", nil)
	var empty []TensorInfo
	_ = json.Unmarshal(data, &empty)
	if resp.StatusCode != http.StatusOK || len(empty) != 0 {
		t.Fatalf("offset past end: status %d, %d items", resp.StatusCode, len(empty))
	}

	// Jobs: run three to completion, check the status filter and paging.
	var jobIDs []string
	for i := 0; i < 3; i++ {
		st, code := submitJob(t, ts.URL, JobSpec{
			TensorID: tensorIDs[i], Rank: 3, MaxIters: 2, Seed: int64(i + 1)})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		jobIDs = append(jobIDs, st.ID)
	}
	for _, id := range jobIDs {
		waitState(t, ts.URL, id, 20*time.Second, terminal)
	}
	resp, data = doJSON(t, "GET", ts.URL+"/v1/jobs?status=done&limit=2", nil)
	if got := resp.Header.Get("X-Total-Count"); got != "3" {
		t.Fatalf("jobs X-Total-Count = %q, want 3", got)
	}
	var jobs []JobStatus
	if err := json.Unmarshal(data, &jobs); err != nil {
		t.Fatalf("jobs decode: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs limit=2 returned %d", len(jobs))
	}
	// Deterministic submission order.
	if jobs[0].ID != jobIDs[0] || jobs[1].ID != jobIDs[1] {
		t.Fatalf("jobs not in submission order: %s, %s", jobs[0].ID, jobs[1].ID)
	}
	resp, data = doJSON(t, "GET", ts.URL+"/v1/jobs?status=failed", nil)
	var failed []JobStatus
	_ = json.Unmarshal(data, &failed)
	if len(failed) != 0 {
		t.Fatalf("status=failed returned %d jobs", len(failed))
	}

	// The unversioned aliases are gone: only /v1 is mounted.
	if resp, _ := doJSON(t, "GET", ts.URL+"/tensors", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unversioned /tensors: status %d, want 404", resp.StatusCode)
	}
}

// TestModelQueryEvictionRace hammers queries against a model registry in
// LRU churn (capacity 2, six distinct models being republished and deleted
// concurrently). Queries may 404 when their model loses the cache race, but
// must never 5xx, corrupt a response, or trip the race detector.
func TestModelQueryEvictionRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxCachedModels: 2})

	uploads := make([]KruskalUpload, 6)
	ids := make([]string, 6)
	for i := range uploads {
		k := core.NewRandomKruskal([]int{30, 20, 10}, 4, int64(i+1))
		uploads[i] = kruskalUploadOf(k)
		resp, data := doJSON(t, "POST", ts.URL+"/v1/models", uploads[i])
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("seed publish %d: status %d", i, resp.StatusCode)
		}
		var info model.Info
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatalf("seed publish %d: %v", i, err)
		}
		ids[i] = info.ID
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := (g + i) % len(ids)
				switch i % 4 {
				case 0: // republish (dedupe or re-admit after eviction)
					resp, _ := doJSON(t, "POST", ts.URL+"/v1/models", uploads[n])
					if resp.StatusCode >= 500 {
						t.Errorf("publish 5xx: %d", resp.StatusCode)
					}
				case 1:
					resp, data := doJSON(t, "POST", ts.URL+"/v1/models/"+ids[n]+"/topk",
						topKRequest{Mode: 0, Coord: []int{0, 3, 2}, K: 5})
					switch resp.StatusCode {
					case http.StatusOK:
						var qr queryResponse
						if err := json.Unmarshal(data, &qr); err != nil || len(qr.Items) != 5 {
							t.Errorf("topk under churn: %v (%d items)", err, len(qr.Items))
						}
					case http.StatusNotFound: // lost the LRU race — fine
					default:
						t.Errorf("topk under churn: status %d", resp.StatusCode)
					}
				case 2:
					resp, _ := doJSON(t, "GET",
						fmt.Sprintf("%s/v1/models/%s/entry?coord=1,2,3", ts.URL, ids[n]), nil)
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						t.Errorf("entry under churn: status %d", resp.StatusCode)
					}
				case 3:
					resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/models/"+ids[n], nil)
					// 409 = pinned by a concurrent query; also fine.
					if resp.StatusCode >= 500 {
						t.Errorf("delete 5xx: %d", resp.StatusCode)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
