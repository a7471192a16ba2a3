package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
)

// service is an in-process splatt service reached over HTTP, as a client
// of cmd/splatt-serve would reach it.
type service struct {
	srv  *serve.Server
	http *httptest.Server
	c    *client
}

// startService starts a service with one decomposition worker. The tensor
// cache keeps a few revisions: the streaming workload's append chain would
// otherwise keep every revision resident.
func startService(rt http.RoundTripper) *service {
	srv := serve.NewServer(serve.Config{Workers: 1, MaxCachedTensors: 4})
	hs := httptest.NewServer(srv.Handler())
	return &service{srv: srv, http: hs, c: newClient(hs.URL, rt)}
}

// close stops the listener, then cancels and drains the worker pool.
func (s *service) close() {
	s.c.hc.CloseIdleConnections()
	s.http.Close()
	s.srv.Close()
}

// maxConns is the most connections the benchmark opens to a service.
const maxConns = 2

// client makes the benchmark's HTTP calls; every non-2xx answer is an
// error.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, rt http.RoundTripper) *client {
	if rt == nil {
		rt = &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	}
	return &client{base: base, hc: &http.Client{Transport: rt}}
}

// do sends one request and returns the response body.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// call sends one request and decodes the JSON answer into out.
func (c *client) call(method, path string, body []byte, out any) error {
	raw, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

func (c *client) upload(tns []byte) (res serve.IngestResult, err error) {
	err = c.call("POST", "/v1/tensors", tns, &res)
	return
}

func (c *client) appendBatch(id string, tns []byte) (res serve.AppendResult, err error) {
	err = c.call("PATCH", "/v1/tensors/"+id, tns, &res)
	return
}

func (c *client) submit(spec serve.JobSpec) (st serve.JobStatus, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	err = c.call("POST", "/v1/jobs", body, &st)
	return
}

// jobPoll is how often wait asks for a job's state. It bounds how late a
// finished job is noticed, and every poll takes CPU from the job.
const jobPoll = 5 * time.Millisecond

// wait polls a job until it ends and fails unless it finished done. Each
// poll is one attempted operation on led.
func (c *client) wait(led *ledger, id string) (serve.JobStatus, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st serve.JobStatus
		err := c.call("GET", "/v1/jobs/"+id, nil, &st)
		if !led.op(err) {
			return st, err
		}
		switch st.State {
		case serve.StateDone:
			if st.Result == nil || st.Started == nil || st.Finished == nil {
				return st, fmt.Errorf("job %s: done without result or timestamps", id)
			}
			return st, nil
		case serve.StateFailed, serve.StateCancelled:
			return st, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after 2m", id, st.State)
		}
		time.Sleep(jobPoll)
	}
}

func (c *client) profile(id string) (p serve.JobProfile, err error) {
	err = c.call("GET", "/v1/jobs/"+id+"/profile", nil, &p)
	return
}

// queryAnswer is the body of the top-K and similar endpoints.
type queryAnswer struct {
	ModelID string       `json:"model_id"`
	Mode    int          `json:"mode"`
	Items   []model.Item `json:"items"`
}

// entryAnswer is the body of the entry endpoint.
type entryAnswer struct {
	ModelID string  `json:"model_id"`
	Value   float64 `json:"value"`
}

func topKBody(mode int, coord []int, k int) []byte {
	b, _ := json.Marshal(map[string]any{"mode": mode, "coord": coord, "k": k}) // ints only: cannot fail
	return b
}

func similarBody(mode, index, k int) []byte {
	b, _ := json.Marshal(map[string]any{"mode": mode, "index": index, "k": k}) // ints only: cannot fail
	return b
}

func entryPath(modelID string, coord []int) string {
	parts := make([]string, len(coord))
	for i, c := range coord {
		parts[i] = strconv.Itoa(c)
	}
	return "/v1/models/" + modelID + "/entry?coord=" + url.QueryEscape(strings.Join(parts, ","))
}

func (c *client) topK(modelID string, mode int, coord []int, k int) (a queryAnswer, err error) {
	err = c.call("POST", "/v1/models/"+modelID+"/topk", topKBody(mode, coord, k), &a)
	return
}
