// Package serve is the long-running decomposition service layered on top
// of the compute stack: a content-addressed tensor registry with LRU
// eviction (repeated jobs on the same tensor bytes skip ingest entirely),
// a bounded priority job queue feeding a worker pool that dispatches to
// the CPD / distributed-CPD / completion engines with per-job context
// cancellation threaded into the ALS iteration loop, a content-addressed
// Kruskal-model registry into which completed jobs publish their result,
// sub-millisecond model query endpoints (entry / top-K / similar), and a
// versioned HTTP JSON API (cmd/splatt-serve) exposing uploads, job
// control, model serving, and metrics.
//
// The design follows the argument of Geronimo Anderson & Dunlavy
// (arXiv:2310.10872) for keeping tensors memory-resident across tools, and
// targets the repeated-decomposition workloads (rank/parameter sweeps over
// one large tensor) of Bharadwaj et al. (arXiv:2210.05105).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config sizes the service.
type Config struct {
	// Workers is the decomposition worker-pool size (default 2).
	Workers int
	// QueueCapacity bounds pending jobs; submissions beyond it get 503
	// (default 256).
	QueueCapacity int
	// MaxCachedTensors / MaxCacheBytes bound the tensor registry
	// (defaults 64 tensors, unbounded bytes).
	MaxCachedTensors int
	MaxCacheBytes    int64
	// MaxCachedModels / MaxModelBytes bound the Kruskal-model registry
	// (defaults 32 models, unbounded bytes).
	MaxCachedModels int
	MaxModelBytes   int64
	// MaxUploadBytes bounds one POST /v1/tensors body (default 1 GiB).
	MaxUploadBytes int64
	// MaxModeLength rejects parsed tensors with any mode longer than this
	// (default 1<<24): factor matrices are dense in the mode length, so an
	// adversarial coordinate would otherwise force a giant job allocation.
	MaxModeLength int
	// MaxJobHistory bounds how many *finished* jobs stay queryable via
	// GET /v1/jobs/{id} (default 1000); older terminal jobs are pruned so a
	// long-lived service does not grow without bound.
	MaxJobHistory int
	// MaxTraceEvents bounds each job's per-iteration trace ring (default
	// 512): a job that iterates longer keeps the most recent events and
	// reports the remainder as dropped.
	MaxTraceEvents int
	// MaxSpanEvents bounds each job's per-locale phase-span ring (default
	// 4096): a job that records more spans keeps the earliest per locale
	// (preserving a well-nested timeline prefix for /timeline) and counts
	// the rest as dropped; the per-phase aggregates on /profile stay
	// exact regardless.
	MaxSpanEvents int
	// RequestTimeout bounds every non-upload handler's wall-clock time;
	// exceeding it answers 503 with the standard envelope (default 30s).
	RequestTimeout time.Duration
	// UploadTimeout bounds the two upload handlers (POST /v1/tensors,
	// POST /v1/models), which parse arbitrarily large bodies (default 2m).
	UploadTimeout time.Duration
	// Logger receives structured access and lifecycle logs (default: a
	// discard logger, keeping library users and tests quiet).
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 256
	}
	if c.MaxCachedTensors <= 0 {
		c.MaxCachedTensors = 64
	}
	if c.MaxCachedModels <= 0 {
		c.MaxCachedModels = 32
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.MaxModeLength <= 0 {
		c.MaxModeLength = 1 << 24
	}
	if c.MaxJobHistory <= 0 {
		c.MaxJobHistory = 1000
	}
	if c.MaxTraceEvents <= 0 {
		c.MaxTraceEvents = 512
	}
	if c.MaxSpanEvents <= 0 {
		c.MaxSpanEvents = 4096
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.UploadTimeout <= 0 {
		c.UploadTimeout = 2 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Server owns the registries, queue, worker pool, and job table.
type Server struct {
	cfg      Config
	registry *Registry
	models   *modelRegistry
	queue    *Queue

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	jobsMu  sync.Mutex
	jobs    map[string]*Job
	seq     uint64
	history []string // terminal job IDs, oldest first (pruning order)

	started time.Time
	busy    atomic.Int64 // workers currently executing a job

	// met owns every operational instrument (and the Prometheus registry
	// they are registered in); logger receives access and lifecycle logs.
	met    *serverMetrics
	logger *slog.Logger
}

// NewServer builds the service and starts its worker pool.
func NewServer(cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(cfg.MaxCachedTensors, cfg.MaxCacheBytes),
		models:   newModelRegistry(cfg.MaxCachedModels, cfg.MaxModelBytes),
		queue:    NewQueue(cfg.QueueCapacity),
		baseCtx:  ctx,
		stop:     cancel,
		jobs:     make(map[string]*Job),
		started:  time.Now(),
		logger:   cfg.Logger,
	}
	s.met = newServerMetrics(s)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Shutdown stops the service: the queue refuses new submissions, every
// outstanding job's context is cancelled, and the call blocks until the
// worker pool drains or ctx expires — in which case the workers are left
// to unwind in the background and a forced-drain error is returned (the
// binary turns it into a nonzero exit).
func (s *Server) Shutdown(ctx context.Context) error {
	s.queue.Close()
	s.stop()
	s.jobsMu.Lock()
	for _, j := range s.jobs {
		s.cancel(j)
	}
	s.jobsMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: forced drain, workers still running: %w", ctx.Err())
	}
}

// Close cancels every outstanding job and drains the pool with no
// deadline; it returns once all workers exit.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

// Handler returns the HTTP API. Every route lives under the versioned /v1
// prefix:
//
//	POST   /v1/tensors      — upload a .tns or binary tensor body
//	GET    /v1/tensors      — list resident tensors (?limit=&offset=)
//	GET    /v1/tensors/{id}
//	PATCH  /v1/tensors/{id} — append a batch of nonzeros, creating a new revision
//	GET    /v1/tensors/{id}/revisions — the revision chain (?limit=&offset=)
//	DELETE /v1/tensors/{id} — evict (409 while pinned by active jobs)
//	POST   /v1/jobs         — submit a decomposition (JobSpec JSON)
//	GET    /v1/jobs         — list jobs (?limit=&offset=&status=)
//	GET    /v1/jobs/{id}
//	DELETE /v1/jobs/{id}    — cancel (queued or running)
//	POST   /v1/models       — publish a Kruskal model directly
//	GET    /v1/models       — list resident models (?limit=&offset=)
//	GET    /v1/models/{id}
//	DELETE /v1/models/{id}  — delete (409 while pinned by in-flight queries)
//	GET    /v1/models/{id}/entry?coord=i,j,k — reconstruct one entry
//	POST   /v1/models/{id}/topk              — top-K scoring over a mode slice
//	POST   /v1/models/{id}/similar           — cosine nearest factor rows
//	GET    /v1/jobs/{id}/trace — full per-iteration trace timeline
//	GET    /v1/jobs/{id}/profile  — aggregated per-phase/per-locale profile
//	GET    /v1/jobs/{id}/timeline — Chrome trace-event JSON (Perfetto)
//	GET    /v1/metrics      — queue/cache/worker gauges + routine seconds + query latency
//	GET    /v1/metrics/prometheus — the same registry in text exposition 0.0.4
//	GET    /v1/healthz
//
// Every route runs under the observability middleware stack, outermost
// first: request-ID propagation, structured access logging + panic
// recovery (sharing one status recorder), then per-route latency/in-flight
// instruments, handler deadline, and body limit.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// route mounts one wrapped handler under /v1 (pattern is
	// "METHOD /path"). bodyLimit <= 0 leaves the body unbounded,
	// timeout <= 0 leaves the handler deadline off.
	route := func(method, path string, timeout time.Duration, bodyLimit int64, h http.HandlerFunc) {
		mux.Handle(method+" /v1"+path, s.instrument(s.met.route(method, "/v1"+path),
			withTimeout(timeout, withBodyLimit(bodyLimit, h))))
	}
	reqT, upT := s.cfg.RequestTimeout, s.cfg.UploadTimeout
	route("POST", "/tensors", upT, s.cfg.MaxUploadBytes, s.handleUpload)
	route("GET", "/tensors", reqT, 0, listHandler(s.registry.lru))
	route("GET", "/tensors/{id}", reqT, 0, s.handleGetTensor)
	route("PATCH", "/tensors/{id}", upT, s.cfg.MaxUploadBytes, s.handleAppendTensor)
	route("GET", "/tensors/{id}/revisions", reqT, 0, s.handleTensorRevisions)
	route("DELETE", "/tensors/{id}", reqT, 0, removeHandler(s.registry.lru))
	route("POST", "/jobs", reqT, 1<<20, s.handleSubmitJob)
	route("GET", "/jobs", reqT, 0, s.handleListJobs)
	route("GET", "/jobs/{id}", reqT, 0, s.handleGetJob)
	route("DELETE", "/jobs/{id}", reqT, 0, s.handleCancelJob)
	route("GET", "/jobs/{id}/trace", reqT, 0, s.handleJobTrace)
	route("GET", "/jobs/{id}/profile", reqT, 0, s.handleJobProfile)
	route("GET", "/jobs/{id}/timeline", reqT, 0, s.handleJobTimeline)
	route("POST", "/models", upT, s.cfg.MaxUploadBytes, s.handlePublishModel)
	route("GET", "/models", reqT, 0, listHandler(s.models.lru))
	route("GET", "/models/{id}", reqT, 0, s.handleGetModel)
	route("DELETE", "/models/{id}", reqT, 0, removeHandler(s.models.lru))
	route("GET", "/models/{id}/entry", reqT, 0, s.handleModelEntry)
	route("POST", "/models/{id}/topk", reqT, 1<<20, s.handleModelTopK)
	route("POST", "/models/{id}/similar", reqT, 1<<20, s.handleModelSimilar)
	route("GET", "/metrics", reqT, 0, s.handleMetrics)
	route("GET", "/metrics/prometheus", reqT, 0, s.handlePrometheus)
	route("GET", "/healthz", reqT, 0, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return withRequestID(s.observeRequests(mux))
}

// errorEnvelope is the uniform JSON error body every failure path returns:
// {"error":{"code":"...","message":"..."}}.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// codeForStatus maps an HTTP status to the envelope's stable machine-
// readable code, so clients switch on code instead of parsing messages.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "gone"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	default:
		return "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError is the single error-response helper: every handler failure
// funnels through it, so clients see one envelope shape on every path.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorEnvelope{Error: errorDetail{
		Code:    codeForStatus(status),
		Message: err.Error(),
	}})
}

// listWindow parses the ?limit=&offset= pagination parameters (limit <= 0
// or absent means "all"), sets the X-Total-Count header, and returns the
// [lo, hi) window into a total-element listing. ok is false when a
// parameter is malformed (the error response has been written).
func listWindow(w http.ResponseWriter, r *http.Request, total int) (lo, hi int, ok bool) {
	parse := func(key string) (int, error) {
		v := r.URL.Query().Get(key)
		if v == "" {
			return 0, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("serve: %s must be a non-negative integer, got %q", key, v)
		}
		return n, nil
	}
	limit, err := parse("limit")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, 0, false
	}
	offset, err := parse("offset")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return 0, 0, false
	}
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	lo = offset
	if lo > total {
		lo = total
	}
	hi = total
	if limit > 0 && lo+limit < hi {
		hi = lo + limit
	}
	return lo, hi, true
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	res, err := s.registry.Ingest(r.Body, s.cfg.MaxUploadBytes, s.cfg.MaxModeLength)
	if err != nil {
		writeError(w, uploadStatus(err), err)
		return
	}
	status := http.StatusCreated
	if res.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, res)
}

// listHandler answers GET on a registry's collection: the resident
// entries in the order they became resident, paginated.
func listHandler[V, I any](c *lru[V, I]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		infos := c.List()
		lo, hi, ok := listWindow(w, r, len(infos))
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, infos[lo:hi])
	}
}

func (s *Server) handleGetTensor(w http.ResponseWriter, r *http.Request) {
	info, ok := s.registry.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: tensor not resident"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// removeHandler answers DELETE on a registry entry: 409 while it is
// pinned, 404 when it is not resident.
func removeHandler[V, I any](c *lru[V, I]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		switch err := c.Remove(id); {
		case err == nil:
			writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
		case errors.Is(err, c.pinned):
			writeError(w, http.StatusConflict, err)
		default:
			writeError(w, http.StatusNotFound, err)
		}
	}
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body) // bounded by the route's body limit
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, uploadStatus(err), fmt.Errorf("serve: decoding job spec: %w", err))
		return
	}
	if err := spec.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Pin the tensor for the whole job lifetime, so LRU churn between
	// submission and execution cannot evict it out from under an accepted
	// job; Server.release unpins.
	tensor, err := s.registry.Pin(spec.TensorID)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}

	s.jobsMu.Lock()
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	j := newJob(id, s.seq, spec, s.baseCtx, s.cfg.MaxTraceEvents, s.cfg.MaxSpanEvents)
	j.tensor = tensor
	s.jobs[id] = j
	s.jobsMu.Unlock()

	if err := s.queue.Push(j); err != nil {
		s.jobsMu.Lock()
		delete(s.jobs, id)
		s.jobsMu.Unlock()
		if j.finish(StateFailed, nil, err) { // else a cancel released it
			s.release(j)
		}
		s.met.rejected.Inc()
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrQueueClosed) {
			status = http.StatusGone
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	statusFilter := r.URL.Query().Get("status")
	switch JobState(statusFilter) {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: unknown status filter %q (want queued|running|done|failed|cancelled)", statusFilter))
		return
	}
	s.jobsMu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.jobsMu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		if statusFilter != "" && st.State != JobState(statusFilter) {
			continue
		}
		out = append(out, st)
	}
	lo, hi, ok := listWindow(w, r, len(out))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, out[lo:hi])
}

// retire counts a terminal job into the bounded history exactly once and
// prunes the oldest terminal jobs beyond Config.MaxJobHistory.
func (s *Server) retire(j *Job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if j.retired {
		return
	}
	j.retired = true
	s.history = append(s.history, j.ID)
	for len(s.history) > s.cfg.MaxJobHistory {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
}

func (s *Server) lookupJob(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	if !s.cancel(j) {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s already %s", j.ID, j.State()))
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// JobTrace is the GET /v1/jobs/{id}/trace document: the job's retained
// per-iteration timeline plus how much of it the bounded ring dropped.
type JobTrace struct {
	JobID string   `json:"job_id"`
	State JobState `json:"state"`
	// TotalIterations counts every iteration the engine reported; when it
	// exceeds len(Events), the oldest (TotalIterations − len(Events))
	// events were dropped by the ring.
	TotalIterations int             `json:"total_iterations"`
	Dropped         int             `json:"dropped"`
	Events          []obs.IterEvent `json:"events"`
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	events := j.trace.Snapshot()
	if events == nil {
		events = []obs.IterEvent{}
	}
	writeJSON(w, http.StatusOK, JobTrace{
		JobID:           j.ID,
		State:           j.State(),
		TotalIterations: j.trace.Total(),
		Dropped:         j.trace.Dropped(),
		Events:          events,
	})
}

// JobProfile is the GET /v1/jobs/{id}/profile document: the aggregated
// per-phase (and, for dist jobs, per-locale) wall seconds, call counts,
// and comm bytes of the job so far. Safe to poll while the job runs —
// aggregates are read atomically from the live recorders.
type JobProfile struct {
	JobID   string      `json:"job_id"`
	State   JobState    `json:"state"`
	Kind    JobKind     `json:"kind"`
	Profile obs.Profile `json:"profile"`
}

func (s *Server) handleJobProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	prof := j.spans.Profile()
	if prof.Phases == nil {
		prof.Phases = []obs.PhaseStat{}
	}
	writeJSON(w, http.StatusOK, JobProfile{
		JobID:   j.ID,
		State:   j.State(),
		Kind:    j.Spec.Kind,
		Profile: prof,
	})
}

// handleJobTimeline streams the job's retained spans as Chrome
// trace-event JSON — load the body in Perfetto (ui.perfetto.dev) or
// chrome://tracing. One trace thread per locale.
func (s *Server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such job"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = j.spans.WriteChromeTrace(w, j.ID)
}

// QueryStats is the per-endpoint model-query counter: request count and
// cumulative handler seconds (divide for mean latency).
type QueryStats struct {
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Metrics is the GET /v1/metrics document.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Queue struct {
		Depth     int   `json:"depth"`
		Capacity  int   `json:"capacity"`
		Rejected  int64 `json:"rejected"`
		Submitted int64 `json:"submitted"`
	} `json:"queue"`

	Workers struct {
		Total int   `json:"total"`
		Busy  int64 `json:"busy"`
	} `json:"workers"`

	Jobs struct {
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Cancelled int64 `json:"cancelled"`
		// Published counts models published into the registry by completed
		// jobs (publish:true).
		Published int64 `json:"published"`
		// WarmStarted counts jobs seeded from a published model.
		WarmStarted int64 `json:"warm_started"`
		// ByFormat counts completed jobs per resolved storage backend
		// ("csf", "alto", or "coo" for completion jobs).
		ByFormat map[string]int64 `json:"by_format,omitempty"`
		// BySolver counts completed jobs per resolved factor-update
		// algorithm ("als" or "arls"; completion jobs count as "als").
		BySolver map[string]int64 `json:"by_solver,omitempty"`
	} `json:"jobs"`

	Cache TensorCacheStats `json:"cache"`

	// Models is the Kruskal-model registry (the serving cache).
	Models CacheStats `json:"models"`

	// ModelQueries holds per-endpoint ("entry"|"topk"|"similar") query
	// counts and cumulative handler seconds.
	ModelQueries map[string]QueryStats `json:"model_queries,omitempty"`

	// RoutineSeconds aggregates the engines' per-routine seconds (MTTKRP,
	// SORT, INVERSE, ...), derived from profiler phases, across all
	// finished jobs.
	RoutineSeconds map[string]float64 `json:"routine_seconds"`
}

// handleMetrics renders the JSON metrics document. Every counter is read
// from the same obs instruments the Prometheus exposition scrapes, so the
// two views cannot drift apart.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m Metrics
	m.UptimeSeconds = time.Since(s.started).Seconds()
	m.Queue.Depth = s.queue.Len()
	m.Queue.Capacity = s.queue.Cap()
	m.Workers.Total = s.cfg.Workers
	m.Workers.Busy = s.busy.Load()
	m.Cache = s.registry.Stats()
	m.Models = s.models.Stats()

	s.jobsMu.Lock()
	m.Queue.Submitted = int64(s.seq)
	s.jobsMu.Unlock()

	m.Queue.Rejected = int64(s.met.rejected.Value())
	m.Jobs.Completed = int64(s.met.jobsCompleted.Value())
	m.Jobs.Failed = int64(s.met.jobsFailed.Value())
	m.Jobs.Cancelled = int64(s.met.jobsCancelled.Value())
	m.Jobs.Published = int64(s.met.published.Value())
	m.Jobs.WarmStarted = int64(s.met.warmStarted.Value())

	s.met.mu.Lock()
	m.Jobs.ByFormat = make(map[string]int64, len(s.met.formats))
	for k, c := range s.met.formats {
		m.Jobs.ByFormat[k] = int64(c.Value())
	}
	m.Jobs.BySolver = make(map[string]int64, len(s.met.solvers))
	for k, c := range s.met.solvers {
		m.Jobs.BySolver[k] = int64(c.Value())
	}
	m.ModelQueries = make(map[string]QueryStats, len(s.met.queries))
	for k, q := range s.met.queries {
		if n := q.count.Value(); n > 0 {
			m.ModelQueries[k] = QueryStats{Count: int64(n), Seconds: q.seconds.Value()}
		}
	}
	m.RoutineSeconds = make(map[string]float64, len(s.met.routines))
	for k, fc := range s.met.routines {
		m.RoutineSeconds[k] = fc.Value()
	}
	s.met.mu.Unlock()

	writeJSON(w, http.StatusOK, m)
}
