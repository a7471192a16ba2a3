package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/format"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/sptensor"
)

// JobKind selects the decomposition engine a job dispatches to.
type JobKind string

const (
	// KindCPD is shared-memory CP-ALS (core.CPD).
	KindCPD JobKind = "cpd"
	// KindDistributed is multi-locale CP-ALS (dist.CPD).
	KindDistributed JobKind = "dist"
	// KindComplete is masked CP / tensor completion (core.CPDComplete).
	KindComplete JobKind = "complete"
)

// JobState is the lifecycle of a job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// JobSpec is the client-supplied description of a decomposition job
// (the POST /jobs body). Zero-valued knobs take the engine defaults.
type JobSpec struct {
	TensorID string  `json:"tensor_id"`
	Kind     JobKind `json:"kind,omitempty"` // default "cpd"
	// Priority orders the queue: higher runs first; equal priorities run
	// in submission order.
	Priority int `json:"priority,omitempty"`

	Rank        int     `json:"rank,omitempty"`
	MaxIters    int     `json:"max_iters,omitempty"`
	Tolerance   float64 `json:"tolerance,omitempty"`
	Tasks       int     `json:"tasks,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	NonNegative bool    `json:"non_negative,omitempty"`
	Ridge       float64 `json:"ridge,omitempty"`
	// Locales applies to kind "dist" only.
	Locales int `json:"locales,omitempty"`
	// Format selects the tensor storage backend: "csf" (default), "alto",
	// or "auto". Applies to kinds "cpd" and "dist"; the completion engine
	// streams coordinates directly and ignores it.
	Format string `json:"format,omitempty"`
	// Solver selects the factor-update algorithm: "als" (exact, default),
	// "arls" (leverage-score sampled with exact refinement), or "auto".
	// Applies to kinds "cpd" and "dist"; the completion engine is
	// stochastic-free exact ALS over observed entries and ignores it.
	Solver string `json:"solver,omitempty"`
	// Samples overrides the ARLS per-update sample count (0 = heuristic).
	Samples int `json:"samples,omitempty"`
	// RefineIters overrides the trailing exact iterations of an ARLS run
	// (0 = default).
	RefineIters int `json:"refine_iters,omitempty"`
	// Publish stores the resulting Kruskal model in the model registry on
	// successful completion; the model's content-addressed ID lands in the
	// job result and the model becomes queryable under /v1/models/{id}.
	Publish bool `json:"publish,omitempty"`
	// WarmStart seeds the factor matrices from a published model instead of
	// random init: a model ID, or "auto" to pick the newest model published
	// against this tensor or any ancestor revision in its append chain.
	// Unset knobs take absorb defaults (ARLS with a short iteration budget)
	// rather than cold-run defaults. Kind "cpd" only.
	WarmStart string `json:"warm_start,omitempty"`
}

// Caps on a job's size knobs, refused at submit: the engines allocate
// per-task scratch from them before the first iteration runs.
const (
	// maxRank bounds the dense workspace: tasks × rank² Gram partials,
	// 8 MiB per task at the cap.
	maxRank = 1024
	// maxTasks bounds the team, each of whose tasks holds that scratch.
	maxTasks = 256
	// maxLocales bounds dist jobs, whose locales each run a full solver.
	maxLocales = 64
)

// normalize fills defaults and validates the engine-independent fields.
func (s *JobSpec) normalize() error {
	if s.TensorID == "" {
		return fmt.Errorf("serve: job spec missing tensor_id")
	}
	if s.Kind == "" {
		s.Kind = KindCPD
	}
	switch s.Kind {
	case KindCPD, KindDistributed, KindComplete:
	default:
		return fmt.Errorf("serve: unknown job kind %q (want cpd|dist|complete)", s.Kind)
	}
	if s.Rank < 0 || s.MaxIters < 0 || s.Tasks < 0 || s.Locales < 0 ||
		s.Samples < 0 || s.RefineIters < 0 {
		return fmt.Errorf("serve: job spec has negative parameters")
	}
	if s.Rank > maxRank || s.Tasks > maxTasks || s.Locales > maxLocales {
		return fmt.Errorf("serve: job spec rank %d, tasks %d, locales %d exceeds the caps %d, %d, %d",
			s.Rank, s.Tasks, s.Locales, maxRank, maxTasks, maxLocales)
	}
	if _, err := format.Parse(s.Format); err != nil {
		return err
	}
	if _, err := sketch.Parse(s.Solver); err != nil {
		return err
	}
	if s.WarmStart != "" && s.Kind != KindCPD {
		return fmt.Errorf("serve: warm_start applies to kind %q only, got %q", KindCPD, s.Kind)
	}
	return nil
}

// formatSpec resolves the already-validated format string.
func (s *JobSpec) formatSpec() format.Spec {
	spec, _ := format.Parse(s.Format)
	return spec
}

// solverSpec resolves the already-validated solver string.
func (s *JobSpec) solverSpec() sketch.Solver {
	solver, _ := sketch.Parse(s.Solver)
	return solver
}

// worldSize is the job's locale count: a dist job's (the engine default
// when unspecified), 1 otherwise. The job's profiler has one span
// recorder per locale.
func (s *JobSpec) worldSize() int {
	if s.Kind != KindDistributed {
		return 1
	}
	if s.Locales > 0 {
		return s.Locales
	}
	return dist.DefaultOptions().Locales
}

// coreOptions maps the spec onto core.Options: kind "cpd" runs it, and
// each locale of kind "dist" runs it over its shard.
func (s *JobSpec) coreOptions(ctx context.Context) core.Options {
	o := core.DefaultOptions()
	if s.Rank > 0 {
		o.Rank = s.Rank
	}
	if s.MaxIters > 0 {
		o.MaxIters = s.MaxIters
	}
	if s.Tasks > 0 {
		o.Tasks = s.Tasks
	}
	if s.Seed != 0 {
		o.Seed = s.Seed
	}
	o.Tolerance = s.Tolerance
	o.NonNegative = s.NonNegative
	o.Ridge = s.Ridge
	o.Format = s.formatSpec()
	o.Solver = s.solverSpec()
	o.Samples = s.Samples
	o.RefineIters = s.RefineIters
	o.Ctx = ctx
	return o
}

// completionOptions maps the spec onto core.CompletionOptions.
func (s *JobSpec) completionOptions(ctx context.Context) core.CompletionOptions {
	o := core.DefaultCompletionOptions()
	if s.Rank > 0 {
		o.Rank = s.Rank
	}
	if s.MaxIters > 0 {
		o.MaxIters = s.MaxIters
	}
	if s.Tasks > 0 {
		o.Tasks = s.Tasks
	}
	if s.Seed != 0 {
		o.Seed = s.Seed
	}
	if s.Tolerance > 0 {
		o.Tolerance = s.Tolerance
	}
	if s.Ridge > 0 {
		o.Ridge = s.Ridge
	}
	o.NonNegative = s.NonNegative
	o.Ctx = ctx
	return o
}

// JobResult is the engine outcome attached to a finished job.
type JobResult struct {
	Fit        float64 `json:"fit,omitempty"`
	RMSE       float64 `json:"rmse,omitempty"` // completion jobs
	Iterations int     `json:"iterations"`
	CommBytes  int64   `json:"comm_bytes,omitempty"` // dist jobs
	// Format is the resolved storage backend the engine ran on ("csf" or
	// "alto"; empty for completion jobs, which stream coordinates).
	Format string `json:"format,omitempty"`
	// Solver is the resolved factor-update algorithm ("als" or "arls";
	// empty for completion jobs).
	Solver string `json:"solver,omitempty"`
	// SampledIters is how many ALS iterations ran on the sampled system.
	SampledIters int `json:"sampled_iters,omitempty"`
	// ModelID is the content-addressed ID of the published model (jobs
	// submitted with publish:true only).
	ModelID string `json:"model_id,omitempty"`
	// WarmStart marks a job seeded from a published model;
	// WarmStartModel is the resolved model it was seeded from.
	WarmStart      bool    `json:"warm_start,omitempty"`
	WarmStartModel string  `json:"warm_start_model,omitempty"`
	Seconds        float64 `json:"seconds"`
}

// JobProgress is the live view of a running decomposition, derived from
// the newest trace event: GET /v1/jobs/{id} reports it from the first
// completed iteration onward, so clients watch fit converge without
// waiting for the terminal state.
type JobProgress struct {
	// Iterations counts completed ALS iterations so far.
	Iterations int `json:"iterations"`
	// Fit and Delta are the newest iteration's fit and fit change.
	Fit   float64 `json:"fit"`
	Delta float64 `json:"delta"`
	// Sampled marks iterations run on the sketched (ARLS) system.
	Sampled bool `json:"sampled,omitempty"`
	// ElapsedSeconds is the run's cumulative iteration time up to the
	// newest iteration (backend build and set-up excluded).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// MTTKRPSeconds is cumulative time in the dominant kernel.
	MTTKRPSeconds float64 `json:"mttkrp_seconds"`
}

// JobStatus is the JSON view of a job (GET /jobs/{id}).
type JobStatus struct {
	ID        string       `json:"id"`
	Spec      JobSpec      `json:"spec"`
	State     JobState     `json:"state"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Error     string       `json:"error,omitempty"`
	Progress  *JobProgress `json:"progress,omitempty"`
	Result    *JobResult   `json:"result,omitempty"`
}

// Job is one queued/running/finished decomposition. State transitions are
// guarded by mu; the cancel func tears down the context the worker threads
// into the ALS loop.
type Job struct {
	ID   string
	Spec JobSpec
	seq  uint64 // FIFO tiebreak within a priority class

	// tensor is pinned in the registry at submission and released
	// (Server.release) once the job has run or was cancelled while
	// queued, so an accepted job can never lose its tensor to LRU
	// eviction while waiting in the queue.
	tensor *sptensor.Tensor
	// retired marks the job as counted into the server's bounded terminal
	// history; guarded by the server's jobsMu.
	retired bool

	// trace is the bounded per-iteration event ring the engine's trace
	// hook writes into (internally synchronized; read by the status and
	// trace handlers while the job runs).
	trace *obs.TraceRing
	// spans is the job's phase-span profiler: one recorder per locale
	// (one for non-dist jobs), read live by the /profile and /timeline
	// handlers and folded into the server-wide phase metrics when the
	// job reaches a terminal state.
	spans *obs.Profiler

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	result    *JobResult

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on any terminal state
}

// newJob creates a queued job whose context descends from base
// (context.Background when nil); traceCap bounds its iteration ring and
// spanCap each locale's phase-span ring.
func newJob(id string, seq uint64, spec JobSpec, base context.Context, traceCap, spanCap int) *Job {
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	return &Job{
		ID:        id,
		Spec:      spec,
		seq:       seq,
		trace:     obs.NewTraceRing(traceCap),
		spans:     obs.NewProfiler(spec.worldSize(), spanCap),
		state:     StateQueued,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
}

// Status snapshots the job for JSON encoding.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Spec:      j.Spec,
		State:     j.state,
		Submitted: j.submitted,
		Error:     j.err,
		Result:    j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	// Live progress from the newest trace event (the ring has its own
	// lock, and reading it under j.mu is cheap and deadlock-free).
	if ev, ok := j.trace.Last(); ok {
		st.Progress = &JobProgress{
			Iterations:     j.trace.Total(),
			Fit:            ev.Fit,
			Delta:          ev.Delta,
			Sampled:        ev.Sampled,
			ElapsedSeconds: ev.Seconds,
			MTTKRPSeconds:  ev.Routines.MTTKRP,
		}
	}
	return st
}

// markRunning moves queued → running; returns false when the job was
// cancelled while waiting in the queue.
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish records a terminal state exactly once, reporting whether this
// call recorded it.
func (j *Job) finish(state JobState, res *JobResult, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		return false
	}
	j.finishLocked(state, res, err)
	return true
}

// finishLocked records a terminal state; j.mu is held.
func (j *Job) finishLocked(state JobState, res *JobResult, err error) {
	j.state = state
	j.finished = time.Now()
	j.result = res
	if err != nil {
		j.err = err.Error()
	}
	j.cancel() // release the context resources
	close(j.done)
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done exposes the terminal-state channel (used by tests and shutdown).
func (j *Job) Done() <-chan struct{} { return j.done }
