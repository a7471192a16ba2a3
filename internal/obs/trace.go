package obs

import "sync"

// RoutineSnapshot is the cumulative per-routine seconds of one solver run
// at the end of an iteration — the live counterpart of the paper's
// Table III per-routine split, derived from the run's phase spans like
// the final report. Fields are cumulative, so subtracting consecutive
// events yields per-iteration routine costs.
type RoutineSnapshot struct {
	MTTKRP   float64 `json:"mttkrp_seconds"`
	ATA      float64 `json:"ata_seconds"`
	Inverse  float64 `json:"inverse_seconds"`
	Norm     float64 `json:"norm_seconds"`
	Fit      float64 `json:"fit_seconds"`
	Sketch   float64 `json:"sketch_seconds,omitempty"`
	Leverage float64 `json:"leverage_seconds,omitempty"`
}

// IterEvent is one completed ALS iteration as seen by a trace sink.
// The struct is plain scalars (no pointers), so pushing one through an
// interface costs a stack copy and nothing else — the solver's
// steady-state 0 allocs/op gate holds with tracing enabled.
type IterEvent struct {
	// Iteration is 1-based: the event describes the state after this many
	// completed ALS iterations.
	Iteration int     `json:"iteration"`
	Fit       float64 `json:"fit"`
	// Delta is Fit minus the previous iteration's fit (the convergence
	// criterion input).
	Delta float64 `json:"delta"`
	// Sampled marks iterations run on the leverage-score sampled system.
	Sampled bool `json:"sampled,omitempty"`
	// Seconds is the run's cumulative iteration wall-clock (its
	// iteration and refine spans so far).
	Seconds  float64         `json:"seconds"`
	Routines RoutineSnapshot `json:"routines"`
}

// TraceSink receives per-iteration events from a running solver.
// Implementations must not retain a pointer into the event (it is passed
// by value) and must not block: the solver calls from its iteration loop.
type TraceSink interface {
	RecordIteration(IterEvent)
}

// TraceRing is a bounded, concurrency-safe TraceSink: the last `capacity`
// events are retained, older ones are dropped (and counted). Push is
// allocation-free; snapshots copy.
type TraceRing struct {
	mu    sync.Mutex
	buf   []IterEvent
	total uint64 // events ever pushed
}

// NewTraceRing returns a ring retaining the last capacity events
// (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]IterEvent, capacity)}
}

// RecordIteration stores ev, overwriting the oldest retained event once
// the ring is full. No allocation.
func (r *TraceRing) RecordIteration(ev IterEvent) {
	r.mu.Lock()
	r.buf[int(r.total%uint64(len(r.buf)))] = ev
	r.total++
	r.mu.Unlock()
}

// Total reports how many events were ever recorded.
func (r *TraceRing) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.total)
}

// Dropped reports how many events fell off the ring.
func (r *TraceRing) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(r.total) <= len(r.buf) {
		return 0
	}
	return int(r.total) - len(r.buf)
}

// Last returns the most recent event (ok=false when none was recorded).
func (r *TraceRing) Last() (IterEvent, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total == 0 {
		return IterEvent{}, false
	}
	return r.buf[int((r.total-1)%uint64(len(r.buf)))], true
}

// Snapshot copies the retained events in chronological order.
func (r *TraceRing) Snapshot() []IterEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.total)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]IterEvent, n)
	start := r.total - uint64(n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[int((start+uint64(i))%uint64(len(r.buf)))]
	}
	return out
}
