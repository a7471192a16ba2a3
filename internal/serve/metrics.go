package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/alto"
	"repro/internal/cpu"
	"repro/internal/dense"
	"repro/internal/obs"
)

// serverMetrics is the single source of truth for the service's
// operational counters. Every number the JSON /v1/metrics document
// reports is backed by an obs instrument registered here, so the
// Prometheus exposition at /v1/metrics/prometheus and the JSON view can
// never disagree. Hot-path increments (HTTP middleware, worker tallies)
// are single atomic operations on pre-registered instruments.
type serverMetrics struct {
	reg *obs.Registry

	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	published     *obs.Counter
	warmStarted   *obs.Counter
	rejected      *obs.Counter
	panics        *obs.Counter

	// Dynamically-labelled families (format / solver names and HTTP
	// routes arrive at runtime). The maps exist so the JSON document can
	// enumerate them; the instruments themselves live in reg.
	mu      sync.Mutex
	formats map[string]*obs.Counter
	solvers map[string]*obs.Counter
	queries map[string]*queryInstruments
	routes  map[string]*routeMetrics

	// Span-profiler families, keyed by phase name (routines by routine
	// name). The full phase set and the phase→routine map are known
	// statically, so every series is registered (at zero) up front;
	// recordProfile folds each finished job's profile in with plain map
	// reads — no lock needed after construction.
	phaseSeconds map[string]*obs.FloatCounter
	phaseCalls   map[string]*obs.Counter
	phaseRoutine map[string]*obs.FloatCounter // the phase's routine counter (mapped phases only)
	routines     map[string]*obs.FloatCounter
	commBytes    map[string]*obs.Counter      // comm phases only, labelled by op
	commSeconds  map[string]*obs.FloatCounter // comm phases only, labelled by op
	commLatency  map[string]*obs.Histogram    // comm phases only, labelled by op
}

// collectiveBuckets spans sub-microsecond in-process barriers up to
// second-scale stragglers, one decade per bucket.
var collectiveBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}

// queryInstruments is one model-query endpoint's count + cumulative
// handler seconds.
type queryInstruments struct {
	count   *obs.Counter
	seconds *obs.FloatCounter
}

// routeMetrics is one HTTP route's instrument set: in-flight gauge,
// latency histogram, and per-status-class request counters.
type routeMetrics struct {
	inFlight *obs.Gauge
	latency  *obs.Histogram
	codes    [6]*obs.Counter // index status/100 (0 = unknown, counted as 5xx)
}

// observe folds one finished request into the route's instruments.
func (rm *routeMetrics) observe(status int, elapsed time.Duration) {
	rm.latency.Observe(elapsed.Seconds())
	class := status / 100
	if class < 1 || class > 5 {
		class = 5
	}
	rm.codes[class].Inc()
}

// newServerMetrics builds the registry and every statically-known
// instrument. Gauges whose truth lives elsewhere (queue depth, worker
// occupancy, cache residency) are registered as Func metrics that read
// the owning structure at scrape time.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		jobsCompleted: reg.Counter("splatt_jobs_completed_total",
			"Decomposition jobs finished successfully."),
		jobsFailed: reg.Counter("splatt_jobs_failed_total",
			"Decomposition jobs that ended in an error."),
		jobsCancelled: reg.Counter("splatt_jobs_cancelled_total",
			"Decomposition jobs cancelled while queued or running."),
		published: reg.Counter("splatt_models_published_total",
			"Kruskal models published into the serving registry by jobs."),
		warmStarted: reg.Counter("splatt_jobs_warm_started_total",
			"Decomposition jobs seeded from a published model."),
		rejected: reg.Counter("splatt_queue_rejected_total",
			"Job submissions rejected by a full or closed queue."),
		panics: reg.Counter("splatt_http_panics_total",
			"Handler panics recovered into 500 responses."),
		formats: make(map[string]*obs.Counter),
		solvers: make(map[string]*obs.Counter),
		queries: make(map[string]*queryInstruments),
		routes:  make(map[string]*routeMetrics),

		phaseSeconds: make(map[string]*obs.FloatCounter),
		phaseCalls:   make(map[string]*obs.Counter),
		phaseRoutine: make(map[string]*obs.FloatCounter),
		routines:     make(map[string]*obs.FloatCounter),
		commBytes:    make(map[string]*obs.Counter),
		commSeconds:  make(map[string]*obs.FloatCounter),
		commLatency:  make(map[string]*obs.Histogram),
	}
	obs.RegisterProcess(reg, "splatt")

	// Info-style gauge (constant 1): the CPU feature set this process
	// detected and the kernel paths the dispatch layer resolved to. A
	// fleet dashboard groups by these labels to spot nodes silently
	// running the pure-Go fallback (wrong build tag, SPLATT_DISABLE_SIMD
	// left set, or an unexpected microarchitecture).
	altoWalker := "tables"
	if alto.NativeExtract() {
		altoWalker = "pext"
	}
	reg.Gauge("splatt_cpu_features",
		"Detected CPU features and resolved kernel dispatch (info gauge, value is always 1).",
		obs.Label{Name: "cpu", Value: cpu.Summary()},
		obs.Label{Name: "dense_isa", Value: dense.KernelISA()},
		obs.Label{Name: "alto_walker", Value: altoWalker}).Set(1)

	reg.Func("splatt_queue_depth",
		"Jobs waiting in the priority queue.", obs.KindGauge,
		func() float64 { return float64(s.queue.Len()) })
	reg.Func("splatt_queue_capacity",
		"Pending-job queue capacity.", obs.KindGauge,
		func() float64 { return float64(s.queue.Cap()) })
	reg.Func("splatt_jobs_submitted_total",
		"Jobs ever accepted for execution.", obs.KindCounter,
		func() float64 {
			s.jobsMu.Lock()
			defer s.jobsMu.Unlock()
			return float64(s.seq)
		})
	reg.Func("splatt_workers_busy",
		"Workers currently executing a job.", obs.KindGauge,
		func() float64 { return float64(s.busy.Load()) })
	reg.Func("splatt_workers_total",
		"Decomposition worker-pool size.", obs.KindGauge,
		func() float64 { return float64(s.cfg.Workers) })

	registerCacheMetrics(reg, "tensor", func() (entries, bytes, hits, misses, evictions float64) {
		st := s.registry.Stats()
		return float64(st.Entries), float64(st.Bytes),
			float64(st.Hits), float64(st.Misses), float64(st.Evictions)
	})
	reg.Func("splatt_tensor_appends_total",
		"Append batches accepted into new tensor revisions.", obs.KindCounter,
		func() float64 { return float64(s.registry.Stats().Appends) })
	reg.Func("splatt_tensor_append_seconds_total",
		"Cumulative seconds spent parsing, merging, and hashing append batches.", obs.KindCounter,
		func() float64 { return s.registry.Stats().AppendSeconds })
	registerCacheMetrics(reg, "model", func() (entries, bytes, hits, misses, evictions float64) {
		st := s.models.Stats()
		return float64(st.Entries), float64(st.Bytes),
			float64(st.Hits), float64(st.Misses), float64(st.Evictions)
	})

	// Solver phases and comm ops are fixed enums, so the span-profiler
	// families are visible (at zero) from the first scrape too. Phases
	// charged to a paper routine also feed that routine's counter; comm
	// phases additionally get per-op byte/second totals and a collective
	// latency histogram fed from retained span events.
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		name := p.String()
		m.phaseSeconds[name] = reg.FloatCounter("splatt_phase_seconds_total",
			"Cumulative solver wall seconds by profiler phase, across all finished jobs.",
			obs.Label{Name: "phase", Value: name})
		m.phaseCalls[name] = reg.Counter("splatt_phase_calls_total",
			"Profiler span count by phase, across all finished jobs.",
			obs.Label{Name: "phase", Value: name})
		if r := p.Routine(); r != "" {
			m.routines[r] = reg.FloatCounter("splatt_solver_routine_seconds_total",
				"Cumulative engine seconds by paper routine (summed from its profiler phases), across all finished jobs.",
				obs.Label{Name: "routine", Value: r})
			m.phaseRoutine[name] = m.routines[r]
		}
		if !p.IsComm() {
			continue
		}
		op := p.CommOp()
		m.commBytes[name] = reg.Counter("splatt_dist_comm_bytes_total",
			"Bytes moved by distributed collectives, by operation.",
			obs.Label{Name: "op", Value: op})
		m.commSeconds[name] = reg.FloatCounter("splatt_dist_comm_seconds_total",
			"Cumulative per-locale seconds spent in distributed collectives, by operation.",
			obs.Label{Name: "op", Value: op})
		m.commLatency[name] = reg.Histogram("splatt_dist_collective_seconds",
			"Latency of individual collective operations, by operation.",
			collectiveBuckets,
			obs.Label{Name: "op", Value: op})
	}

	// The three model-query endpoints are known statically; registering
	// them up front makes the Prometheus families visible (at zero) from
	// the first scrape.
	for _, ep := range []string{"entry", "topk", "similar"} {
		m.queries[ep] = &queryInstruments{
			count: reg.Counter("splatt_model_queries_total",
				"Successful model-query requests by endpoint.",
				obs.Label{Name: "endpoint", Value: ep}),
			seconds: reg.FloatCounter("splatt_model_query_seconds_total",
				"Cumulative model-query handler seconds by endpoint.",
				obs.Label{Name: "endpoint", Value: ep}),
		}
	}
	return m
}

// registerCacheMetrics exposes one content-addressed registry's stats as
// a five-metric family read at scrape time.
func registerCacheMetrics(reg *obs.Registry, name string,
	stats func() (entries, bytes, hits, misses, evictions float64)) {

	reg.Func(fmt.Sprintf("splatt_%s_cache_resident", name),
		"Entries resident in the cache.", obs.KindGauge,
		func() float64 { e, _, _, _, _ := stats(); return e })
	reg.Func(fmt.Sprintf("splatt_%s_cache_bytes", name),
		"Bytes resident in the cache.", obs.KindGauge,
		func() float64 { _, b, _, _, _ := stats(); return b })
	reg.Func(fmt.Sprintf("splatt_%s_cache_hits_total", name),
		"Cache lookups served from a resident entry.", obs.KindCounter,
		func() float64 { _, _, h, _, _ := stats(); return h })
	reg.Func(fmt.Sprintf("splatt_%s_cache_misses_total", name),
		"Cache lookups that required ingest or failed.", obs.KindCounter,
		func() float64 { _, _, _, mi, _ := stats(); return mi })
	reg.Func(fmt.Sprintf("splatt_%s_cache_evictions_total", name),
		"Entries evicted by the LRU policy.", obs.KindCounter,
		func() float64 { _, _, _, _, ev := stats(); return ev })
}

// route returns (creating on first use) the instrument set for one
// route.
func (m *serverMetrics) route(method, path string) *routeMetrics {
	key := method + " " + path
	m.mu.Lock()
	defer m.mu.Unlock()
	if rm, ok := m.routes[key]; ok {
		return rm
	}
	rm := &routeMetrics{
		inFlight: m.reg.Gauge("splatt_http_in_flight_requests",
			"Requests currently being served, by route.",
			obs.Label{Name: "method", Value: method},
			obs.Label{Name: "route", Value: path}),
		latency: m.reg.Histogram("splatt_http_request_duration_seconds",
			"Request latency by route.", obs.DefLatencyBuckets,
			obs.Label{Name: "method", Value: method},
			obs.Label{Name: "route", Value: path}),
	}
	for class := 1; class <= 5; class++ {
		rm.codes[class] = m.reg.Counter("splatt_http_requests_total",
			"Requests served, by route and status class.",
			obs.Label{Name: "method", Value: method},
			obs.Label{Name: "route", Value: path},
			obs.Label{Name: "code", Value: fmt.Sprintf("%dxx", class)})
	}
	rm.codes[0] = rm.codes[5]
	m.routes[key] = rm
	return rm
}

// format returns the completed-jobs counter for one resolved storage
// backend.
func (m *serverMetrics) format(name string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.formats[name]
	if !ok {
		c = m.reg.Counter("splatt_jobs_by_format_total",
			"Completed jobs by resolved storage backend.",
			obs.Label{Name: "format", Value: name})
		m.formats[name] = c
	}
	return c
}

// solver returns the completed-jobs counter for one resolved
// factor-update algorithm.
func (m *serverMetrics) solver(name string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.solvers[name]
	if !ok {
		c = m.reg.Counter("splatt_jobs_by_solver_total",
			"Completed jobs by resolved factor-update algorithm.",
			obs.Label{Name: "solver", Value: name})
		m.solvers[name] = c
	}
	return c
}

// recordProfile folds one finished job's span profile into the
// server-wide phase, routine, and comm families. The maps are fully
// populated at construction (the phase enum is closed), so no locking is
// needed.
// Collective latency histograms are fed from the retained span events;
// when a job overflows its span ring the histograms undercount tail
// events but the seconds/calls/bytes totals stay exact — they come from
// the always-exact aggregates.
func (m *serverMetrics) recordProfile(p *obs.Profiler) {
	if p == nil {
		return
	}
	prof := p.Profile()
	for _, st := range prof.Phases {
		if fc := m.phaseSeconds[st.Phase]; fc != nil {
			fc.Add(st.Seconds)
		}
		if c := m.phaseCalls[st.Phase]; c != nil {
			c.Add(uint64(st.Calls))
		}
		if fc := m.phaseRoutine[st.Phase]; fc != nil {
			fc.Add(st.Seconds)
		}
		if c := m.commBytes[st.Phase]; c != nil && st.Bytes > 0 {
			c.Add(uint64(st.Bytes))
		}
		if fc := m.commSeconds[st.Phase]; fc != nil {
			fc.Add(st.Seconds)
		}
	}
	for _, ls := range p.Spans() {
		for _, sp := range ls.Spans {
			if h := m.commLatency[sp.Phase.String()]; h != nil {
				h.Observe(float64(sp.Dur) / 1e9)
			}
		}
	}
}

// recordQuery folds one successful model-query invocation into the
// per-endpoint instruments.
func (m *serverMetrics) recordQuery(endpoint string, start time.Time) {
	m.mu.Lock()
	q := m.queries[endpoint]
	m.mu.Unlock()
	if q == nil {
		return
	}
	q.count.Inc()
	q.seconds.Add(time.Since(start).Seconds())
}

// handlePrometheus renders the whole registry in Prometheus text
// exposition format 0.0.4 (GET /v1/metrics/prometheus).
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WritePrometheus(w)
}
