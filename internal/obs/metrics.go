// Package obs is the observability layer: allocation-free metric
// primitives (counters, gauges, fixed-bucket histograms), a registry that
// renders them in the Prometheus text exposition format, process/runtime
// gauges, a bounded per-iteration trace ring that turns the solver's
// routine times into a live, scrapeable progress surface, and the
// phase-span profiler those routine times are derived from.
//
// The hot-path discipline matches the compute kernels: instruments are
// pre-registered once (label rendering, bucket layout, and family lookup
// all happen at registration), so Counter.Inc, Gauge.Add, and
// Histogram.Observe are single atomic operations with zero heap traffic —
// safe to call from the middleware and solver loops that the steady-state
// allocation gates pin at 0 allocs/op.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing integer counter. The zero value is
// ready to use, but counters are normally obtained from a Registry so they
// appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1. It is a single atomic add: zero allocations, safe for
// concurrent use.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is unsigned; counters never decrease).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64 counter (cumulative
// seconds, bytes-as-float, ...). Add is a CAS loop over the bit pattern:
// zero allocations, lock-free.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v (callers pass non-negative deltas; monotonicity is the
// caller's contract, as with every Prometheus counter).
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 {
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 value that can move in both directions (queue depth,
// in-flight requests, resident bytes).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into a fixed set of cumulative buckets
// (Prometheus histogram semantics). The bucket layout is fixed at
// registration; Observe is a short linear scan plus two atomic updates —
// no allocation, no locks.
type Histogram struct {
	bounds []float64       // sorted inclusive upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; the last bucket is +Inf
	sum    FloatCounter
}

// newHistogram builds a histogram over the given strictly increasing
// bounds. Registration validates the layout; see Registry.Histogram.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Bounds returns the bucket upper bounds (without +Inf). The returned
// slice must not be modified.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// DefLatencyBuckets is the default request-latency bucket layout, spanning
// sub-millisecond model queries up to multi-second decompositions.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}
