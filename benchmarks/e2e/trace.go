package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call that the benchmark made into a repository package,
// or an interval the service reported (a job's queue wait and engine time).
type span struct {
	Name   string
	ID     int   // 1-based position in the tracer
	Parent int   // 0 for a root span
	Group  int64 // shared by the spans of one rep, cycle or request
	Lane   int   // trace track: the client or worker that made the call
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// Trace tracks. Clients of a workload use lanes 0 and 1.
const (
	laneServer = 10 // intervals the service reported for a job
	laneProbe  = 20 // the layer probes
)

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root opens a span without a parent and returns its ID (0 on a nil tracer).
func (t *tracer) root(name string, group int64, lane int) int {
	if t == nil {
		return 0
	}
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Group: group, Lane: lane,
		Start: start, End: -1})
	return len(t.spans)
}

// child opens a span under parent, sharing its group and lane. A zero
// parent (from a nil tracer) records nothing.
func (t *tracer) child(name string, parent int) int {
	if t == nil || parent == 0 {
		return 0
	}
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Group: p.Group, Lane: p.Lane, Start: start, End: -1})
	return len(t.spans)
}

// interval records a span that was timed elsewhere under parent, on lane.
func (t *tracer) interval(name string, parent, lane int, start, end time.Time) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Group: t.spans[parent-1].Group, Lane: lane,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its children cover. Overlapping children
// are counted once, and a child's time outside its parent is ignored.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerSelfMS attributes self time to layers — the package prefix of a span
// name ("serve" for "serve.append"), or "bench" for the benchmark's own
// spans — in milliseconds per unit operation.
func layerSelfMS(spans []span, ops int) map[string]float64 {
	out := make(map[string]float64)
	if ops < 1 {
		ops = 1
	}
	for name, d := range selfTimes(spans) {
		layer, _, ok := strings.Cut(name, ".")
		if !ok {
			layer = "bench"
		}
		out[layer] += ms(d) / float64(ops)
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata), the format Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON, one track per
// lane, with each span's ID, parent and group in its args.
func writeChromeTrace(w io.Writer, process string, spans []span) error {
	events := []chromeEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": process}}}
	lanes := make(map[int]bool)
	for _, s := range spans {
		if !lanes[s.Lane] {
			lanes[s.Lane] = true
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Tid: s.Lane,
				Args: map[string]any{"name": laneName(s.Lane)}})
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "group": s.Group},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func laneName(lane int) string {
	switch lane {
	case laneServer:
		return "service (reported)"
	case laneProbe:
		return "layer probes"
	}
	return "client " + strconv.Itoa(lane)
}
