package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "bench.rep", ID: 1, Start: 0, End: 100},
		{Name: "core.iterate", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "core.iterate", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps its sibling
		{Name: "serve.engine", ID: 4, Parent: 1, Start: 90, End: 120}, // ends after its parent
		{Name: "serve.poll", ID: 5, Parent: 4, Start: 95, End: 105},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench.rep":    100 - 40 - 10, // children cover [10,50] and [90,100]
		"core.iterate": 20 + 30,
		"serve.engine": 30 - 10,
		"serve.poll":   10,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	layers := layerSelfMS(spans, 2)
	for layer, want := range map[string]float64{"bench": ms(50) / 2, "core": ms(50) / 2, "serve": ms(30) / 2} {
		if math.Abs(layers[layer]-want) > 1e-15 {
			t.Errorf("self time of layer %s per op = %v, want %v", layer, layers[layer], want)
		}
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	var off *tracer
	if id := off.root("x", 0, 0); id != 0 || off.child("y", id) != 0 || off.snapshot() != nil {
		t.Fatal("a nil tracer recorded spans")
	}
	off.end(0)

	tr := newTracer()
	root := tr.root("bench.cycle", 7, 1)
	child := tr.child("serve.append", root)
	tr.end(child)
	tr.child("serve.topk", root) // never closed, so never exported
	now := time.Now()
	tr.interval("serve.engine", root, laneServer, now, now.Add(time.Millisecond))
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3: %+v", len(spans), spans)
	}
	for _, s := range spans[1:] {
		if s.Parent != root || s.Group != 7 {
			t.Errorf("span %s: parent %d group %d, want %d and 7", s.Name, s.Parent, s.Group, root)
		}
	}
	if spans[1].Lane != 1 || spans[2].Lane != laneServer {
		t.Errorf("lanes %d and %d, want 1 and %d", spans[1].Lane, spans[2].Lane, laneServer)
	}

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, "stream-yelp", spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Dur < 0 || ev.Args["parent"] == nil || ev.Args["group"] == nil {
				t.Errorf("bad complete event %+v", ev)
			}
		}
	}
	// One process name, two lane names, three spans.
	if complete != 3 || len(doc.TraceEvents) != 6 {
		t.Errorf("got %d events, %d complete; want 6 and 3", len(doc.TraceEvents), complete)
	}
}
