package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"
)

// The reference loops: every run times them between its unit operations
// and scales its set-up and latency timings by how fast the loops ran. The
// loops use no repository code, so no change to the repository moves them;
// what moves them is the host. On a shared 2-core host the same CP-ALS
// iteration ran 20–50% slower from one run to the next, and the YELP
// iteration switched between about 60 and 100 ms within a run.
//
// Each workload is scaled by the loops that behave like its work (its
// refs in the workload table). Over ten-seed series on that host
// (README.md, "Reference speed"):
//   - CP-ALS iterations gather factor rows at random, so each one is
//     scaled by the gather loop timed right after it.
//   - A streaming cycle mixes parsing, merging, HTTP and a sampled solve,
//     so stream-yelp is scaled by the stream, compute and gather loops.
//   - A serving read is a round trip through net/http, the loopback and
//     the scheduler, whose cost grows faster than the CPU loops' under
//     contention, so query-mix is scaled by round trips to a bare net/http
//     handler, timed right after each slice of the closed loop.
//
// The loops run between unit operations, never beside them, so the
// workload's own load does not slow them.
type refKind int

const (
	refStream  refKind = iota // stream the buffer: memory bandwidth
	refCompute                // a dependent floating-point chain: core speed
	refGather                 // random reads from the buffer: memory latency
	refHTTP                   // small POSTs to a bare handler: HTTP and scheduling
	refKinds
)

var refNames = [refKinds]string{"stream", "compute", "gather", "http"}

// refNominalMS is each loop's median time on the 2-core host the benchmark
// was tuned on (2 workers). Scaled timings read as timings at that speed;
// on that host the scale is about 1.
var refNominalMS = [refKinds]float64{2.0, 0.6, 0.4, 0.06}

const (
	// refWords is the buffer: 24 MiB of float64, larger than a core's
	// caches.
	refWords = 3 << 20
	// refGathers is how many random reads the gather loop makes.
	refGathers = 1 << 16
	// refComputeSteps is the length of each worker's compute chain.
	refComputeSteps = 200_000
	// refRequests is how many round trips each of the HTTP loop's
	// clients makes in one pass.
	refRequests = 25
	// refPerPause is how many passes a workload takes at each pause
	// between its unit operations when those are long.
	refPerPause = 3
)

// refRequest and refReply are the HTTP loop's bodies, about the size of a
// top-K request and answer.
var refRequest, refReply = bytes.Repeat([]byte("x"), 100), bytes.Repeat([]byte("x"), 600)

// refClock times the reference loops of one workload.
type refClock struct {
	kinds   []refKind
	workers int
	buf     []float64 // the stream and gather loops' buffer
	idx     []int32   // the gather loop's read order
	sink    []float64 // each worker's result, so no loop is optimized away
	echo    *httptest.Server
	hc      *http.Client
	samples [refKinds][]float64 // ms
	lastN   int                 // passes in the latest sample call
}

func newRefClock(workers int, kinds []refKind) *refClock {
	r := &refClock{kinds: kinds, workers: max(workers, 1)}
	r.sink = make([]float64, r.workers)
	if slices.Contains(kinds, refStream) || slices.Contains(kinds, refGather) {
		r.buf, r.idx = make([]float64, refWords), make([]int32, refGathers)
		for i := range r.buf {
			r.buf[i] = float64(i % 7)
		}
		x := uint32(12345)
		for i := range r.idx {
			x = x*1664525 + 1013904223
			r.idx[i] = int32(x % refWords)
		}
	}
	if slices.Contains(kinds, refHTTP) {
		r.echo = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			io.Copy(io.Discard, req.Body)
			w.Header().Set("Content-Type", "application/json")
			w.Write(refReply)
		}))
		r.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}}
	}
	return r
}

// close stops the HTTP loop's server.
func (r *refClock) close() {
	if r.echo != nil {
		r.hc.CloseIdleConnections()
		r.echo.Close()
	}
}

// sample times n passes of each of the workload's loops.
func (r *refClock) sample(n int) {
	r.lastN = n
	for ; n > 0; n-- {
		for _, k := range r.kinds {
			r.samples[k] = append(r.samples[k], r.time(k))
		}
	}
}

// time runs one pass of loop k, split across the workers (the HTTP loop
// uses maxConns clients), and returns its time in ms: the whole pass, or
// for the HTTP loop the median round trip.
func (r *refClock) time(k refKind) float64 {
	workers := r.workers
	if k == refHTTP {
		workers = maxConns
	}
	var mu sync.Mutex
	var trips []float64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := 0.0
			switch k {
			case refStream:
				size := len(r.buf) / workers
				for _, x := range r.buf[w*size : (w+1)*size] {
					s += x * x
				}
			case refCompute:
				for i := 0; i < refComputeSteps; i++ {
					s = s*1.0001 + 1e-9
				}
			case refGather:
				size := len(r.idx) / workers
				for _, j := range r.idx[w*size : (w+1)*size] {
					s += r.buf[j]
				}
			case refHTTP:
				for i := 0; i < refRequests; i++ {
					t := time.Now()
					// A failed round trip still counts its time: the loop
					// measures the host, and the bare handler cannot fail.
					if resp, err := r.hc.Post(r.echo.URL, "application/json", bytes.NewReader(refRequest)); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					mu.Lock()
					trips = append(trips, ms(time.Since(t)))
					mu.Unlock()
				}
				return
			}
			r.sink[w%len(r.sink)] = s
		}(w)
	}
	wg.Wait()
	if k == refHTTP {
		return median(trips)
	}
	return ms(time.Since(t0))
}

// last returns how much slower than nominal loop k ran in the latest
// sample call: the median of its passes over the nominal time.
func (r *refClock) last(k refKind) float64 {
	return median(r.samples[k][len(r.samples[k])-r.lastN:]) / refNominalMS[k]
}

// scale is the factor that turns this run's timings into timings at the
// nominal speed of the workload's loops: the geometric mean of their
// nominal over median times.
func (r *refClock) scale() float64 {
	logSum := 0.0
	for _, k := range r.kinds {
		if len(r.samples[k]) == 0 {
			return 1
		}
		logSum += math.Log(refNominalMS[k] / median(r.samples[k]))
	}
	return math.Exp(logSum / float64(len(r.kinds)))
}
