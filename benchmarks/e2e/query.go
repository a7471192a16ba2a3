package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sptensor"
)

// The serving traffic below is an assumed shape, not one calibrated against
// recorded requests: no request log exists to derive it from. The model's
// size, the mix's shares and the client count are fixed so that runs
// compare with each other; no claim about real serving load rests on them.
const (
	// The served model has the mode lengths of the NETFLIX twin at
	// queryScale (30000×1125×125) and rank queryRank: a ~19 MB upload.
	queryScale = 1.0 / 16
	queryRank  = 32
	// The writes beside the reads publish small models of publishDims at
	// publishRank, drawn from publishModels distinct ones.
	publishRank   = 16
	publishModels = 8
	// checkEvery: every checkEvery-th read answer is checked against the
	// local model.
	checkEvery = 32
	// probeNNZ sizes the NETFLIX-shaped tensor the layer probes of a
	// traced run use: the serving workload decomposes nothing itself.
	probeNNZ = 200_000
)

var publishDims = []int{2000, 500, 100}

type opKind int

const (
	opTopK opKind = iota
	opSimilar
	opEntry
	opPublish
)

var opNames = [...]string{"topk", "similar", "entry", "publish"}

// queryOp is one pre-built request of the mix and what it asked.
type queryOp struct {
	kind   opKind
	method string
	path   string
	body   []byte
	mode   int
	coord  []int
	index  int
	model  int // opPublish: which publish model
}

// answer is a response kept for checking after the timed phases.
type answer struct {
	op   int
	body []byte
}

// runQuery serves one large model to a read-heavy mix with a few publishes
// beside it: 60% top-K over mode 0, 25% similar rows of mode 1, 13% single
// entries, 2% publishes of small models (assumed shares, see above). A
// closed loop of two clients measures read latency and capacity. Set-up is
// service start plus the model upload.
func runQuery(e *env) (probeInput, error) {
	scale, pub := queryScale, publishDims
	if e.cfg.quick {
		scale /= quickShrink
		pub = []int{publishDims[0] / 16, publishDims[1] / 16, publishDims[2] / 16}
	}
	spec, err := sptensor.LookupDataset("netflix")
	if err != nil {
		panic(err) // a registered dataset
	}
	spec.Seed = e.cfg.seed
	dims := spec.ScaledDims(scale)
	served := core.NewRandomKruskal(dims, queryRank, e.cfg.seed)
	local, err := model.Build(served)
	if !e.led.op(err) {
		return probeInput{}, err
	}
	body, err := json.Marshal(upload(served))
	if !e.led.op(err) {
		return probeInput{}, err
	}
	pubBodies := make([][]byte, publishModels)
	pubIDs := make([]string, publishModels)
	for i := range pubBodies {
		k := core.NewRandomKruskal(pub, publishRank, e.cfg.seed+1+int64(i))
		m, err := model.Build(k)
		if !e.led.op(err) {
			return probeInput{}, err
		}
		pubIDs[i] = m.ID()
		if pubBodies[i], err = json.Marshal(upload(k)); !e.led.op(err) {
			return probeInput{}, err
		}
	}
	ops := buildMix(rand.New(rand.NewSource(e.cfg.seed)), local, pubBodies)

	var svc *service
	var info model.Info
	var setups []float64
	for i := 0; i < minReps; i++ {
		if svc != nil {
			svc.close()
		}
		// Free the previous service's model before the next upload, so peak
		// memory holds one service.
		runtime.GC()
		t0 := time.Now()
		svc = startService(e.cfg.rt)
		if err := svc.c.call("POST", "/v1/models", body, &info); !e.led.op(err) {
			svc.close()
			return probeInput{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.close()
	e.led.gate("model-content-id", info.ID == local.ID(), "served model %s, local model %s", info.ID, local.ID())

	// The closed loop starts from a collected heap, so the set-ups' garbage
	// does not set its collector's pace and peak memory repeats.
	runtime.GC()
	closed := closedLoop(e, svc.c, ops, e.seconds())
	e.peakRSS()

	checked, bad := 0, 0
	for _, a := range closed.answers {
		checked++
		if err := checkAnswer(ops[a.op%len(ops)], a.body, local, pubIDs); err != nil {
			bad++
			e.led.op(err)
		}
	}
	e.led.gate("answers-match-local-model", bad == 0 && checked > 0,
		"%d of %d sampled answers differ from direct model calls", bad, checked)
	if len(closed.reads) == 0 {
		e.led.op(errNoSamples)
		return probeInput{}, errNoSamples
	}

	e.setup(setups, e.ref.scale())
	e.latency(closed.reads, closed.scaledReads)
	e.detail("ops_per_s", float64(closed.done)/closed.elapsed.Seconds(), "1/s")
	if len(closed.publishes) > 0 {
		e.detail("publish_p50_ms", median(closed.publishes), "ms")
	}
	e.traceOverhead(closed.tracedTopK, closed.untracedTopK)

	// The layer probes run on a NETFLIX-shaped tensor of the served
	// model's mode lengths, and on the served model itself.
	spec.PaperNNZ = int64(float64(probeNNZ) / scale)
	if e.cfg.quick {
		spec.PaperNNZ /= quickShrink
	}
	var probeT *sptensor.Tensor
	if e.cfg.traced {
		probeT = spec.Generate(scale)
	}
	return probeInput{t: probeT, format: format.ALTO, rank: queryRank, served: served}, nil
}

// upload converts a Kruskal model to the POST /v1/models body.
func upload(k *core.KruskalTensor) serve.KruskalUpload {
	u := serve.KruskalUpload{Lambda: k.Lambda, Factors: make([][][]float64, len(k.Factors))}
	for m, f := range k.Factors {
		u.Factors[m] = f.Jagged()
	}
	return u
}

// buildMix pre-builds the request mix in its exact shares, shuffled, so
// clients spend no time composing requests inside the timed phases and
// every seed sends the same mix.
func buildMix(rng *rand.Rand, m *model.Model, pubBodies [][]byte) []queryOp {
	const perCent = 41 // 4100 requests, then the mix repeats
	dims := m.Dims()
	base := "/v1/models/" + m.ID()
	var ops []queryOp
	for _, share := range []struct {
		kind opKind
		pct  int
	}{{opTopK, 60}, {opSimilar, 25}, {opEntry, 13}, {opPublish, 2}} {
		for i := 0; i < share.pct*perCent; i++ {
			op := queryOp{kind: share.kind, method: "POST"}
			switch share.kind {
			case opTopK:
				op.mode, op.coord = 0, randomCoord(rng, dims)
				op.path, op.body = base+"/topk", topKBody(op.mode, op.coord, topK)
			case opSimilar:
				op.mode, op.index = 1, rng.Intn(dims[1])
				op.path, op.body = base+"/similar", similarBody(op.mode, op.index, topK)
			case opEntry:
				op.coord = randomCoord(rng, dims)
				op.method, op.path = "GET", entryPath(m.ID(), op.coord)
			case opPublish:
				op.model = i % len(pubBodies)
				op.path, op.body = "/v1/models", pubBodies[op.model]
			}
			ops = append(ops, op)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// checkAnswer compares one HTTP answer with the same query made directly on
// the local model, whose content ID equals the served model's.
func checkAnswer(op queryOp, body []byte, local *model.Model, pubIDs []string) error {
	ws := model.NewWorkspace()
	switch op.kind {
	case opTopK, opSimilar:
		var got queryAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		var want []model.Item
		var err error
		if op.kind == opTopK {
			want, err = local.TopK(ws, op.mode, op.coord, topK, nil)
		} else {
			want, err = local.Similar(ws, op.mode, op.index, topK, nil)
		}
		if err != nil {
			return err
		}
		if got.ModelID != local.ID() || !slices.Equal(got.Items, want) {
			return fmt.Errorf("%s %s: answer differs from the local model", op.method, op.path)
		}
	case opEntry:
		var got entryAnswer
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := local.At(ws, op.coord)
		if err != nil {
			return err
		}
		if got.ModelID != local.ID() || got.Value != want {
			return fmt.Errorf("%s %s: entry %v, local model %v", op.method, op.path, got.Value, want)
		}
	case opPublish:
		var got model.Info
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.ID != pubIDs[op.model] {
			return fmt.Errorf("publish answered model %s, want %s", got.ID, pubIDs[op.model])
		}
	}
	return nil
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	reads, publishes []float64 // latencies, ms
	// scaledReads are the reads at the HTTP loop's nominal speed, each
	// slice's scaled by the loop's passes right after the slice.
	scaledReads []float64
	answers     []answer
	done        int // completed requests
	sent        int // requests sent, so the next slice continues the mix
	elapsed     time.Duration
	// Top-K latencies of traced and untraced requests, for the tracing
	// overhead.
	tracedTopK, untracedTopK []float64
}

// merge folds one client's samples into r.
func (r *phaseResult) merge(o *phaseResult) {
	r.reads = append(r.reads, o.reads...)
	r.publishes = append(r.publishes, o.publishes...)
	r.answers = append(r.answers, o.answers...)
	r.tracedTopK = append(r.tracedTopK, o.tracedTopK...)
	r.untracedTopK = append(r.untracedTopK, o.untracedTopK...)
	r.done += o.done
}

// record notes one completed request of op i that took d.
func (r *phaseResult) record(ops []queryOp, i int, d time.Duration, body []byte, traced bool) {
	op := ops[i%len(ops)]
	r.done++
	if op.kind == opPublish {
		r.publishes = append(r.publishes, ms(d))
		r.answers = append(r.answers, answer{i, body})
		return
	}
	r.reads = append(r.reads, ms(d))
	if i%checkEvery == 0 {
		r.answers = append(r.answers, answer{i, body})
	}
	if op.kind == opTopK {
		if traced {
			r.tracedTopK = append(r.tracedTopK, ms(d))
		} else {
			r.untracedTopK = append(r.untracedTopK, ms(d))
		}
	}
}

// closedLoop runs maxConns clients that each send their next request as
// soon as the previous one is answered, for d. The clients pause every
// closedSlice for the reference loop; elapsed counts only the load.
func closedLoop(e *env, c *client, ops []queryOp, d time.Duration) phaseResult {
	var out phaseResult
	for end := time.Now().Add(d); time.Now().Before(end); {
		s := closedSliceRun(e, c, ops, min(closedSlice, time.Until(end)), out.sent)
		out.merge(&s)
		out.elapsed += s.elapsed
		out.sent = s.sent
		e.ref.sample(refPerPause)
		out.scaledReads = append(out.scaledReads, scaleAll(s.reads, 1/e.ref.last(refHTTP))...)
	}
	return out
}

// closedSlice is how long the closed loop runs between reference samples.
const closedSlice = 250 * time.Millisecond

// closedSliceRun is one slice of the closed loop, continuing the mix at op
// first.
func closedSliceRun(e *env, c *client, ops []queryOp, d time.Duration, first int) phaseResult {
	var next atomic.Int64
	next.Store(int64(first))
	per := make([]phaseResult, maxConns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for lane := range per {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			r := &per[lane]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				op := ops[i%len(ops)]
				tr := e.traceEvery(i)
				sp := tr.root("serve."+opNames[op.kind], int64(i), lane)
				t0 := time.Now()
				body, err := c.do(op.method, op.path, op.body)
				took := time.Since(t0)
				tr.end(sp)
				if e.led.op(err) {
					r.record(ops, i, took, body, tr != nil)
				}
			}
		}(lane)
	}
	wg.Wait()
	var out phaseResult
	for i := range per {
		out.merge(&per[i])
	}
	out.elapsed = time.Since(start)
	out.sent = int(next.Load())
	return out
}
