package dist

import (
	"math"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// negInf is the identity element of the max reduction.
var negInf = math.Inf(-1)

// commOp indexes the per-operation accounting ledger.
type commOp int

const (
	opBarrier commOp = iota
	opAllreduce
	opAllgather
	numCommOps
)

// commOpNames are the stable exposition names of the collectives (the
// `op` label of the Prometheus comm families and Report.CommOps rows).
var commOpNames = [numCommOps]string{"barrier", "allreduce", "allgather"}

// commOpPhases maps each operation to its span phase.
var commOpPhases = [numCommOps]obs.Phase{
	obs.PhaseCommBarrier, obs.PhaseCommAllreduce, obs.PhaseCommAllgather,
}

// opAccount is one locale's ledger for one collective operation. Each
// locale writes only its own row, so no synchronization is needed; time
// is kept as integer nanoseconds so per-op sums reconcile exactly with
// the Report totals derived from them (float accumulation would not).
type opAccount struct {
	calls int64
	bytes int64
	nanos int64
}

// comm is the collective-communication fabric shared by the locales of one
// run. Locales exchange data only through its staging buffers, so every
// cross-locale word is explicit and accounted — the simulation's analogue
// of an MPI communicator (or Chapel's implicit comms made visible).
//
// All collectives are bulk-synchronous: every locale must call the same
// collectives in the same order, exactly as in SPMD MPI code. Reductions
// combine locale contributions in ascending locale order on every locale,
// so all replicas stay bitwise identical.
//
// Accounting is per locale and per operation: locale l's row counts its
// own calls, its own outbound bytes (payload sent to the other L−1
// locales), and its own seconds inside the collective (staging copies
// plus barrier waits). Rows are written only by their owning locale and
// read after the run joins, so they need no extra synchronization.
type comm struct {
	locales int
	barrier *parallel.Barrier

	// stage[l] is locale l's outbound payload for the current reduction.
	stage [][]float64
	// gather is the shared assembly buffer for AllgatherRows.
	gather []float64

	// ops[l][op] is locale l's ledger for one collective operation.
	ops [][numCommOps]opAccount
	// recs[l] is locale l's span recorder, which is also the collective
	// clock: the span duration and the ledger nanos come from the same
	// reading, so the profiler's comm phases and the Report's per-op
	// seconds agree bitwise.
	recs []*obs.SpanRecorder
}

// newComm creates the fabric for a world of `locales`, with an allgather
// assembly buffer of gatherFloats elements (the mode-0 factor size),
// charging each locale's collectives to its recorder in spans. A profiler
// with fewer recorders than locales shares its last recorder (Recorder
// clamps) — attribution degrades, nothing breaks.
func newComm(locales, gatherFloats int, spans *obs.Profiler) *comm {
	c := &comm{
		locales: locales,
		barrier: parallel.NewBarrier(locales),
		stage:   make([][]float64, locales),
		gather:  make([]float64, gatherFloats),
		ops:     make([][numCommOps]opAccount, locales),
		recs:    make([]*obs.SpanRecorder, locales),
	}
	for l := range c.recs {
		c.recs[l] = spans.Recorder(l)
	}
	return c
}

// charge closes the collective's span and posts one ledger entry for
// locale lid: calls/bytes plus the span's nanos.
func (c *comm) charge(lid int, op commOp, span int64, bytes int64) {
	nanos := c.recs[lid].EndOp(commOpPhases[op], span, bytes)
	a := &c.ops[lid][op]
	a.calls++
	a.bytes += bytes
	a.nanos += nanos
}

// outbox returns locale lid's staging buffer, grown to at least n elements.
// Each locale touches only its own slot, so no locking is needed.
func (c *comm) outbox(lid, n int) []float64 {
	if cap(c.stage[lid]) < n {
		c.stage[lid] = make([]float64, n)
	}
	c.stage[lid] = c.stage[lid][:n]
	return c.stage[lid]
}

// Barrier is the explicit standalone synchronization collective: it blocks
// locale lid until every locale has reached it. The CP-ALS driver needs no
// standalone barriers today (every sync point is a phase of a bulk
// collective), but SPMD extensions — e.g. a distributed tiling schedule —
// synchronize through this.
func (c *comm) Barrier(lid int) {
	span := c.recs[lid].Start()
	c.barrier.Wait()
	c.charge(lid, opBarrier, span, 0)
}

// reduce runs one bulk-synchronous reduction round: stage the local
// payload, wait for all peers, combine every locale's stage (in locale
// order, so all replicas agree bitwise), and wait again before the stages
// may be reused. combine folds src into dst element-wise. Each locale is
// charged its outbound payload: len(buf) floats read by L−1 peers.
func (c *comm) reduce(lid int, buf []float64, init float64, combine func(dst, src []float64)) {
	span := c.recs[lid].Start()
	out := c.outbox(lid, len(buf))
	copy(out, buf)
	c.barrier.Wait()
	for i := range buf {
		buf[i] = init
	}
	for l := 0; l < c.locales; l++ {
		combine(buf, c.stage[l][:len(buf)])
	}
	c.barrier.Wait()
	c.charge(lid, opAllreduce, span, int64((c.locales-1)*len(buf))*8)
}

// AllreduceSum replaces buf on every locale with the element-wise sum of
// all locales' bufs. Used for partial MTTKRP outputs and Gram matrices.
func (c *comm) AllreduceSum(lid int, buf []float64) {
	c.reduce(lid, buf, 0, func(dst, src []float64) {
		for i := range dst {
			dst[i] += src[i]
		}
	})
}

// AllreduceMax replaces buf on every locale with the element-wise maximum
// of all locales' bufs. Used for the max-norm column normalization.
func (c *comm) AllreduceMax(lid int, buf []float64) {
	c.reduce(lid, buf, negInf, func(dst, src []float64) {
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	})
}

// AllreduceScalar sums one float64 across locales.
func (c *comm) AllreduceScalar(lid int, v float64) float64 {
	buf := [1]float64{v}
	c.AllreduceSum(lid, buf[:])
	return buf[0]
}

// AllgatherRows assembles a row-partitioned matrix: locale lid contributes
// rows [lo, hi) of the rowLen-wide matrix stored in full, and on return
// every locale's full holds all rows. Ownership ranges must be disjoint
// across locales and cover the rows every caller reads afterwards. Each
// locale is charged its contribution: (hi−lo)·rowLen floats read by L−1
// peers.
func (c *comm) AllgatherRows(lid, lo, hi, rowLen int, full []float64) {
	span := c.recs[lid].Start()
	copy(c.gather[lo*rowLen:hi*rowLen], full[lo*rowLen:hi*rowLen])
	c.barrier.Wait()
	copy(full, c.gather[:len(full)])
	c.barrier.Wait()
	c.charge(lid, opAllgather, span, int64((c.locales-1)*(hi-lo)*rowLen)*8)
}

// fill derives the Report's communication ledger from the per-locale
// per-op accounts. Calls are counted once per collective (every locale
// calls in lockstep, so locale 0's count is the world's); bytes sum over
// locales; seconds are per locale and per op, with totals computed FROM
// the per-op values so Report.CommSeconds equals the sum of its parts
// exactly.
func (c *comm) fill(r *Report) {
	r.CommOps = make([]CommOpStats, numCommOps)
	perLocale := make([]float64, c.locales)
	for op := commOp(0); op < numCommOps; op++ {
		st := &r.CommOps[op]
		st.Op = commOpNames[op]
		st.Calls = int(c.ops[0][op].calls)
		st.SecondsPerLocale = make([]float64, c.locales)
		for l := 0; l < c.locales; l++ {
			a := &c.ops[l][op]
			st.Bytes += a.bytes
			secs := float64(a.nanos) / 1e9
			st.SecondsPerLocale[l] = secs
			perLocale[l] += secs
			if secs > st.Seconds {
				st.Seconds = secs
			}
		}
	}
	r.AllreduceCalls = int(c.ops[0][opAllreduce].calls)
	r.AllgatherCalls = int(c.ops[0][opAllgather].calls)
	// Legacy semantics: each bulk collective is two barrier phases, plus
	// the standalone Barrier calls.
	r.BarrierCalls = int(c.ops[0][opBarrier].calls) + 2*(r.AllreduceCalls+r.AllgatherCalls)
	r.AllreduceBytes = r.CommOps[opAllreduce].Bytes
	r.AllgatherBytes = r.CommOps[opAllgather].Bytes
	r.CommBytes = r.CommOps[opBarrier].Bytes + r.AllreduceBytes + r.AllgatherBytes
	for _, s := range perLocale {
		if s > r.CommSeconds {
			r.CommSeconds = s
		}
	}
}
