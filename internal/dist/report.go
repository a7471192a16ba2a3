package dist

import "repro/internal/core"

// Report summarizes a distributed CP-ALS run: locale 0's core.Report plus
// the per-locale data distribution and the communication the collectives
// moved, the cost model a real multi-locale run would be judged by (comm
// volume, critical-path time, shard balance). Replicated state is bitwise
// identical across locales, so the embedded convergence fields (Iterations,
// Fit, FitHistory, Cancelled, Solver, SampledIters) are the world's. Its
// per-shard fields are locale 0's: Format and Strategies (with format.Auto
// other locales may resolve differently), CSFBytes and Times.
type Report struct {
	core.Report
	// Locales is the world size the run executed with.
	Locales int

	// ShardRows[l] is the number of mode-0 slices locale l owns.
	ShardRows []int
	// ShardNNZ[l] is the number of nonzeros locale l owns — the load
	// balance the slab partitioner achieved.
	ShardNNZ []int

	// AllreduceCalls / AllgatherCalls / BarrierCalls count collective
	// operations over the whole run (each counted once, not per locale).
	AllreduceCalls int
	AllgatherCalls int
	BarrierCalls   int
	// AllreduceBytes / AllgatherBytes are the total bytes the collectives
	// would move across locale boundaries (every locale sending its payload
	// to every other locale), summed over the run.
	AllreduceBytes int64
	AllgatherBytes int64
	// CommBytes is the total cross-locale traffic:
	// AllreduceBytes + AllgatherBytes.
	CommBytes int64

	// CommOps is the per-operation communication ledger, one row per
	// collective kind ("barrier", "allreduce", "allgather"). The rows
	// partition the totals above exactly: summing CommOps bytes
	// reproduces CommBytes, and summing each locale's per-op seconds (in
	// row order) reproduces the per-locale totals whose maximum is
	// CommSeconds. Nil for single-locale runs, which have no fabric.
	CommOps []CommOpStats

	// MTTKRPSeconds is the MTTKRP critical path: the maximum across locales
	// of the time each spent inside local MTTKRP kernels. With perfect
	// slab balance it shrinks linearly in the locale count.
	MTTKRPSeconds float64
	// CommSeconds is the maximum across locales of time spent inside
	// collectives (staging copies plus barrier waits).
	CommSeconds float64
	// TotalSeconds is the wall-clock time of the whole run.
	TotalSeconds float64
}

// CommOpStats is the cost of one collective operation over a whole run.
type CommOpStats struct {
	// Op names the collective: "barrier", "allreduce", or "allgather".
	Op string
	// Calls counts invocations (once per collective, not per locale —
	// every locale calls in lockstep).
	Calls int
	// Bytes is the total cross-locale payload, summed over locales.
	Bytes int64
	// SecondsPerLocale[l] is locale l's time inside this collective
	// (staging copies plus barrier waits).
	SecondsPerLocale []float64
	// Seconds is the critical path: max of SecondsPerLocale.
	Seconds float64
}

// ImbalanceRatio reports max/mean nonzeros per locale (1.0 = perfectly
// balanced). Returns 0 when the run had no nonzeros.
func (r *Report) ImbalanceRatio() float64 {
	total := 0
	maxNNZ := 0
	for _, n := range r.ShardNNZ {
		total += n
		if n > maxNNZ {
			maxNNZ = n
		}
	}
	if total == 0 || len(r.ShardNNZ) == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.ShardNNZ))
	return float64(maxNNZ) / mean
}
