package parallel

// Partition computes the static contiguous block [begin, end) that task tid
// owns out of n items split across tasks — the manual loop-bound computation
// the paper resorts to for `omp for` nested inside `omp parallel` (§IV-B).
// Remainder items are distributed one per leading task, matching OpenMP's
// static schedule.
func Partition(n, tasks, tid int) (begin, end int) {
	if tasks <= 0 || tid < 0 || tid >= tasks {
		return 0, 0
	}
	chunk := n / tasks
	rem := n % tasks
	if tid < rem {
		begin = tid * (chunk + 1)
		end = begin + chunk + 1
	} else {
		begin = rem*(chunk+1) + (tid-rem)*chunk
		end = begin + chunk
	}
	if end > n {
		end = n
	}
	return begin, end
}

// PartitionByWeight splits the index range [0, len(weights)) into `tasks`
// contiguous chunks of approximately equal total weight, returning the
// tasks+1 boundary array. SPLATT uses the same prefix-sum partitioning to
// split slices among threads so each owns a similar number of nonzeros.
func PartitionByWeight(weights []int64, tasks int) []int {
	n := len(weights)
	bounds := make([]int, tasks+1)
	bounds[tasks] = n
	if tasks <= 1 || n == 0 {
		return bounds
	}
	var total int64
	for _, w := range weights {
		total += w
	}
	target := total / int64(tasks)
	if target == 0 {
		target = 1
	}
	var acc int64
	next := 1
	for i := 0; i < n && next < tasks; i++ {
		acc += weights[i]
		// Close the chunk once it reaches its proportional share. The
		// remaining chunks re-target on the remaining weight so a single
		// huge slice cannot starve the tail tasks of items.
		if acc >= target {
			bounds[next] = i + 1
			next++
			total -= acc
			acc = 0
			if rem := tasks - next + 1; rem > 0 {
				target = total / int64(rem)
				if target == 0 {
					target = 1
				}
			}
		}
	}
	for ; next < tasks; next++ {
		bounds[next] = bounds[next-1]
	}
	// bounds must be monotone and end at n.
	for i := 1; i <= tasks; i++ {
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	bounds[tasks] = n
	return bounds
}

// For runs body(i) for every i in [0, n) split statically across the team —
// the `forall` / `omp parallel for` analogue used when a region is a single
// data-parallel loop.
func For(t *Team, n int, body func(i int)) {
	if t.N() == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	t.Run(func(tid int) {
		begin, end := Partition(n, t.N(), tid)
		for i := begin; i < end; i++ {
			body(i)
		}
	})
}

// ForBlocks runs body(tid, begin, end) over the static block each task owns.
// This is the pattern from the paper's Listing 7: every task gets its own
// tid-indexed scratch plus a contiguous slice of the iteration space.
func ForBlocks(t *Team, n int, body func(tid, begin, end int)) {
	if t.N() == 1 {
		body(0, 0, n)
		return
	}
	t.Run(func(tid int) {
		begin, end := Partition(n, t.N(), tid)
		body(tid, begin, end)
	})
}
