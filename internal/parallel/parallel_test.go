package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestTeamRunsEveryTask(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		team := NewTeam(n)
		var hits [64]atomic.Int32
		team.Run(func(tid int) { hits[tid].Add(1) })
		team.Run(func(tid int) { hits[tid].Add(1) })
		team.Close()
		for tid := 0; tid < n; tid++ {
			if got := hits[tid].Load(); got != 2 {
				t.Errorf("n=%d tid=%d ran %d times, want 2", n, tid, got)
			}
		}
	}
}

func TestTeamBarrierSynchronizes(t *testing.T) {
	const n = 4
	team := NewTeam(n)
	defer team.Close()
	var before, after atomic.Int32
	team.Run(func(tid int) {
		before.Add(1)
		team.Barrier()
		// Every task must observe all n pre-barrier increments.
		if before.Load() != n {
			t.Errorf("tid %d passed barrier with before=%d", tid, before.Load())
		}
		after.Add(1)
	})
	if after.Load() != n {
		t.Errorf("after = %d, want %d", after.Load(), n)
	}
}

// TestTeamSerialRunsInline checks a one-task team and the nil team, which
// is the serial team: both report one task, run a region's body once on
// the calling goroutine with tid 0, and pass a barrier without blocking.
func TestTeamSerialRunsInline(t *testing.T) {
	one := NewTeam(1)
	defer one.Close()
	for _, team := range []*Team{one, nil} {
		if n := team.N(); n != 1 {
			t.Errorf("N = %d, want 1", n)
		}
		runs := 0
		team.Run(func(tid int) {
			if tid != 0 {
				t.Errorf("tid = %d", tid)
			}
			team.Barrier()
			runs++
		})
		if runs != 1 {
			t.Errorf("body ran %d times, want 1", runs)
		}
	}
}

func TestTeamCloseIdempotent(t *testing.T) {
	team := NewTeam(3)
	team.Close()
	team.Close()
}

func TestBarrierReusable(t *testing.T) {
	const parties, rounds = 3, 5
	b := NewBarrier(parties)
	var wg sync.WaitGroup
	var counter atomic.Int32
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				counter.Add(1)
				b.Wait()
				// After each round's barrier, counter is a multiple of
				// parties.
				if c := counter.Load(); int(c)%parties != 0 {
					t.Errorf("round %d: counter %d not aligned", r, c)
				}
				b.Wait()
			}
		}()
	}
	wg.Wait()
}

func TestPartitionProperties(t *testing.T) {
	// Property: partitions tile [0, n) exactly, in order, with sizes
	// differing by at most 1.
	f := func(n uint16, tasks uint8) bool {
		nn := int(n % 5000)
		tt := int(tasks%32) + 1
		prevEnd := 0
		minSz, maxSz := 1<<30, -1
		for tid := 0; tid < tt; tid++ {
			b, e := Partition(nn, tt, tid)
			if b != prevEnd || e < b {
				return false
			}
			sz := e - b
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prevEnd = e
		}
		return prevEnd == nn && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPartitionDegenerate(t *testing.T) {
	if b, e := Partition(10, 0, 0); b != 0 || e != 0 {
		t.Error("tasks=0 should yield empty")
	}
	if b, e := Partition(10, 4, 7); b != 0 || e != 0 {
		t.Error("tid out of range should yield empty")
	}
	if b, e := Partition(0, 4, 2); b != e {
		t.Error("n=0 should yield empty")
	}
}

func TestPartitionByWeightCoversAndBalances(t *testing.T) {
	weights := make([]int64, 100)
	var total int64
	for i := range weights {
		weights[i] = int64(i%17 + 1)
		total += weights[i]
	}
	const tasks = 4
	bounds := PartitionByWeight(weights, tasks)
	if len(bounds) != tasks+1 || bounds[0] != 0 || bounds[tasks] != len(weights) {
		t.Fatalf("bad bounds %v", bounds)
	}
	for i := 1; i <= tasks; i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("non-monotone bounds %v", bounds)
		}
	}
	// No chunk should exceed ~2x the ideal share for this smooth input.
	ideal := total / tasks
	for i := 0; i < tasks; i++ {
		var w int64
		for j := bounds[i]; j < bounds[i+1]; j++ {
			w += weights[j]
		}
		if w > 2*ideal {
			t.Errorf("chunk %d weight %d exceeds 2x ideal %d", i, w, ideal)
		}
	}
}

func TestPartitionByWeightQuick(t *testing.T) {
	// Property: bounds are monotone and cover [0, n) for arbitrary
	// weights and task counts.
	f := func(raw []uint8, tasks uint8) bool {
		weights := make([]int64, len(raw))
		for i, r := range raw {
			weights[i] = int64(r)
		}
		tt := int(tasks%16) + 1
		bounds := PartitionByWeight(weights, tt)
		if len(bounds) != tt+1 || bounds[0] != 0 || bounds[tt] != len(weights) {
			return false
		}
		for i := 1; i <= tt; i++ {
			if bounds[i] < bounds[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestForCoversRange(t *testing.T) {
	for _, tasks := range []int{1, 3} {
		team := NewTeam(tasks)
		n := 101
		seen := make([]atomic.Int32, n)
		For(team, n, func(i int) { seen[i].Add(1) })
		team.Close()
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("tasks=%d index %d visited %d times", tasks, i, seen[i].Load())
			}
		}
	}
}

func TestForBlocksTileRange(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var mu sync.Mutex
	covered := make(map[int]int)
	ForBlocks(team, 50, func(tid, begin, end int) {
		mu.Lock()
		for i := begin; i < end; i++ {
			covered[i]++
		}
		mu.Unlock()
	})
	if len(covered) != 50 {
		t.Fatalf("covered %d indices, want 50", len(covered))
	}
	for i, c := range covered {
		if c != 1 {
			t.Errorf("index %d covered %d times", i, c)
		}
	}
}

func TestReduceHelpers(t *testing.T) {
	if v := ReduceSum([]float64{1, 2, 3.5}); v != 6.5 {
		t.Errorf("ReduceSum = %g", v)
	}
}
