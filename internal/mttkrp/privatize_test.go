package mttkrp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/parallel"
)

// TestPrivatizerReduceMatchesSerialSum pins the bitwise contract: with
// overlapping partial windows or whole-mode ones, reducing into out on any
// team adds the serial sum over tasks in task order, and a repeated
// reduction allocates nothing.
func TestPrivatizerReduceMatchesSerialSum(t *testing.T) {
	const tasks, rows, rank = 4, 37, 3
	// Mode 0 windows overlap, nest, touch the edges and include an empty
	// one; mode 1 is the full mode for every task. Windows are [task][mode].
	lo := [][]int{{0, 0}, {5, 0}, {30, 0}, {0, 0}}
	hi := [][]int{{12, rows}, {31, rows}, {37, rows}, {0, rows}}
	if got := NewPrivatizer(rank, lo, hi).Rows(1); got != rows*tasks {
		t.Fatalf("Rows(1) = %d, want %d", got, rows*tasks)
	}
	rng := rand.New(rand.NewSource(3))
	vals := make(map[[3]int]float64)
	for mode := range lo[0] {
		want := make([]float64, rows*rank)
		for i := range want {
			want[i] = 1
		}
		for _, teamSize := range []int{0, 1, 2, 3, 5} {
			p := NewPrivatizer(rank, lo, hi)
			clear(vals)
			rng.Seed(int64(mode))
			out := dense.NewMatrix(rows, rank)
			p.Stage(mode, out)
			for tid := 0; tid < tasks; tid++ {
				buf, base := p.Open(tid)
				for i := range buf {
					v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
					buf[i] = v
					vals[[3]int{tid, base + i/rank, i % rank}] = v
				}
			}
			if teamSize == 0 { // the serial reference, in task order
				for tid := 0; tid < tasks; tid++ {
					for r := lo[tid][mode]; r < hi[tid][mode]; r++ {
						for c := 0; c < rank; c++ {
							want[r*rank+c] += vals[[3]int{tid, r, c}]
						}
					}
				}
				continue
			}
			var team *parallel.Team
			if teamSize > 1 {
				team = parallel.NewTeam(teamSize)
			}
			for i := range out.Data {
				out.Data[i] = 1
			}
			p.Reduce(team)
			for i, v := range out.Data {
				if v != want[i] {
					t.Fatalf("mode %d team %d: out[%d] = %v, want %v", mode, teamSize, i, v, want[i])
				}
			}
			// The reduction body is cached: repeated reductions allocate
			// nothing.
			if n := testing.AllocsPerRun(10, func() { p.Reduce(team) }); n != 0 {
				t.Errorf("mode %d team %d: Reduce allocates %.1f per call, want 0", mode, teamSize, n)
			}
			if team != nil {
				team.Close()
			}
		}
	}
}

// TestPrivatizerReduceFullWindows checks the CSF shape: every task's window
// is the whole mode, and Reduce adds each task's buffer onto what out
// already holds.
func TestPrivatizerReduceFullWindows(t *testing.T) {
	const tasks, rows, rank = 3, 20, 2
	lo, hi := WholeModes([]int{rows}, tasks) // [task][mode]
	p := NewPrivatizer(rank, lo, hi)
	out := dense.NewMatrix(rows, rank)
	p.Stage(0, out)
	for tid := 0; tid < tasks; tid++ {
		buf, base := p.Open(tid)
		if len(buf) != rows*rank || base != 0 {
			t.Fatalf("task %d: len %d base %d, want %d, 0", tid, len(buf), base, rows*rank)
		}
		for i := range buf {
			buf[i] = float64(tid + 1)
		}
	}
	for i := range out.Data {
		out.Data[i] = 10
	}
	team := parallel.NewTeam(2)
	defer team.Close()
	p.Reduce(team)
	for i, v := range out.Data {
		if v != 10+1+2+3 {
			t.Fatalf("out[%d] = %g, want 16", i, v)
		}
	}
}

// TestPrivatizerGrowAndZero checks that Open sizes a task's buffer by its
// window clipped to the staged output's rows, grows it for a wider window,
// always hands it out zeroed, and that Reduce leaves out tasks that never
// opened their buffer.
func TestPrivatizerGrowAndZero(t *testing.T) {
	const rank = 2
	lo := [][]int{{2, 0}, {0, 0}} // [task][mode]
	hi := [][]int{{6, 16}, {3, 16}}
	p := NewPrivatizer(rank, lo, hi)
	if got := p.Rows(0); got != 4+3 {
		t.Errorf("Rows(0) = %d, want 7", got)
	}
	out := dense.NewMatrix(16, rank)
	p.Stage(0, out)
	buf, base := p.Open(0)
	if len(buf) != 4*rank || base != 2 {
		t.Fatalf("mode 0 task 0: len %d base %d, want %d, 2", len(buf), base, 4*rank)
	}
	buf[3] = 7
	// A 10-row output (a shard of mode 1) clips the window to its rows.
	p.Stage(1, dense.NewMatrix(10, rank))
	if buf, base = p.Open(0); len(buf) != 10*rank || base != 0 {
		t.Fatalf("mode 1 task 0, 10-row output: len %d base %d, want %d, 0", len(buf), base, 10*rank)
	}
	p.Stage(1, out)
	buf, base = p.Open(0)
	if len(buf) != 16*rank || base != 0 {
		t.Fatalf("mode 1 task 0: len %d base %d, want %d, 0", len(buf), base, 16*rank)
	}
	for i := range buf {
		buf[i] = 9
	}
	p.Stage(0, out)
	buf, _ = p.Open(0)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("reopened buffer [%d] = %g, want 0", i, v)
		}
	}
	buf[0] = 5
	// Task 1 never opened its buffer in this stage: Reduce must skip it.
	p.Reduce(nil)
	for i, v := range out.Data {
		want := 0.0
		if i == 2*rank {
			want = 5
		}
		if v != want {
			t.Fatalf("out[%d] = %g, want %g", i, v, want)
		}
	}
}
