package alto

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// bruteWindow is Window by delinearizing every nonzero of [begin, end).
func bruteWindow(at *Tensor, begin, end int) (lo, hi []int) {
	order := at.Order()
	lo, hi = make([]int, order), make([]int, order)
	coord := make([]sptensor.Index, order)
	for x := begin; x < end; x++ {
		var h uint64
		if at.Hi != nil {
			h = at.Hi[x]
		}
		at.Enc.Delinearize(at.Lo[x], h, coord)
		for m, c := range coord {
			if x == begin || int(c) < lo[m] {
				lo[m] = int(c)
			}
			if x == begin || int(c)+1 > hi[m] {
				hi[m] = int(c) + 1
			}
		}
	}
	return lo, hi
}

// TestWindowMatchesBruteForce checks Window against a min/max over every
// nonzero, for ranges that are empty, hold one nonzero, sit inside a
// block, are one whole block, straddle block edges or cover the tensor,
// on narrow and wide encodings of orders 3 and 4.
func TestWindowMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
		wide bool
	}{
		{"narrow-order3", []int{300, 70, 900}, false},
		{"narrow-order4", []int{40, 90, 25, 60}, false},
		{"wide-order3", []int{1 << 22, 1 << 22, 1 << 21}, true},
		{"wide-order4", []int{1 << 17, 1 << 16, 1 << 16, 1 << 16}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at, err := FromCOO(sptensor.Random(tc.dims, 3*delinTile+300, 7), nil)
			if err != nil {
				t.Fatal(err)
			}
			if at.Enc.Wide() != tc.wide {
				t.Fatalf("wide = %v, want %v", at.Enc.Wide(), tc.wide)
			}
			nnz := at.NNZ()
			ranges := [][2]int{
				{0, 0}, {delinTile, delinTile}, // empty
				{0, 1}, {delinTile - 1, delinTile}, {nnz - 1, nnz}, // one nonzero
				{10, 500}, {delinTile + 3, 2*delinTile - 3}, // inside a block
				{0, delinTile}, {delinTile, 2 * delinTile}, // one whole block
				{3 * delinTile, nnz},                                   // the short last block
				{delinTile - 1, delinTile + 1}, {500, 2*delinTile + 7}, // straddling
				{0, nnz}, // the whole tensor
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 20; i++ {
				a, b := rng.Intn(nnz+1), rng.Intn(nnz+1)
				ranges = append(ranges, [2]int{min(a, b), max(a, b)})
			}
			lo, hi := make([]int, at.Order()), make([]int, at.Order())
			for _, r := range ranges {
				at.Window(r[0], r[1], lo, hi)
				wantLo, wantHi := bruteWindow(at, r[0], r[1])
				if fmt.Sprint(lo, hi) != fmt.Sprint(wantLo, wantHi) {
					t.Errorf("range %v: window %v..%v, want %v..%v", r, lo, hi, wantLo, wantHi)
				}
			}
		})
	}
}

// differentialTensors returns operator fixtures that between them run
// every walker: a hub-skewed narrow order-3 tensor (the pext tiles where
// compiled in, and the byte-table tiles through forceTables), an
// order-4 tensor and a wide-encoding tensor (runRange), and a tensor with
// fewer nonzeros than tasks.
func differentialTensors(t *testing.T) map[string]*Tensor {
	t.Helper()
	out := map[string]*Tensor{}
	add := func(name string, tt *sptensor.Tensor) *Tensor {
		at, err := FromCOO(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = at
		return at
	}
	hub := add("hub-order3", sptensor.Datasets["yelp"].Generate(1.0/1024))
	tables := *hub
	tables.Enc = forceTables(hub.Enc)
	out["hub-order3-tables"] = &tables
	add("order4", sptensor.Random([]int{30, 20, 40, 25}, 5000, 13))
	if wide := add("wide-order4", sptensor.Random([]int{1 << 17, 1 << 16, 1 << 16, 1 << 16}, 3000, 17)); !wide.Enc.Wide() {
		t.Fatal("wide fixture is narrow")
	}
	add("tiny", sptensor.Random([]int{6, 5, 4}, 5, 19))
	return out
}

// TestPrivatizedApplyBitwise pins the reduction's summation order: a
// privatized Apply repeats bit for bit, and equals adding the tasks'
// partial MTTKRPs (each a serial Apply over the task's nonzero range)
// into a zero output in task order.
func TestPrivatizedApplyBitwise(t *testing.T) {
	const rank, tasks = 7, 3
	for name, at := range differentialTensors(t) {
		factors := randomFactors(at.Enc.Dims, rank, 29)
		team := parallel.NewTeam(tasks)
		op := NewOperator(at, team, rank, mttkrp.Options{Strategy: mttkrp.StrategyPrivatize, LockKind: locks.Spin})
		for mode, rows := range at.Enc.Dims {
			got := dense.NewMatrix(rows, rank)
			op.Apply(mode, factors, got)
			again := dense.NewMatrix(rows, rank)
			op.Apply(mode, factors, again)

			want := dense.NewMatrix(rows, rank)
			part := dense.NewMatrix(rows, rank)
			for tid := 0; tid < tasks; tid++ {
				b, e := op.bounds[tid], op.bounds[tid+1]
				sub := &Tensor{Enc: at.Enc, Lo: at.Lo[b:e], Vals: at.Vals[b:e]}
				if at.Hi != nil {
					sub.Hi = at.Hi[b:e]
				}
				sub.computeRuns(nil)
				NewOperator(sub, nil, rank, mttkrp.Options{}).Apply(mode, factors, part)
				dense.VecAdd(want.Data, part.Data)
			}
			for i, v := range got.Data {
				if v != again.Data[i] {
					t.Fatalf("%s mode %d: element %d changed on repeat: %v then %v", name, mode, i, v, again.Data[i])
				}
				if v != want.Data[i] {
					t.Fatalf("%s mode %d: element %d = %v, task-order sum of partials %v", name, mode, i, v, want.Data[i])
				}
			}
		}
		team.Close()
	}
}

// TestWindowDecisionOnYELP pins the windowed rule on the YELP 1/16 twin:
// every mode privatizes at 2 tasks (mode 2 locked under the I_m × tasks
// rule), and at 4 tasks mode 2 locks, its windows no longer fitting under
// runs/PrivRatio. The recorded window rows must be the brute-force windows
// of each task's range.
func TestWindowDecisionOnYELP(t *testing.T) {
	at, err := FromCOO(sptensor.Datasets["yelp"].Generate(1.0/16), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tasks int
		want  []mttkrp.ConflictStrategy
	}{
		{2, []mttkrp.ConflictStrategy{mttkrp.StrategyPrivatize, mttkrp.StrategyPrivatize, mttkrp.StrategyPrivatize}},
		{4, []mttkrp.ConflictStrategy{mttkrp.StrategyPrivatize, mttkrp.StrategyPrivatize, mttkrp.StrategyLock}},
	} {
		team := parallel.NewTeam(tc.tasks)
		op := NewOperator(at, team, 8, mttkrp.DefaultOptions())
		wantRows := make([]int, at.Order())
		for tid := 0; tid < tc.tasks; tid++ {
			lo, hi := bruteWindow(at, op.bounds[tid], op.bounds[tid+1])
			for m := range wantRows {
				wantRows[m] += hi[m] - lo[m]
			}
		}
		for m, want := range tc.want {
			rows := op.WindowRows(m)
			if rows != wantRows[m] {
				t.Errorf("tasks=%d mode %d: window rows %d, brute force %d", tc.tasks, m, rows, wantRows[m])
			}
			if got := op.StrategyFor(m); got != want {
				t.Errorf("tasks=%d mode %d: %v, want %v (window rows %d, I_m×tasks %d, runs/%d %d)",
					tc.tasks, m, got, want, rows, at.Enc.Dims[m]*tc.tasks, mttkrp.PrivRatio, at.Runs(m)/mttkrp.PrivRatio)
			}
		}
		team.Close()
	}
}

// FuzzOperatorMatchesCOO drives random small tensors through a random
// forced strategy at up to 8 tasks and checks the result against the
// coordinate-form reference.
func FuzzOperatorMatchesCOO(f *testing.F) {
	f.Add(uint8(9), uint8(7), uint8(5), uint8(0), uint16(200), uint8(3), uint8(1), int64(1))
	f.Add(uint8(40), uint8(1), uint8(3), uint8(6), uint16(700), uint8(8), uint8(3), int64(2))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint16(3), uint8(7), uint8(0), int64(3))
	f.Add(uint8(200), uint8(150), uint8(90), uint8(0), uint16(2500), uint8(2), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, d0, d1, d2, d3 uint8, nnz uint16, tasks, strat uint8, seed int64) {
		dims := []int{int(d0) + 1, int(d1) + 1, int(d2) + 1}
		if d3 > 0 {
			dims = append(dims, int(d3))
		}
		tt := sptensor.Random(dims, int(nnz%3000)+1, seed)
		at, err := FromCOO(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		strategies := []mttkrp.ConflictStrategy{mttkrp.StrategyAuto, mttkrp.StrategyNone,
			mttkrp.StrategyLock, mttkrp.StrategyPrivatize, mttkrp.StrategyTile}
		const rank = 4
		factors := randomFactors(dims, rank, seed)
		team := parallel.NewTeam(int(tasks%8) + 1)
		defer team.Close()
		op := NewOperator(at, team, rank, mttkrp.Options{
			Strategy: strategies[int(strat)%len(strategies)], LockKind: locks.Spin,
		})
		for mode, rows := range dims {
			want := dense.NewMatrix(rows, rank)
			mttkrp.COO(tt, factors, mode, want)
			got := dense.NewMatrix(rows, rank)
			op.Apply(mode, factors, got)
			if d := got.MaxAbsDiff(want); d > 1e-9 {
				t.Fatalf("dims %v tasks %d %v mode %d: deviates by %g",
					dims, team.N(), op.LastStrategy(), mode, d)
			}
		}
	})
}
