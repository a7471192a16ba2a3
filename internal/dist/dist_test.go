package dist

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/format"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/sptensor"
	"repro/internal/tsort"
)

// testTensor is a synthetic third-order tensor large enough for meaningful
// slabs but small enough for exact-fit evaluation.
func testTensor() *sptensor.Tensor {
	return sptensor.Random([]int{30, 40, 50}, 2000, 7)
}

func distOptions(locales int) Options {
	o := DefaultOptions()
	o.Locales = locales
	o.Rank = 8
	o.MaxIters = 15
	o.Seed = 3
	return o
}

// TestMatchesSharedMemory is the core acceptance property: distributed
// CP-ALS agrees with shared-memory core.CPD within 1e-8 at every world
// size, on both storage formats, with both solvers and with one- and
// two-task locales, and moves nonzero communication for locales >= 2.
func TestMatchesSharedMemory(t *testing.T) {
	tensor := testTensor()
	for _, spec := range []format.Spec{format.CSF, format.ALTO} {
		for _, solver := range []sketch.Solver{sketch.ALS, sketch.ARLS} {
			for _, tasks := range []int{1, 2} {
				t.Run(fmt.Sprintf("%v/%v/tasks=%d", spec, solver, tasks), func(t *testing.T) {
					matchesSharedMemory(t, tensor, spec, solver, tasks)
				})
			}
		}
	}
}

func matchesSharedMemory(t *testing.T, tensor *sptensor.Tensor, spec format.Spec, solver sketch.Solver, tasks int) {
	co := core.DefaultOptions()
	co.Rank = 8
	co.MaxIters = 15
	co.Seed = 3
	co.Format = spec
	co.Solver = solver
	kc, rc, err := core.CPD(tensor, co)
	if err != nil {
		t.Fatal(err)
	}
	for _, locales := range []int{1, 2, 3, 4} {
		o := distOptions(locales)
		o.Format = spec
		o.Solver = solver
		o.Tasks = tasks
		kd, rd, err := CPD(tensor, o)
		if err != nil {
			t.Fatalf("locales=%d: %v", locales, err)
		}
		if math.Abs(rd.Fit-rc.Fit) > 1e-8 {
			t.Errorf("locales=%d: fit %.12f, shared-memory %.12f", locales, rd.Fit, rc.Fit)
		}
		if math.Abs(kd.Fit(tensor)-kc.Fit(tensor)) > 1e-8 {
			t.Errorf("locales=%d: exact fit diverges", locales)
		}
		for m := range kd.Factors {
			if d := kd.Factors[m].MaxAbsDiff(kc.Factors[m]); d > 1e-8 {
				t.Errorf("locales=%d: factor %d differs by %g", locales, m, d)
			}
		}
		if locales >= 2 && rd.CommBytes == 0 {
			t.Errorf("locales=%d: zero communication volume", locales)
		}
		if rd.Iterations != rc.Iterations {
			t.Errorf("locales=%d: %d iterations, shared-memory %d",
				locales, rd.Iterations, rc.Iterations)
		}
		if rd.SampledIters != rc.SampledIters || rd.Format != rc.Format {
			t.Errorf("locales=%d: %d sampled iterations on %s, shared-memory %d on %s",
				locales, rd.SampledIters, rd.Format, rc.SampledIters, rc.Format)
		}
	}
}

// TestSingleLocaleFastPath checks the locales=1 degenerate case: exact
// shared-memory results, one shard, zero communication.
func TestSingleLocaleFastPath(t *testing.T) {
	tensor := testTensor()
	_, rd, err := CPD(tensor, distOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Locales != 1 {
		t.Errorf("Locales = %d", rd.Locales)
	}
	if rd.CommBytes != 0 || rd.AllreduceCalls != 0 || rd.AllgatherCalls != 0 {
		t.Errorf("single locale communicated: %d bytes, %d/%d calls",
			rd.CommBytes, rd.AllreduceCalls, rd.AllgatherCalls)
	}
	if len(rd.ShardNNZ) != 1 || rd.ShardNNZ[0] != tensor.NNZ() {
		t.Errorf("ShardNNZ = %v, want [%d]", rd.ShardNNZ, tensor.NNZ())
	}
	if len(rd.ShardRows) != 1 || rd.ShardRows[0] != tensor.Dims[0] {
		t.Errorf("ShardRows = %v, want [%d]", rd.ShardRows, tensor.Dims[0])
	}
}

// TestLocalesExceedSlices covers the oversubscribed degenerate case: more
// locales than populated mode-0 slices, so some slabs are empty. The run
// must complete (no deadlocked collective) and still match shared memory,
// for the exact solver and for the sampled one, whose empty-shard samplers
// hold no nonzeros but still take part in every sampled update.
func TestLocalesExceedSlices(t *testing.T) {
	tensor := sptensor.Random([]int{3, 25, 25}, 400, 11)
	for _, solver := range []sketch.Solver{sketch.ALS, sketch.ARLS} {
		t.Run(solver.String(), func(t *testing.T) {
			co := core.DefaultOptions()
			co.Rank = 4
			co.MaxIters = 10
			co.Seed = 5
			co.Solver = solver
			_, rc, err := core.CPD(tensor, co)
			if err != nil {
				t.Fatal(err)
			}
			o := distOptions(8)
			o.Rank = 4
			o.MaxIters = 10
			o.Seed = 5
			o.Solver = solver
			_, rd, err := CPD(tensor, o)
			if err != nil {
				t.Fatal(err)
			}
			if rd.Solver != solver.String() || rd.SampledIters != rc.SampledIters {
				t.Fatalf("solver %q with %d sampled iterations, shared-memory %q with %d",
					rd.Solver, rd.SampledIters, rc.Solver, rc.SampledIters)
			}
			if math.Abs(rd.Fit-rc.Fit) > 1e-8 {
				t.Errorf("fit %.12f, shared-memory %.12f", rd.Fit, rc.Fit)
			}
			empty := 0
			for _, n := range rd.ShardNNZ {
				if n == 0 {
					empty++
				}
			}
			if empty == 0 {
				t.Errorf("expected empty shards with 8 locales over 3 slices, got %v", rd.ShardNNZ)
			}
		})
	}
}

// TestConstrainedOptionsMatch checks that the constrained-CP knobs
// (non-negativity, ridge) behave identically across the distribution axis.
func TestConstrainedOptionsMatch(t *testing.T) {
	tensor := testTensor()
	co := core.DefaultOptions()
	co.Rank = 6
	co.MaxIters = 8
	co.Seed = 9
	co.NonNegative = true
	co.Ridge = 1e-6
	_, rc, err := core.CPD(tensor, co)
	if err != nil {
		t.Fatal(err)
	}
	o := distOptions(3)
	o.Rank = 6
	o.MaxIters = 8
	o.Seed = 9
	o.NonNegative = true
	o.Ridge = 1e-6
	_, rd, err := CPD(tensor, o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rd.Fit-rc.Fit) > 1e-8 {
		t.Errorf("constrained fit %.12f, shared-memory %.12f", rd.Fit, rc.Fit)
	}
}

// TestCoreOptionsReachLocales runs one core.Options through core.CPD and
// through dist.CPD at one to three locales, for an exact CSF configuration
// that sets every kernel axis away from its default, the constrained-CP
// knobs and a tolerance, and for a sampled ALTO configuration with its
// sampler knobs set. A knob that did not reach the locales would change
// the factors, the iteration counts, the resolved format or the per-mode
// conflict strategies.
func TestCoreOptionsReachLocales(t *testing.T) {
	tensor := testTensor()
	exact := core.DefaultOptions()
	exact.Rank = 6
	exact.MaxIters = 30
	exact.Seed = 4
	exact.Tasks = 2
	exact.Access = mttkrp.AccessPointer
	exact.LockKind = locks.Sync
	exact.Strategy = mttkrp.StrategyPrivatize
	exact.SortVariant = tsort.Initial
	exact.Alloc = csf.AllocOne
	exact.NonNegative = true
	exact.Ridge = 1e-3
	exact.Tolerance = 1e-4
	sampled := core.DefaultOptions()
	sampled.Rank = 6
	sampled.MaxIters = 12
	sampled.Seed = 4
	sampled.Format = format.ALTO
	sampled.Solver = sketch.ARLS
	sampled.Samples = 300
	sampled.RefineIters = 3
	for name, co := range map[string]core.Options{"csf-exact": exact, "alto-arls": sampled} {
		t.Run(name, func(t *testing.T) {
			kc, rc, err := core.CPD(tensor, co)
			if err != nil {
				t.Fatal(err)
			}
			if rc.Iterations == co.MaxIters && co.Tolerance > 0 {
				t.Fatalf("tolerance %g never fired in %d iterations", co.Tolerance, rc.Iterations)
			}
			for _, locales := range []int{1, 2, 3} {
				kd, rd, err := CPD(tensor, Options{Options: co, Locales: locales})
				if err != nil {
					t.Fatalf("locales=%d: %v", locales, err)
				}
				if rd.Iterations != rc.Iterations || rd.SampledIters != rc.SampledIters || rd.Format != rc.Format {
					t.Errorf("locales=%d: %d iterations (%d sampled) on %s, shared-memory %d (%d) on %s",
						locales, rd.Iterations, rd.SampledIters, rd.Format,
						rc.Iterations, rc.SampledIters, rc.Format)
				}
				if !slices.Equal(rd.Strategies, rc.Strategies) {
					t.Errorf("locales=%d: strategies %v, shared-memory %v", locales, rd.Strategies, rc.Strategies)
				}
				for m := range kd.Factors {
					if d := kd.Factors[m].MaxAbsDiff(kc.Factors[m]); d > 1e-8 {
						t.Errorf("locales=%d: factor %d differs by %g", locales, m, d)
					}
					if co.NonNegative && slices.Min(kd.Factors[m].Data) < 0 {
						t.Errorf("locales=%d: factor %d has a negative entry", locales, m)
					}
				}
			}
		})
	}
}

// TestToleranceStopsUniformly checks that early stopping fires the same
// iteration on every locale (a divergent decision would deadlock a
// collective; agreement shows replicas stayed identical).
func TestToleranceStopsUniformly(t *testing.T) {
	tensor := testTensor()
	o := distOptions(4)
	o.MaxIters = 50
	o.Tolerance = 1e-6
	_, rd, err := CPD(tensor, o)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Iterations == 50 {
		t.Log("tolerance never fired; still a valid run")
	}
	if len(rd.FitHistory) != rd.Iterations {
		t.Errorf("FitHistory length %d, Iterations %d", len(rd.FitHistory), rd.Iterations)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []func(*Options){
		func(o *Options) { o.Locales = 0 },
		func(o *Options) { o.Rank = 0 },
		func(o *Options) { o.MaxIters = 0 },
		func(o *Options) { o.Tolerance = -1 },
		func(o *Options) { o.Tasks = -1 },
		func(o *Options) { o.Ridge = -1 },
		func(o *Options) { o.Init = core.NewRandomKruskal([]int{30, 40, 50}, o.Rank, 1) },
		func(o *Options) { o.BLASThreads = 2 },
		func(o *Options) { o.BLASSpin = 1 },
	}
	for i, mutate := range cases {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	if got := DefaultOptions().Locales; got != 2 {
		t.Errorf("DefaultOptions().Locales = %d, want 2", got)
	}
}

func TestCPDRejectsBadInput(t *testing.T) {
	tensor := testTensor()
	o := distOptions(2)
	o.Rank = -1
	if _, _, err := CPD(tensor, o); err == nil {
		t.Error("expected error for negative rank")
	}
	vec := sptensor.New([]int{10}, 0)
	if _, _, err := CPD(vec, distOptions(2)); err == nil {
		t.Error("expected error for order-1 tensor")
	}
}

// TestPartitionSlabs checks coverage, disjointness, and weight balance of
// the slab partition, and that ExtractSlab loses nothing.
func TestPartitionSlabs(t *testing.T) {
	tensor := testTensor()
	for _, locales := range []int{1, 2, 3, 7} {
		slabs := PartitionSlabs(tensor, locales)
		if len(slabs) != locales {
			t.Fatalf("locales=%d: %d slabs", locales, len(slabs))
		}
		totalNNZ, prevHi := 0, 0
		for _, s := range slabs {
			if s.Lo != prevHi {
				t.Errorf("locales=%d: slab gap at %d", locales, s.Lo)
			}
			prevHi = s.Hi
			totalNNZ += s.NNZ
		}
		if prevHi != tensor.Dims[0] {
			t.Errorf("locales=%d: slabs end at %d, want %d", locales, prevHi, tensor.Dims[0])
		}
		if totalNNZ != tensor.NNZ() {
			t.Errorf("locales=%d: slabs hold %d nnz, want %d", locales, totalNNZ, tensor.NNZ())
		}
	}
}

func TestExtractSlabRoundTrip(t *testing.T) {
	tensor := testTensor()
	slabs := PartitionSlabs(tensor, 3)
	seen := 0
	norm := 0.0
	for _, s := range slabs {
		local := ExtractSlab(tensor, s)
		if local.Dims[0] != s.Rows() {
			t.Errorf("local Dims[0] = %d, want %d", local.Dims[0], s.Rows())
		}
		if local.NNZ() != s.NNZ {
			t.Errorf("local nnz = %d, want %d", local.NNZ(), s.NNZ)
		}
		for _, i0 := range local.Inds[0] {
			if int(i0) < 0 || int(i0) >= s.Rows() {
				t.Fatalf("local mode-0 index %d outside [0,%d)", i0, s.Rows())
			}
		}
		seen += local.NNZ()
		norm += local.NormSquared()
	}
	if seen != tensor.NNZ() {
		t.Errorf("slabs cover %d nnz, want %d", seen, tensor.NNZ())
	}
	if math.Abs(norm-tensor.NormSquared()) > 1e-9*tensor.NormSquared() {
		t.Errorf("slab norm² %g, tensor %g", norm, tensor.NormSquared())
	}
}

// TestCollectives exercises the fabric directly with concurrent locales.
func TestCollectives(t *testing.T) {
	const world = 4
	c := newComm(world, 8*2, obs.NewProfiler(world, 0))
	sums := make([][]float64, world)
	maxes := make([][]float64, world)
	full := make([][]float64, world)
	scalars := make([]float64, world)
	var wg sync.WaitGroup
	for lid := 0; lid < world; lid++ {
		wg.Add(1)
		go func(lid int) {
			defer wg.Done()
			sum := []float64{float64(lid), 1}
			c.AllreduceSum(lid, sum)
			sums[lid] = sum

			mx := []float64{float64(lid), -float64(lid)}
			c.AllreduceMax(lid, mx)
			maxes[lid] = mx

			scalars[lid] = c.AllreduceScalar(lid, float64(lid+1))

			c.Barrier(lid) // standalone barrier collective

			// Row-partitioned allgather: locale lid owns rows [2lid, 2lid+2)
			// of an 8×2 matrix.
			buf := make([]float64, 8*2)
			for i := 2 * lid * 2; i < (2*lid+2)*2; i++ {
				buf[i] = float64(lid + 1)
			}
			c.AllgatherRows(lid, 2*lid, 2*lid+2, 2, buf)
			full[lid] = buf
		}(lid)
	}
	wg.Wait()

	for lid := 0; lid < world; lid++ {
		if sums[lid][0] != 0+1+2+3 || sums[lid][1] != world {
			t.Errorf("locale %d allreduce sum = %v", lid, sums[lid])
		}
		if maxes[lid][0] != world-1 || maxes[lid][1] != 0 {
			t.Errorf("locale %d allreduce max = %v", lid, maxes[lid])
		}
		if scalars[lid] != 1+2+3+4 {
			t.Errorf("locale %d allreduce scalar = %v", lid, scalars[lid])
		}
		for row := 0; row < 8; row++ {
			want := float64(row/2 + 1)
			if full[lid][row*2] != want || full[lid][row*2+1] != want {
				t.Errorf("locale %d gathered row %d = %v, want %v",
					lid, row, full[lid][row*2:row*2+2], want)
			}
		}
	}

	var r Report
	c.fill(&r)
	if r.AllreduceCalls != 3 || r.AllgatherCalls != 1 {
		t.Errorf("calls = %d allreduce / %d allgather, want 3/1",
			r.AllreduceCalls, r.AllgatherCalls)
	}
	// Every bulk collective is two barrier phases (3 reduces + 1 gather = 8)
	// plus the one standalone Barrier call.
	if r.BarrierCalls != 9 {
		t.Errorf("BarrierCalls = %d, want 9", r.BarrierCalls)
	}
	// Three allreduces moved L(L−1) payloads of 2, 2, and 1 floats; the
	// allgather moved (L−1) copies of the 16-float matrix.
	wantReduce := int64(world*(world-1)*(2+2+1)) * 8
	wantGather := int64((world-1)*16) * 8
	if r.AllreduceBytes != wantReduce {
		t.Errorf("AllreduceBytes = %d, want %d", r.AllreduceBytes, wantReduce)
	}
	if r.AllgatherBytes != wantGather {
		t.Errorf("AllgatherBytes = %d, want %d", r.AllgatherBytes, wantGather)
	}
	if r.CommBytes != wantReduce+wantGather {
		t.Errorf("CommBytes = %d, want %d", r.CommBytes, wantReduce+wantGather)
	}
}

// TestCommLedgerClosedForm pins the traffic of a 3-locale run to its
// closed form, for exact ALS, sampled ARLS and a run with a context. With
// T iterations, S of them sampled, c = 1 when Ctx is set, order N, L
// locales and rank R, the run makes T allgathers of mode 0's rows and
// 2 + T·(c + N + 1) + S allreduces: the tensor norm and the first mode-0
// Gram, then per iteration the cancel flag, N − 1 replicated-mode MTTKRP
// partials, the mode-0 norms and Gram, and per sampled iteration the fit
// estimate. Each allreduce of n floats moves L(L−1)·8·n bytes, and no
// standalone barrier runs.
func TestCommLedgerClosedForm(t *testing.T) {
	tensor := testTensor()
	const L = 3
	cases := []struct {
		name   string
		solver sketch.Solver
		ctx    context.Context
	}{
		{"als", sketch.ALS, nil},
		{"arls", sketch.ARLS, nil},
		{"als-ctx", sketch.ALS, context.Background()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := distOptions(L)
			o.Solver = tc.solver
			o.Ctx = tc.ctx
			_, rd, err := CPD(tensor, o)
			if err != nil {
				t.Fatal(err)
			}
			T, S, R, N := int64(rd.Iterations), int64(rd.SampledIters), int64(o.Rank), int64(tensor.NModes())
			c := int64(0)
			if tc.ctx != nil {
				c = 1
			}
			replicated := int64(0)
			for _, d := range tensor.Dims[1:] {
				replicated += int64(d)
			}
			if tc.solver == sketch.ARLS && S == 0 {
				t.Fatal("ARLS run sampled no iteration")
			}
			wantReduceCalls := 2 + T*(c+N+1) + S
			wantReduceBytes := L * (L - 1) * 8 * (1 + R*R + T*(c+R+R*R+R*replicated) + S)
			wantGatherBytes := T * (L - 1) * int64(tensor.Dims[0]) * R * 8
			if int64(rd.AllreduceCalls) != wantReduceCalls || rd.AllreduceBytes != wantReduceBytes {
				t.Errorf("allreduce: %d calls, %d bytes; want %d calls, %d bytes",
					rd.AllreduceCalls, rd.AllreduceBytes, wantReduceCalls, wantReduceBytes)
			}
			if int64(rd.AllgatherCalls) != T || rd.AllgatherBytes != wantGatherBytes {
				t.Errorf("allgather: %d calls, %d bytes; want %d calls, %d bytes",
					rd.AllgatherCalls, rd.AllgatherBytes, T, wantGatherBytes)
			}
			for _, op := range rd.CommOps {
				if op.Op == "barrier" && (op.Calls != 0 || op.Bytes != 0) {
					t.Errorf("%d standalone barrier calls (%d bytes), want none", op.Calls, op.Bytes)
				}
			}
		})
	}
}

func TestReportImbalanceRatio(t *testing.T) {
	r := &Report{ShardNNZ: []int{100, 100}}
	if got := r.ImbalanceRatio(); got != 1 {
		t.Errorf("balanced ratio = %g, want 1", got)
	}
	r = &Report{ShardNNZ: []int{300, 100}}
	if got := r.ImbalanceRatio(); got != 1.5 {
		t.Errorf("skewed ratio = %g, want 1.5", got)
	}
	r = &Report{ShardNNZ: []int{0, 0}}
	if got := r.ImbalanceRatio(); got != 0 {
		t.Errorf("empty ratio = %g, want 0", got)
	}
}

// TestMultiTaskLocales runs locales with internal teams (the hybrid
// distributed × shared-memory configuration) and checks agreement.
func TestMultiTaskLocales(t *testing.T) {
	tensor := testTensor()
	o := distOptions(2)
	o.Tasks = 2
	_, rd, err := CPD(tensor, o)
	if err != nil {
		t.Fatal(err)
	}
	base, rb, err := CPD(tensor, distOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = base
	if math.Abs(rd.Fit-rb.Fit) > 1e-8 {
		t.Errorf("hybrid fit %.12f, serial-locale fit %.12f", rd.Fit, rb.Fit)
	}
}
