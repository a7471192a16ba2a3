package format

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/locks"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

func TestParseAndString(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Spec
	}{
		{"csf", CSF}, {"", CSF}, {"CSF", CSF},
		{"alto", ALTO}, {" ALTO ", ALTO},
		{"auto", Auto},
	} {
		got, err := Parse(c.in)
		if err != nil || got != c.want {
			t.Errorf("Parse(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := Parse("hicoo"); err == nil {
		t.Error("unknown format accepted")
	}
	if CSF.String() != "csf" || ALTO.String() != "alto" || Auto.String() != "auto" {
		t.Error("Spec labels changed")
	}
	var zero Spec
	if zero != CSF {
		t.Error("zero Spec is not CSF: existing configurations would change format")
	}
}

// withNativeExtract pins the Choose native-extraction branch for the
// duration of the test, so both decision tables are verified regardless of
// the build host's CPU.
func withNativeExtract(t *testing.T, v bool) {
	t.Helper()
	old := nativeExtract
	nativeExtract = func() bool { return v }
	t.Cleanup(func() { nativeExtract = old })
}

func chooseCases(t *testing.T) (t4, huge, uniform, hub, wide *sptensor.Tensor) {
	t.Helper()
	// Order ≥ 4.
	t4 = sptensor.Random([]int{10, 9, 8, 7}, 200, 3)
	// Unencodable (5 × 31 bits). Dims only need declaring; a single
	// in-range nonzero keeps validation happy.
	huge = sptensor.New([]int{1 << 31, 1 << 31, 1 << 31, 1 << 31, 1 << 31}, 1)
	// Regular (uniform) 3rd-order.
	uniform = sptensor.Random([]int{40, 40, 40}, 2000, 5)
	// Hub-skewed 3rd-order, narrow encoding: one slice of the longest mode
	// holds most nonzeros.
	hub = sptensor.New([]int{8, 8, 64}, 256)
	rng := rand.New(rand.NewSource(7))
	for x := 0; x < 256; x++ {
		hub.Inds[0][x] = sptensor.Index(rng.Intn(8))
		hub.Inds[1][x] = sptensor.Index(rng.Intn(8))
		if x < 200 {
			hub.Inds[2][x] = 0 // hub slice
		} else {
			hub.Inds[2][x] = sptensor.Index(rng.Intn(64))
		}
		hub.Vals[x] = 1
	}
	// Same skew but a two-word encoding.
	wide = sptensor.New([]int{1 << 24, 1 << 24, 1 << 24}, 64)
	for x := 0; x < 64; x++ {
		wide.Inds[0][x] = sptensor.Index(x)
		wide.Inds[1][x] = sptensor.Index(x)
		wide.Inds[2][x] = 0
		wide.Vals[x] = 1
	}
	return
}

func TestChooseHeuristicPureGo(t *testing.T) {
	withNativeExtract(t, false)
	t4, huge, uniform, hub, wide := chooseCases(t)
	if got, reason := Choose(t4); got != ALTO {
		t.Errorf("order-4 chose %v (%s), want alto", got, reason)
	}
	if got, reason := Choose(huge); got != CSF {
		t.Errorf("unencodable chose %v (%s), want csf", got, reason)
	}
	// Without native bit extraction the byte-table walker loses to CSF on
	// regular tensors, so uniform stays CSF and only skew flips to ALTO.
	if got, reason := Choose(uniform); got != CSF {
		t.Errorf("uniform 3rd-order chose %v (%s), want csf", got, reason)
	}
	if got, reason := Choose(hub); got != ALTO {
		t.Errorf("hub-skewed chose %v (%s), want alto", got, reason)
	}
	if got, reason := Choose(wide); got != CSF {
		t.Errorf("wide-encoding chose %v (%s), want csf", got, reason)
	}
}

func TestChooseHeuristicNative(t *testing.T) {
	withNativeExtract(t, true)
	t4, huge, uniform, hub, wide := chooseCases(t)
	if got, reason := Choose(t4); got != ALTO {
		t.Errorf("order-4 chose %v (%s), want alto", got, reason)
	}
	if got, reason := Choose(huge); got != CSF {
		t.Errorf("unencodable chose %v (%s), want csf", got, reason)
	}
	// With the pext tile walker, narrow order-3 prefers ALTO regardless of
	// skew, for half the memory (the rule predates the vectorized CSF
	// kernels, which are now faster; the table stays pinned until the
	// rule is re-decided).
	if got, reason := Choose(uniform); got != ALTO {
		t.Errorf("uniform 3rd-order chose %v (%s), want alto", got, reason)
	}
	if got, reason := Choose(hub); got != ALTO {
		t.Errorf("hub-skewed chose %v (%s), want alto", got, reason)
	}
	// Wide two-word encodings still pay double index traffic and have no
	// pext3 tile path — CSF keeps them.
	if got, reason := Choose(wide); got != CSF {
		t.Errorf("wide-encoding chose %v (%s), want csf", got, reason)
	}
}

func TestBuildBackendsAgree(t *testing.T) {
	const rank = 6
	tt := sptensor.Random([]int{20, 15, 12}, 800, 9)
	team := parallel.NewTeam(4)
	defer team.Close()
	rng := rand.New(rand.NewSource(13))
	factors := make([]*dense.Matrix, tt.NModes())
	for m, d := range tt.Dims {
		factors[m] = dense.NewRandomMatrix(d, rank, rng)
	}
	cfg := Config{Team: team, Rank: rank, Kernel: mttkrp.Options{LockKind: locks.Spin}}

	csfB, err := Build(tt, CSF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	altoB, err := Build(tt, ALTO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if csfB.Format() != CSF || altoB.Format() != ALTO {
		t.Fatalf("resolved formats wrong: %v / %v", csfB.Format(), altoB.Format())
	}
	if CSFSet(csfB) == nil || CSFSet(altoB) != nil {
		t.Error("CSFSet introspection wrong")
	}
	for mode := 0; mode < tt.NModes(); mode++ {
		a := dense.NewMatrix(tt.Dims[mode], rank)
		b := dense.NewMatrix(tt.Dims[mode], rank)
		csfB.MTTKRP(mode, factors, a)
		altoB.MTTKRP(mode, factors, b)
		if d := a.MaxAbsDiff(b); d > 1e-9 {
			t.Errorf("mode %d: CSF and ALTO MTTKRP differ by %g", mode, d)
		}
		if altoB.LastStrategy() != altoB.StrategyFor(mode) {
			t.Errorf("mode %d: ALTO LastStrategy mismatch", mode)
		}
	}
	if csfB.MemoryBytes() <= 0 || altoB.MemoryBytes() <= 0 {
		t.Error("memory accounting empty")
	}
}

// TestStrategyRule pins the output-conflict rule both operators apply,
// over every forced strategy × tasks {1, 3} × order {3, 4}. One task, or
// a CSF root mode (whose task owns its rows), writes directly; a forced
// none locks, since every other mode's rows scatter across tasks; a forced
// tile runs tiles only on a non-root mode of an order-3 CSF tensor and
// locks elsewhere; forced lock and privatize are kept; auto is Decide of
// the operator's privatized rows and flushes (I_m × tasks against nnz for
// CSF, the row windows against runs for ALTO). Every output matches COO
// and LastStrategy reports StrategyFor. Under -race (make race) an
// unsynchronized write fails the test.
func TestStrategyRule(t *testing.T) {
	const rank = 5
	rng := rand.New(rand.NewSource(29))
	// The order-3 tensor is dense enough that auto privatizes some modes
	// and locks others at 3 tasks.
	for _, tt := range []*sptensor.Tensor{
		sptensor.Random([]int{30, 8, 40}, 3000, 19),
		sptensor.Random([]int{12, 9, 15, 7}, 1500, 23),
	} {
		factors := make([]*dense.Matrix, tt.NModes())
		for m, d := range tt.Dims {
			factors[m] = dense.NewRandomMatrix(d, rank, rng)
		}
		for _, tasks := range []int{1, 3} {
			team := parallel.NewTeam(tasks)
			for _, forced := range []mttkrp.ConflictStrategy{mttkrp.StrategyAuto, mttkrp.StrategyNone,
				mttkrp.StrategyLock, mttkrp.StrategyPrivatize, mttkrp.StrategyTile} {
				cfg := Config{Team: team, Rank: rank, Alloc: csf.AllocOne,
					Kernel: mttkrp.Options{Strategy: forced, LockKind: locks.Spin}}
				for _, spec := range []Spec{CSF, ALTO} {
					b, err := Build(tt, spec, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for mode := range tt.Dims {
						want := dense.NewMatrix(tt.Dims[mode], rank)
						mttkrp.COO(tt, factors, mode, want)
						got := dense.NewMatrix(tt.Dims[mode], rank)
						b.MTTKRP(mode, factors, got)
						name := fmt.Sprintf("order %d, %d tasks, %v forced %v, mode %d", tt.NModes(), tasks, spec, forced, mode)
						if d := got.MaxAbsDiff(want); d > 1e-9 {
							t.Errorf("%s: deviates from COO by %g", name, d)
						}
						wantStrat := ruleFor(b, forced, mode, tasks)
						if s, last := b.StrategyFor(mode), b.LastStrategy(); s != wantStrat || last != wantStrat {
							t.Errorf("%s: StrategyFor %v, LastStrategy %v; want %v", name, s, last, wantStrat)
						}
					}
				}
			}
			team.Close()
		}
	}
}

// ruleFor is TestStrategyRule's statement of the rule for one mode of b.
func ruleFor(b Backend, forced mttkrp.ConflictStrategy, mode, tasks int) mttkrp.ConflictStrategy {
	root, tiles := false, false
	var privRows, flushes int
	switch b := b.(type) {
	case *csfBackend:
		c, level := b.set.For(mode)
		root, tiles = level == 0, c.Order() == 3
		privRows, flushes = c.Dims[mode]*tasks, c.NNZ()
	case *altoBackend:
		privRows, flushes = b.op.WindowRows(mode), int(b.t.Runs(mode))
	}
	switch {
	case tasks == 1 || root:
		return mttkrp.StrategyNone
	case forced == mttkrp.StrategyAuto:
		return mttkrp.Decide(privRows, flushes, tasks)
	case forced == mttkrp.StrategyNone, forced == mttkrp.StrategyTile && !tiles:
		return mttkrp.StrategyLock
	}
	return forced
}

func TestBuildAutoResolvesAndTimes(t *testing.T) {
	spans := obs.NewProfiler(1, 0)
	t4 := sptensor.Random([]int{10, 9, 8, 7}, 300, 17)
	b, err := Build(t4, Auto, Config{Rank: 4, Spans: spans.Recorder(0)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Format() != ALTO {
		t.Fatalf("auto on order-4 resolved to %v", b.Format())
	}
	if nanos := spans.Recorder(0).Nanos(); nanos[obs.PhaseBuild] <= 0 || nanos[obs.PhaseSort] != 0 {
		t.Errorf("ALTO build spans: build %d ns, sort %d ns; want build only",
			nanos[obs.PhaseBuild], nanos[obs.PhaseSort])
	}
	// Explicit ALTO on unencodable dims must error; Auto must not.
	huge := sptensor.New([]int{1 << 31, 1 << 31, 1 << 31, 1 << 31, 1 << 31}, 1)
	if _, err := Build(huge, ALTO, Config{Rank: 2}); err == nil {
		t.Error("unencodable explicit alto accepted")
	}
	if b, err := Build(huge, Auto, Config{Rank: 2}); err != nil || b.Format() != CSF {
		t.Errorf("auto fallback failed: %v %v", b, err)
	}
}

// TestBuildSizedByWorkNotDims pins that a backend's memory follows the
// nonzeros, not the declared dims: privatization scratch is grown on the
// first privatized MTTKRP, so building a 1-nnz tensor with five 2³¹-wide
// modes stays far below what a dims×rank buffer would take (32 GiB).
func TestBuildSizedByWorkNotDims(t *testing.T) {
	huge := sptensor.New([]int{1 << 31, 1 << 31, 1 << 31, 1 << 31, 1 << 31}, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := Build(huge, Auto, Config{Rank: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("building a 1-nnz tensor allocated %d bytes, want < 1 MiB", got)
	}
	if b.Format() != CSF {
		t.Errorf("auto on unencodable dims resolved to %v", b.Format())
	}
}
