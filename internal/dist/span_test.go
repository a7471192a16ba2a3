package dist

import (
	"testing"

	"repro/internal/obs"
)

// TestCommOpParity is the per-op accounting acceptance property: across
// world sizes, the Report's per-op rows partition the legacy comm totals
// exactly — integer bytes sum to CommBytes, and CommSeconds is the exact
// max over locales of the summed per-op seconds — and the span profiler's
// comm phases agree with the Report ledger bitwise (they are two views of
// one clock reading).
func TestCommOpParity(t *testing.T) {
	tensor := testTensor()
	for _, locales := range []int{1, 2, 3, 4} {
		o := distOptions(locales)
		spans := obs.NewProfiler(locales, 8192)
		o.Spans = spans
		_, rd, err := CPD(tensor, o)
		if err != nil {
			t.Fatalf("locales=%d: %v", locales, err)
		}

		if locales == 1 {
			if rd.CommOps != nil {
				t.Errorf("locales=1: CommOps = %v, want nil (no fabric)", rd.CommOps)
			}
			if rd.CommBytes != 0 || rd.CommSeconds != 0 {
				t.Errorf("locales=1: comm totals %d bytes / %v s, want zero",
					rd.CommBytes, rd.CommSeconds)
			}
			continue
		}

		if len(rd.CommOps) != 3 {
			t.Fatalf("locales=%d: %d CommOps rows, want 3", locales, len(rd.CommOps))
		}

		// Integer bytes partition CommBytes exactly.
		var bytes int64
		for _, op := range rd.CommOps {
			bytes += op.Bytes
		}
		if bytes != rd.CommBytes {
			t.Errorf("locales=%d: per-op bytes sum %d != CommBytes %d",
				locales, bytes, rd.CommBytes)
		}

		// Per-locale seconds, summed over ops in row order, reproduce
		// CommSeconds exactly (fill derives the total from these values,
		// so equality is bitwise, not approximate).
		perLocale := make([]float64, locales)
		for _, op := range rd.CommOps {
			if len(op.SecondsPerLocale) != locales {
				t.Fatalf("locales=%d: op %s has %d per-locale entries",
					locales, op.Op, len(op.SecondsPerLocale))
			}
			var max float64
			for l, s := range op.SecondsPerLocale {
				perLocale[l] += s
				if s > max {
					max = s
				}
			}
			if op.Seconds != max {
				t.Errorf("locales=%d: op %s Seconds %v != max per-locale %v",
					locales, op.Op, op.Seconds, max)
			}
		}
		var total float64
		for _, s := range perLocale {
			if s > total {
				total = s
			}
		}
		if total != rd.CommSeconds {
			t.Errorf("locales=%d: per-op seconds reconstruct %v, CommSeconds %v",
				locales, total, rd.CommSeconds)
		}

		// The profiler's comm phases are the same ledger: per-locale
		// seconds match bitwise, bytes and calls match in aggregate.
		prof := spans.Profile()
		merged := map[string]obs.PhaseStat{}
		for _, st := range prof.Phases {
			merged[st.Phase] = st
		}
		for _, op := range rd.CommOps {
			st, ok := merged["comm_"+op.Op]
			if op.Calls == 0 {
				if ok {
					t.Errorf("locales=%d: profiler has phase comm_%s for zero-call op", locales, op.Op)
				}
				continue
			}
			if !ok {
				t.Fatalf("locales=%d: profiler missing phase comm_%s", locales, op.Op)
			}
			if st.Bytes != op.Bytes {
				t.Errorf("locales=%d: profiler comm_%s bytes %d != report %d",
					locales, op.Op, st.Bytes, op.Bytes)
			}
			if st.Calls != int64(op.Calls*locales) {
				t.Errorf("locales=%d: profiler comm_%s calls %d != %d locales × %d",
					locales, op.Op, st.Calls, locales, op.Calls)
			}
		}
		if len(prof.Locales) != locales {
			t.Fatalf("locales=%d: profiler has %d locale breakdowns", locales, len(prof.Locales))
		}
		for l, lp := range prof.Locales {
			stats := map[string]obs.PhaseStat{}
			for _, st := range lp.Phases {
				stats[st.Phase] = st
			}
			for _, op := range rd.CommOps {
				if op.Calls == 0 {
					continue
				}
				if got := stats["comm_"+op.Op].Seconds; got != op.SecondsPerLocale[l] {
					t.Errorf("locales=%d locale %d: profiler comm_%s seconds %v != ledger %v",
						locales, l, op.Op, got, op.SecondsPerLocale[l])
				}
			}
		}

		// The MTTKRP critical path is the slowest locale's mttkrp phase.
		var slowest float64
		for _, lp := range prof.Locales {
			for _, st := range lp.Phases {
				if st.Phase == "mttkrp" && st.Seconds > slowest {
					slowest = st.Seconds
				}
			}
		}
		if rd.MTTKRPSeconds != slowest {
			t.Errorf("locales=%d: MTTKRPSeconds %v, slowest locale's mttkrp phase %v",
				locales, rd.MTTKRPSeconds, slowest)
		}

		// Solver phases were attributed too: every locale ran MTTKRP,
		// solve, normalize, and iteration spans.
		for _, phase := range []string{"iteration", "mttkrp", "gram", "solve", "normalize", "fit"} {
			if merged[phase].Calls == 0 {
				t.Errorf("locales=%d: no %s spans recorded", locales, phase)
			}
		}
	}
}

// TestSpansDoNotPerturbResults pins that enabling the profiler changes
// only accounting, never arithmetic: fits with and without spans are
// identical.
func TestSpansDoNotPerturbResults(t *testing.T) {
	tensor := testTensor()
	_, base, err := CPD(tensor, distOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	o := distOptions(3)
	o.Spans = obs.NewProfiler(3, 1024)
	_, prof, err := CPD(tensor, o)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fit != prof.Fit || base.Iterations != prof.Iterations {
		t.Errorf("spans perturbed the run: fit %v vs %v, iters %d vs %d",
			base.Fit, prof.Fit, base.Iterations, prof.Iterations)
	}
}
