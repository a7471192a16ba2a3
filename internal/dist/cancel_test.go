package dist

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/sptensor"
)

// TestDistributedCancelled verifies the multi-locale run observes a
// cancelled context uniformly (no deadlocked collectives) and returns the
// partial model.
func TestDistributedCancelled(t *testing.T) {
	tensor := sptensor.Random([]int{16, 12, 10}, 400, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	opts := DefaultOptions()
	opts.Locales = 3
	opts.Rank = 4
	opts.MaxIters = 10
	opts.Ctx = ctx

	k, report, err := CPD(tensor, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if k == nil || report == nil || !report.Cancelled {
		t.Fatalf("partial distributed results missing: report=%+v", report)
	}
	if report.Iterations != 0 {
		t.Fatalf("iterations = %d, want 0 for pre-cancelled context", report.Iterations)
	}

	// Cancelled mid-run, from locale 0's trace sink after iteration 3:
	// every locale stops at the start of iteration 4.
	for _, locales := range []int{2, 3} {
		for _, solver := range []sketch.Solver{sketch.ALS, sketch.ARLS} {
			ctx, cancel := context.WithCancel(context.Background())
			opts.Locales = locales
			opts.Solver = solver
			opts.Ctx = ctx
			opts.Trace = cancelAfter{iteration: 3, cancel: cancel}
			k, report, err := CPD(tensor, opts)
			cancel()
			if !errors.Is(err, context.Canceled) || k == nil || report == nil || !report.Cancelled {
				t.Fatalf("locales=%d %v: err %v, cancelled report %v", locales, solver, err, report != nil && report.Cancelled)
			}
			if report.Iterations != 3 {
				t.Errorf("locales=%d %v: %d iterations, want 3", locales, solver, report.Iterations)
			}
		}
	}
}

// cancelAfter is a trace sink that cancels a run's context once the given
// iteration completes.
type cancelAfter struct {
	iteration int
	cancel    context.CancelFunc
}

func (c cancelAfter) RecordIteration(ev obs.IterEvent) {
	if ev.Iteration == c.iteration {
		c.cancel()
	}
}

// TestDistributedSingleLocaleCancelled covers the locales=1 fast path.
func TestDistributedSingleLocaleCancelled(t *testing.T) {
	tensor := sptensor.Random([]int{16, 12, 10}, 400, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	opts := DefaultOptions()
	opts.Locales = 1
	opts.Rank = 4
	opts.MaxIters = 10
	opts.Ctx = ctx

	k, report, err := CPD(tensor, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if k == nil || report == nil || !report.Cancelled {
		t.Fatalf("partial single-locale results missing: report=%+v", report)
	}
}
