package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/sptensor"
)

// TestCPDCancelled verifies a cancelled context stops CP-ALS at a mode
// boundary and still yields the partial model and report.
func TestCPDCancelled(t *testing.T) {
	tensor := sptensor.Random([]int{12, 10, 8}, 200, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first update: zero iterations complete

	opts := DefaultOptions()
	opts.Rank = 4
	opts.MaxIters = 10
	opts.Ctx = ctx

	k, report, err := CPD(tensor, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if k == nil || report == nil {
		t.Fatal("cancelled CPD must return partial model and report")
	}
	if !report.Cancelled {
		t.Fatal("report.Cancelled not set")
	}
	if report.Iterations != 0 {
		t.Fatalf("iterations = %d, want 0 for pre-cancelled context", report.Iterations)
	}

	// Cancelled mid-run, from the trace sink after iteration 3: the run
	// stops at the next mode boundary, before iteration 4 completes.
	for _, tasks := range []int{1, 2} {
		for _, solver := range []sketch.Solver{sketch.ALS, sketch.ARLS} {
			ctx, cancel := context.WithCancel(context.Background())
			opts.Tasks = tasks
			opts.Solver = solver
			opts.Ctx = ctx
			opts.Trace = cancelAfter{iteration: 3, cancel: cancel}
			k, report, err := CPD(tensor, opts)
			cancel()
			if !errors.Is(err, context.Canceled) || k == nil || report == nil || !report.Cancelled {
				t.Fatalf("tasks=%d %v: err %v, cancelled report %v", tasks, solver, err, report != nil && report.Cancelled)
			}
			if report.Iterations != 3 {
				t.Errorf("tasks=%d %v: %d iterations, want 3", tasks, solver, report.Iterations)
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

// TestCPDNilContextUnaffected pins that a nil Ctx (every pre-existing
// caller) behaves exactly as before.
func TestCPDNilContextUnaffected(t *testing.T) {
	tensor := sptensor.Random([]int{12, 10, 8}, 200, 1)
	opts := DefaultOptions()
	opts.Rank = 4
	opts.MaxIters = 5
	k, report, err := CPD(tensor, opts)
	if err != nil || k == nil || report.Cancelled || report.Iterations != 5 {
		t.Fatalf("nil-ctx run changed: err=%v iters=%d cancelled=%v", err, report.Iterations, report.Cancelled)
	}
}

// TestCPDCompleteCancelled covers the completion engine's context path.
func TestCPDCompleteCancelled(t *testing.T) {
	tensor := sptensor.Random([]int{12, 10, 8}, 200, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	opts := DefaultCompletionOptions()
	opts.Rank = 3
	opts.MaxIters = 10
	opts.Ctx = ctx

	k, report, err := CPDComplete(tensor, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if k == nil || report == nil || !report.Cancelled {
		t.Fatalf("partial completion results missing: %+v", report)
	}
}
