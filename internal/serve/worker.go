package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// worker is one pool goroutine: it drains the priority queue and runs
// each job to a terminal state, then releases the submission-time tensor
// pin and retires the job into the bounded history. Jobs cancelled while
// queued are popped, released, and skipped the same way, so every pin
// taken at submission is dropped exactly once. Releasing the pin also
// drops the job's tensor reference, so retired jobs in the history never
// keep an evicted revision reachable.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		if j.markRunning() {
			s.busy.Add(1)
			s.execute(j)
			s.busy.Add(-1)
		} else {
			s.tally(StateCancelled) // cancelled while queued
		}
		s.registry.Unpin(j.Spec.TensorID)
		j.tensor = nil
		s.retire(j)
	}
}

// execute dispatches the job's pinned tensor to the selected engine with
// the job context threaded into the ALS loop, and records the outcome.
// The dispatch runs under pprof labels (job ID, kind, format, solver),
// so CPU profiles pulled from -pprof attribute samples to jobs.
func (s *Server) execute(j *Job) {
	tensor := j.tensor

	var err error
	start := time.Now()
	res := &JobResult{}
	var cancelled bool
	var kruskal *core.KruskalTensor

	labels := pprof.Labels(
		"job", j.ID,
		"kind", string(j.Spec.Kind),
		"format", j.Spec.formatSpec().String(),
		"solver", j.Spec.solverSpec().String(),
	)
	pprof.Do(j.ctx, labels, func(ctx context.Context) {
		switch j.Spec.Kind {
		case KindCPD:
			opts := j.Spec.coreOptions(ctx)
			opts.Trace = j.trace
			opts.Spans = j.spans
			if j.Spec.WarmStart != "" {
				if err = s.seedWarmStart(j, &opts, res); err != nil {
					return
				}
			}
			k, report, runErr := core.CPD(tensor, opts)
			kruskal, err = k, runErr
			if report != nil {
				res.Fit = report.Fit
				res.Iterations = report.Iterations
				res.Format = report.Format
				res.Solver = report.Solver
				res.SampledIters = report.SampledIters
				cancelled = report.Cancelled
			}
		case KindDistributed:
			dopts := j.Spec.distOptions(ctx)
			dopts.Trace = j.trace
			dopts.Spans = j.spans
			k, report, runErr := dist.CPD(tensor, dopts)
			kruskal, err = k, runErr
			if report != nil {
				res.Fit = report.Fit
				res.Iterations = report.Iterations
				res.CommBytes = report.CommBytes
				res.Format = report.Format
				res.Solver = report.Solver
				res.SampledIters = report.SampledIters
				cancelled = report.Cancelled
			}
		case KindComplete:
			k, report, runErr := core.CPDComplete(tensor, j.Spec.completionOptions(ctx))
			kruskal, err = k, runErr
			if report != nil {
				res.RMSE = report.RMSE
				res.Iterations = report.Iterations
				cancelled = report.Cancelled
			}
		}
	})
	res.Seconds = time.Since(start).Seconds()
	// Fold the job's phase profile (and the routine seconds derived from
	// it) into the server-wide families whatever the outcome — cancelled
	// and failed runs burned real phase time too.
	s.met.recordProfile(j.spans)

	switch {
	case cancelled || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCancelled, res, err)
		s.tally(StateCancelled)
	case err != nil:
		j.finish(StateFailed, nil, err)
		s.tally(StateFailed)
	default:
		if j.Spec.Publish {
			// Publish-on-complete: the finished factors become a resident,
			// queryable model. A build failure fails the job — the client
			// asked for a servable model and did not get one.
			if perr := s.publishModel(j, kruskal, res); perr != nil {
				j.finish(StateFailed, nil, perr)
				s.tally(StateFailed)
				return
			}
		}
		j.finish(StateDone, res, nil)
		s.tally(StateDone)
		s.tallyFormat(res.Format)
		s.tallySolver(res.Solver)
	}
}

// seedWarmStart resolves the job's warm-start model, expands its factors to
// the (possibly grown) tensor dims, and retargets the run at absorbing the
// delta: unset knobs become ARLS with the short absorb iteration budget
// instead of the cold-run defaults, so a small append converges in a
// fraction of a cold run. The resolution is recorded as a PhaseWarmStart
// span so job profiles attribute the seeding cost.
func (s *Server) seedWarmStart(j *Job, opts *core.Options, res *JobResult) error {
	rec := j.spans.Recorder(0)
	start := rec.Start()
	defer rec.End(obs.PhaseWarmStart, start)

	modelID := j.Spec.WarmStart
	if modelID == "auto" {
		info, ok := s.models.LatestForTensors(s.registry.Ancestors(j.Spec.TensorID))
		if !ok {
			return fmt.Errorf("serve: warm_start auto found no published model for tensor %s or its ancestors",
				shortID(j.Spec.TensorID))
		}
		modelID = info.ID
	}
	m, err := s.models.Pin(modelID)
	if err != nil {
		return err
	}
	seed := m.Kruskal()
	s.models.Unpin(modelID)

	expanded, err := seed.ExpandTo(j.tensor.Dims, j.Spec.Seed)
	if err != nil {
		return fmt.Errorf("serve: warm-start model %s: %w", shortID(modelID), err)
	}
	opts.Init = expanded
	if j.Spec.Rank == 0 {
		opts.Rank = expanded.Rank()
	}
	if j.Spec.Solver == "" {
		opts.Solver = sketch.ARLS
	}
	if j.Spec.MaxIters == 0 {
		opts.MaxIters = sketch.AbsorbMaxIters
	}
	res.WarmStart = true
	res.WarmStartModel = modelID
	s.met.warmStarted.Inc()
	return nil
}

// publishModel builds the read-optimized serving layout from a completed
// job's Kruskal result and publishes it into the model registry, recording
// the content-addressed ID in the job result.
func (s *Server) publishModel(j *Job, k *core.KruskalTensor, res *JobResult) error {
	m, err := model.Build(k)
	if err != nil {
		return fmt.Errorf("serve: publishing model for %s: %w", j.ID, err)
	}
	info, _ := s.models.Publish(m, j.Spec.TensorID, j.ID)
	res.ModelID = info.ID
	s.met.published.Inc()
	return nil
}

// tally counts a finished job's outcome in the server-wide instruments.
func (s *Server) tally(state JobState) {
	switch state {
	case StateDone:
		s.met.jobsCompleted.Inc()
	case StateFailed:
		s.met.jobsFailed.Inc()
	case StateCancelled:
		s.met.jobsCancelled.Inc()
	}
}

// tallyFormat counts a completed job against the storage backend it
// resolved to ("" = completion jobs, counted under "coo" since the
// completion engine streams raw coordinates).
func (s *Server) tallyFormat(resolved string) {
	if resolved == "" {
		resolved = "coo"
	}
	s.met.format(resolved).Inc()
}

// tallySolver counts a completed job against the factor-update algorithm
// it resolved to ("" = completion jobs, whose observed-entry engine is
// exact ALS by construction).
func (s *Server) tallySolver(resolved string) {
	if resolved == "" {
		resolved = "als"
	}
	s.met.solver(resolved).Inc()
}
