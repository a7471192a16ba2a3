package core

import (
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// Session is a prepared CP-ALS run whose iterations are stepped by the
// caller: the storage backend, worker team, arena, and all iteration
// scratch are built once, then Iterate advances the ALS loop without any
// per-iteration setup. It exposes the steady-state behaviour of the engine
// — the allocation benchmarks step a Session to prove warm iterations
// allocate nothing — and suits callers that interleave iterations with
// their own logic (progress reporting, custom stopping rules).
type Session struct {
	team   *parallel.Team
	d      *decomposer
	report *Report
	iters  int
	closed bool
}

// NewSession validates opts, builds the backend and decomposer, and runs
// the pre-iteration setup (initial Grams, sampled-phase budget). Close
// must be called when done.
func NewSession(t *sptensor.Tensor, opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	tasks := opts.Tasks
	if tasks < 1 {
		tasks = 1
	}
	team := parallel.NewTeam(tasks)
	d, err := buildDecomposer(t, team, tasks, opts)
	if err != nil {
		team.Close()
		return nil, err
	}
	s := &Session{team: team, d: d, report: d.newReport()}
	d.prepare()
	return s, nil
}

// Iterate advances the run by up to n ALS iterations, returning how many
// completed (fewer when the run converges, hits MaxIters, or is
// cancelled; a converging iteration counts, an iteration aborted by
// cancellation does not).
func (s *Session) Iterate(n int) int {
	before := s.report.Iterations
	for done := 0; done < n && s.iters < s.d.opts.MaxIters; done++ {
		stop := s.d.iterate(s.iters, s.report)
		s.iters++
		if stop {
			s.iters = s.d.opts.MaxIters
			break
		}
	}
	return s.report.Iterations - before
}

// Iterations reports how many ALS iterations have run.
func (s *Session) Iterations() int { return s.report.Iterations }

// Model returns the current factor model (live: further Iterate calls
// mutate it).
func (s *Session) Model() *KruskalTensor { return s.d.k }

// Report seals and returns the run report as of the last iteration.
func (s *Session) Report() *Report {
	s.d.finish(s.report)
	return s.report
}

// Close releases the worker team. The model and report remain readable.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.team.Close()
}
