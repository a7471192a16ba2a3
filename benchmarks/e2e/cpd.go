package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/format"
	"repro/internal/sptensor"
)

// cpdParams sizes one batch CP-ALS workload.
type cpdParams struct {
	dataset string
	scale   float64 // share of the dataset's Table I size
	format  format.Spec
}

var (
	// nell2CSF is the paper's Figure 6/8/10 configuration: the NELL-2 twin
	// (~1.04M nonzeros, 187×140×453) on the CSF backend, where MTTKRP is
	// nearly all of an iteration and set-up is sort plus CSF build.
	nell2CSF = cpdParams{"nell-2", 1.0 / 64, format.CSF}
	// yelpALTO has about as many nonzeros (~0.94M, 5125×1375×9375) but the
	// fewest per factor row and hub-skewed slices, on ALTO, the format
	// format.Choose picks on BMI2 hosts: the dense Gram and solve are a
	// visible share of its iterations.
	yelpALTO = cpdParams{"yelp", 1.0 / 8, format.ALTO}
)

const (
	cpdRank  = 35 // the paper's rank
	cpdIters = 20 // the paper's iterations per solve, with tolerance 0
	// minReps is the fewest set-ups a run makes, so setup_s is a median.
	minReps = 3
	// quickShrink divides every input size of a -quick run.
	quickShrink = 32
	// serialIters is how many tasks=1 iterations the serial-parity gate
	// compares with the tasks=nproc fits.
	serialIters = 3
	// parityTol bounds the fit and MTTKRP differences the gates accept.
	parityTol = 1e-9
)

func cpdOptions(f format.Spec, tasks int, seed int64) core.Options {
	o := core.DefaultOptions()
	o.Rank, o.MaxIters, o.Tolerance = cpdRank, cpdIters, 0
	o.Tasks, o.Format, o.Seed = tasks, f, seed
	return o
}

// runCPD parses the twin from .tns bytes and solves it with exact CP-ALS,
// rep after rep, while the measured time lasts. Each rep's parse plus
// session set-up is a setup_s sample and each Session.Iterate(1) a latency
// sample.
func runCPD(e *env, p cpdParams) (probeInput, error) {
	scale := p.scale
	if e.cfg.quick {
		scale /= quickShrink
	}
	tns := encodeTNS(twin(p.dataset, scale, e.cfg.seed))
	opts := cpdOptions(p.format, e.cfg.tasks, e.cfg.seed)

	var setups, iters, scaledIters, tracedIters, fits, history []float64
	var t *sptensor.Tensor
	start := time.Now()
	var repDur time.Duration
	for rep := 0; rep < minReps || time.Since(start)+repDur <= e.seconds(); rep++ {
		// Each rep starts from a collected heap, as a fresh job would, and
		// so does its session: the parse's garbage and the last rep's
		// tensor are gone before the backend is built, so peak memory is
		// the same from run to run. Set-up time is parse plus session.
		t = nil
		runtime.GC()
		repStart := time.Now()
		tr := e.traceEvery(rep)
		root := tr.root("bench.rep", int64(rep), 0)
		sp := tr.child("sptensor.load", root)
		var err error
		t, err = sptensor.LoadTensorReader(bytes.NewReader(tns))
		tr.end(sp)
		if !e.led.op(err) {
			return probeInput{}, err
		}
		parse := time.Since(repStart)
		runtime.GC()
		sessionStart := time.Now()
		sp = tr.child("core.session", root)
		s, err := core.NewSession(t, opts)
		tr.end(sp)
		if !e.led.op(err) {
			return probeInput{}, err
		}
		setups = append(setups, (parse + time.Since(sessionStart)).Seconds())
		// Collect the build's garbage now: steady-state iterations allocate
		// nothing, and a collection running beside them would take one of
		// the team's processors.
		runtime.GC()
		e.ref.sample(1)
		for i := 0; i < cpdIters; i++ {
			sp := tr.child("core.iterate", root)
			t0 := time.Now()
			n := s.Iterate(1)
			d := ms(time.Since(t0))
			tr.end(sp)
			if n != 1 {
				e.led.op(fmt.Errorf("rep %d: Iterate(1) ran %d iterations", rep, n))
				continue
			}
			e.led.op(nil)
			e.ref.sample(1)
			if tr != nil {
				tracedIters = append(tracedIters, d)
			} else {
				iters = append(iters, d)
				scaledIters = append(scaledIters, d/e.ref.last(refGather))
			}
		}
		report := s.Report()
		s.Close()
		tr.end(root)
		fits = append(fits, report.Fit)
		history = report.FitHistory
		repDur = time.Since(repStart)
	}
	if len(iters) == 0 {
		e.led.op(errNoSamples)
		return probeInput{}, errNoSamples
	}
	e.peakRSS()

	lo, hi := fits[0], fits[0]
	for _, f := range fits {
		lo, hi = math.Min(lo, f), math.Max(hi, f)
	}
	e.led.gate("fit-repeatable", hi-lo <= parityTol,
		"final fits of %d reps at tasks=%d span %.3g", len(fits), opts.Tasks, hi-lo)
	if err := serialParity(e, t, opts, history); err != nil {
		return probeInput{}, err
	}
	if err := formatParity(e, t); err != nil {
		return probeInput{}, err
	}

	// Each iteration is scaled by the gather loop timed right after it: the
	// host's speed changes within a run, and the kernels' random reads of
	// factor rows follow that loop most closely.
	e.setup(setups, e.ref.scale())
	e.latency(iters, scaledIters)
	e.detail("ops_per_s", 1000*float64(len(iters))/sum(iters), "1/s")
	e.detail("fit", fits[len(fits)-1], "1")
	e.detail("nnz", float64(t.NNZ()), "count")
	e.detail("reps", float64(len(fits)), "count")
	e.traceOverhead(tracedIters, iters)
	return probeInput{t: t, tns: tns, format: p.format, rank: cpdRank}, nil
}

// serialParity runs the first iterations at tasks=1 and checks their fits
// against the tasks=nproc run's.
func serialParity(e *env, t *sptensor.Tensor, opts core.Options, history []float64) error {
	opts.Tasks = 1
	s, err := core.NewSession(t, opts)
	if !e.led.op(err) {
		return err
	}
	t0 := time.Now()
	n := s.Iterate(serialIters)
	e.detail("iter_serial_mean_ms", ms(time.Since(t0))/float64(serialIters), "ms")
	serial := s.Report().FitHistory
	s.Close()
	diff := math.Inf(1)
	if n == serialIters && len(history) >= n {
		diff = 0
		for i := 0; i < n; i++ {
			diff = math.Max(diff, math.Abs(serial[i]-history[i]))
		}
	}
	e.led.gate("fit-serial-parity", diff <= parityTol,
		"first %d fits at tasks=1 and tasks=%d differ by %.3g", serialIters, e.cfg.tasks, diff)
	return nil
}

// formatParity computes the mode-0 MTTKRP of the same factors on the CSF
// and the ALTO backend and checks that they agree.
func formatParity(e *env, t *sptensor.Tensor) error {
	k := core.NewRandomKruskal(t.Dims, cpdRank, e.cfg.seed)
	var outs []*dense.Matrix
	for _, f := range []format.Spec{format.CSF, format.ALTO} {
		r, err := core.NewMTTKRPRunner(t, cpdRank, e.cfg.tasks, cpdOptions(f, e.cfg.tasks, e.cfg.seed))
		if !e.led.op(err) {
			return err
		}
		out := dense.NewMatrix(t.Dims[0], cpdRank)
		r.Apply(0, k.Factors, out)
		r.Close()
		outs = append(outs, out)
	}
	scale := 1.0
	for _, v := range outs[0].Data {
		scale = math.Max(scale, math.Abs(v))
	}
	diff := outs[0].MaxAbsDiff(outs[1])
	e.led.gate("mttkrp-csf-alto-parity", diff <= parityTol*scale,
		"mode-0 MTTKRP differs by %.3g (largest entry %.3g)", diff, scale)
	return nil
}
