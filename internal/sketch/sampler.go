package sketch

import (
	"fmt"
	"sort"

	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// NonzeroSource streams every stored nonzero of a tensor representation.
// format.Backend implements it for both the CSF and ALTO storage formats,
// so the sampled solver builds its fiber index from whatever backend the
// run selected instead of re-reading the coordinate tensor.
type NonzeroSource interface {
	// ForEachNonzero calls fn once per nonzero with the coordinate (in
	// tensor mode order) and value. The coord slice may be reused between
	// calls; fn must copy what it keeps.
	ForEachNonzero(fn func(coord []sptensor.Index, val float64))
}

// leverageMix is the uniform-mixing weight of the sampling distribution:
// p(i) = (1-μ)·ℓ(i)/Σℓ + μ/I. The mixing keeps every row reachable (a row
// with zero leverage can still index populated fibers), which keeps the
// importance weights 1/p finite and the sampled estimator well-defined.
const leverageMix = 0.05

// defaultFitSamples is the nonzero subset size of the sampled-phase fit
// estimator.
const defaultFitSamples = 4096

// privBufferCap bounds the per-task privatized output buffers (floats);
// beyond it the sampled accumulation degrades to the serial path rather
// than allocating tasks×rows×rank scratch.
const privBufferCap = 1 << 25

// seed-split purposes: each consumer of randomness derives its stream from
// (seed, purpose, iteration, ...), so draws never correlate across uses.
const (
	purposeMTTKRP = 0x5eed0001
	purposeFit    = 0x5eed0002
)

// Config parameterizes a Sampler.
type Config struct {
	// Rank is the decomposition rank R.
	Rank int
	// Samples is the Khatri-Rao rows drawn per factor update
	// (0 = DefaultSamples).
	Samples int
	// FitSamples is the nonzero subset size of the sampled-phase fit
	// estimator (0 = default).
	FitSamples int
	// Seed drives every deterministic draw (samples and fit estimation).
	Seed int64
	// Offsets translate the source's local coordinates into global ones
	// (per mode; nil = zero). The distributed engine passes its slab
	// offset so every locale samples in the same global coordinate space.
	Offsets []int
	// Team parallelizes the sampled accumulation (nil = serial).
	Team *parallel.Team
}

// levTable is one mode's sampling distribution: per-row probabilities and
// their inclusive prefix sums for inverse-CDF draws.
type levTable struct {
	p   []float64
	cum []float64
}

// Sampler owns the sampled-MTTKRP machinery for one tensor (or tensor
// shard): the nonzero arrays in global coordinates, a lazily built
// per-mode fiber index keyed by the complement multi-index, and the cached
// per-mode leverage-score distributions.
type Sampler struct {
	dims    []int
	offsets []int
	rank    int
	samples int
	fitSamp int
	seed    int64
	team    *parallel.Team

	nnz    int
	maxDim int                // longest mode (sizes the privatized buffers)
	coords [][]sptensor.Index // [order][nnz], global coordinates
	vals   []float64

	radix [][]uint64 // radix[m][n]: weight of mode n in mode-m complement keys
	keys  [][]uint64 // keys[m]: sorted complement key per fiber-index entry
	perm  [][]int32  // perm[m]: nonzero id per fiber-index entry

	lev []*levTable // cached sampling distribution per mode

	privOut  [][]float64 // per-task privatized output rows
	privNorm [][]float64 // per-task privatized normal accumulators
	privH    [][]float64 // per-task Khatri-Rao row scratch (rank)
	privIdx  [][]int     // per-task decoded-coordinate scratch (order)

	// Reusable draw state: the distinct-key map and the key/count arrays
	// are cleared, not reallocated, between draws.
	seen     map[uint64]int
	keyBuf   []uint64
	countBuf []int

	// Leverage-refresh scratch: the pseudo-inverse runs through cached
	// Jacobi buffers, and the row sweep is a staged body built once.
	ginv         *dense.Matrix
	eigW, eigQ   *dense.Matrix
	eigVals      []float64
	eigInv       []float64
	levBody      func(tid int)
	curLevFactor *dense.Matrix
	curLevTable  *levTable

	// Staged operands + cached bodies of the parallel sampled accumulate.
	accBody    func(tid int)
	reduceBody func(tid int)
	curMode    int
	curFactors []*dense.Matrix
	curOut     *dense.Matrix
	curOutLen  int

	// spans splits SampledMTTKRP into a sample-draw span (fiber index
	// build + leverage draw) and an accumulation span, so the profiler
	// attributes sketching cost separately from the sampled kernel. Set
	// by the owning solver (nil records nothing); recording is
	// allocation-free.
	spans *obs.SpanRecorder
}

// SetSpans attaches a span recorder (nil detaches). The caller owns the
// recorder's lifecycle; the sampler only records into it.
func (s *Sampler) SetSpans(rec *obs.SpanRecorder) { s.spans = rec }

// runTeam dispatches a cached body across the team (inline when serial).
func (s *Sampler) runTeam(body func(tid int)) {
	if s.team == nil || s.team.N() == 1 {
		body(0)
		return
	}
	s.team.Run(body)
}

// NewSampler collects the source's nonzeros (src may be nil for an empty
// shard) and prepares the complement-key radixes. It fails when any mode's
// complement index space ∏_{n≠m} dims[n] does not fit a 64-bit key — such
// tensors fall back to the exact solver.
func NewSampler(src NonzeroSource, dims []int, cfg Config) (*Sampler, error) {
	order := len(dims)
	if order < 2 {
		return nil, fmt.Errorf("sketch: order-%d tensor (need >= 2 modes)", order)
	}
	if cfg.Rank <= 0 {
		return nil, fmt.Errorf("sketch: rank %d <= 0", cfg.Rank)
	}
	offsets := cfg.Offsets
	if offsets == nil {
		offsets = make([]int, order)
	}
	if len(offsets) != order {
		return nil, fmt.Errorf("sketch: %d offsets for order-%d tensor", len(offsets), order)
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = DefaultSamples(dims, cfg.Rank)
	}
	fitSamp := cfg.FitSamples
	if fitSamp <= 0 {
		fitSamp = defaultFitSamples
	}
	s := &Sampler{
		dims:    append([]int(nil), dims...),
		offsets: append([]int(nil), offsets...),
		rank:    cfg.Rank,
		samples: samples,
		fitSamp: fitSamp,
		seed:    cfg.Seed,
		team:    cfg.Team,
		radix:   make([][]uint64, order),
		keys:    make([][]uint64, order),
		perm:    make([][]int32, order),
		lev:     make([]*levTable, order),
	}
	for _, d := range dims {
		if d > s.maxDim {
			s.maxDim = d
		}
	}
	// Mixed-radix complement keys: for mode m, key = Σ_{n≠m} c_n·radix[m][n]
	// with the later modes varying fastest. Guard the product against
	// 64-bit overflow.
	for m := 0; m < order; m++ {
		s.radix[m] = make([]uint64, order)
		mult := uint64(1)
		for n := order - 1; n >= 0; n-- {
			if n == m {
				continue
			}
			s.radix[m][n] = mult
			d := uint64(dims[n])
			if d == 0 {
				d = 1
			}
			if mult > (1<<62)/d {
				return nil, fmt.Errorf("sketch: mode-%d complement index space overflows 64 bits", m)
			}
			mult *= d
		}
	}
	if src != nil {
		src.ForEachNonzero(func(coord []sptensor.Index, val float64) {
			s.nnz++
			s.vals = append(s.vals, val)
			if s.coords == nil {
				s.coords = make([][]sptensor.Index, order)
			}
			for m := 0; m < order; m++ {
				s.coords[m] = append(s.coords[m], coord[m]+sptensor.Index(offsets[m]))
			}
		})
	}

	tasks := 1
	if s.team != nil {
		tasks = s.team.N()
	}
	s.privH = make([][]float64, tasks)
	s.privIdx = make([][]int, tasks)
	for t := 0; t < tasks; t++ {
		s.privH[t] = make([]float64, cfg.Rank)
		s.privIdx[t] = make([]int, order)
	}
	s.seen = make(map[uint64]int, samples)
	r := cfg.Rank
	s.ginv = dense.NewMatrix(r, r)
	s.eigW = dense.NewMatrix(r, r)
	s.eigQ = dense.NewMatrix(r, r)
	s.eigVals = make([]float64, r)
	s.eigInv = make([]float64, r)

	s.levBody = func(tid int) {
		factor, t := s.curLevFactor, s.curLevTable
		ginv := s.ginv
		begin, end := parallel.Partition(factor.Rows, tasks, tid)
		for i := begin; i < end; i++ {
			a := factor.Row(i)
			l := 0.0
			for j := 0; j < r; j++ {
				gj := ginv.Row(j)
				aj := a[j]
				for k := 0; k < r; k++ {
					l += aj * gj[k] * a[k]
				}
			}
			if l < 0 {
				l = 0
			}
			t.p[i] = l
		}
	}
	s.accBody = func(tid int) {
		outLen := s.curOutLen
		po, pn := s.privOut[tid][:outLen], s.privNorm[tid]
		for i := range po {
			po[i] = 0
		}
		for i := range pn {
			pn[i] = 0
		}
		h, idx := s.privH[tid], s.privIdx[tid]
		begin, end := parallel.Partition(len(s.keyBuf), tasks, tid)
		for i := begin; i < end; i++ {
			s.accumulateSample(s.curMode, s.keyBuf[i], s.countBuf[i], s.curFactors, po, pn, h, idx)
		}
	}
	s.reduceBody = func(tid int) {
		// Reduce in increasing task order (fixed summation order per cell).
		out := s.curOut
		begin, end := parallel.Partition(out.Rows, tasks, tid)
		for t := 0; t < tasks; t++ {
			po := s.privOut[t]
			dense.VecAdd(out.Data[begin*r:end*r], po[begin*r:end*r])
		}
	}
	return s, nil
}

// Samples reports the per-update Khatri-Rao row sample count.
func (s *Sampler) Samples() int { return s.samples }

// NNZ reports the (local) nonzero count behind the sampler.
func (s *Sampler) NNZ() int { return s.nnz }

// RefreshLeverage recomputes mode m's sampling distribution from its
// current factor and Gram matrix (ℓ(i) = a_i·G⁺·a_i, uniform-mixed). The
// engines call it once per mode after initialization and again after every
// update of that mode's factor, mirroring CP-ARLS-LEV's score maintenance;
// the tables are deterministic functions of (factor, gram), so replicated
// engines stay bitwise aligned.
func (s *Sampler) RefreshLeverage(m int, factor, gram *dense.Matrix) {
	rows := factor.Rows
	t := s.lev[m]
	if t == nil {
		t = &levTable{p: make([]float64, rows), cum: make([]float64, rows)}
		s.lev[m] = t
	}
	dense.PseudoInverseInto(gram, 0, s.ginv, s.eigW, s.eigQ, s.eigVals, s.eigInv)
	s.curLevFactor, s.curLevTable = factor, t
	s.runTeam(s.levBody)
	s.curLevFactor, s.curLevTable = nil, nil
	total := 0.0
	for _, l := range t.p {
		total += l
	}
	uni := 1.0 / float64(rows)
	for i := range t.p {
		if total > 0 {
			t.p[i] = (1-leverageMix)*(t.p[i]/total) + leverageMix*uni
		} else {
			t.p[i] = uni
		}
	}
	c := 0.0
	for i, p := range t.p {
		c += p
		t.cum[i] = c
	}
}

// draw returns the inverse-CDF sample for uniform u.
func (t *levTable) draw(u float64) int {
	i := sort.Search(len(t.cum), func(i int) bool { return t.cum[i] > u })
	if i >= len(t.cum) {
		i = len(t.cum) - 1
	}
	return i
}

// buildFiberIndex sorts the nonzeros of mode m by complement key so every
// sampled Khatri-Rao row resolves to its tensor fiber with one binary
// search.
func (s *Sampler) buildFiberIndex(m int) {
	if s.keys[m] != nil || s.nnz == 0 {
		if s.keys[m] == nil {
			s.keys[m] = []uint64{}
			s.perm[m] = []int32{}
		}
		return
	}
	keys := make([]uint64, s.nnz)
	perm := make([]int32, s.nnz)
	radix := s.radix[m]
	order := len(s.dims)
	for x := 0; x < s.nnz; x++ {
		k := uint64(0)
		for n := 0; n < order; n++ {
			if n == m {
				continue
			}
			k += uint64(s.coords[n][x]) * radix[n]
		}
		keys[x] = k
		perm[x] = int32(x)
	}
	sort.Slice(perm, func(i, j int) bool {
		ki, kj := keys[perm[i]], keys[perm[j]]
		if ki != kj {
			return ki < kj
		}
		return perm[i] < perm[j] // total order: deterministic accumulation
	})
	sorted := make([]uint64, s.nnz)
	for i, id := range perm {
		sorted[i] = keys[id]
	}
	s.keys[m] = sorted
	s.perm[m] = perm
}

// drawSamples draws the deterministic sample set for (mode, iter) into the
// reusable keyBuf/countBuf arrays: distinct complement keys in first-seen
// order with multiplicities. The distinct-key map and both arrays are
// cleared, not reallocated, so steady-state draws allocate nothing.
func (s *Sampler) drawSamples(mode, iter int) {
	rng := newRNG(splitSeed(s.seed, purposeMTTKRP, uint64(iter), uint64(mode)))
	order := len(s.dims)
	clear(s.seen)
	s.keyBuf = s.keyBuf[:0]
	s.countBuf = s.countBuf[:0]
	for n := 0; n < s.samples; n++ {
		key := uint64(0)
		for m := 0; m < order; m++ {
			if m == mode {
				continue
			}
			key += uint64(s.lev[m].draw(rng.float64())) * s.radix[mode][m]
		}
		if at, ok := s.seen[key]; ok {
			s.countBuf[at]++
			continue
		}
		s.seen[key] = len(s.keyBuf)
		s.keyBuf = append(s.keyBuf, key)
		s.countBuf = append(s.countBuf, 1)
	}
}

// decode splits a mode-m complement key into per-mode indices (dst[mode]
// is left untouched).
func (s *Sampler) decode(mode int, key uint64, dst []int) {
	for n := 0; n < len(s.dims); n++ {
		if n == mode {
			continue
		}
		r := s.radix[mode][n]
		dst[n] = int(key / r)
		key %= r
	}
}

// SampledMTTKRP computes the sampled normal equations of mode `mode` for
// ALS iteration `iter`: out ← X(mode)·W·H (the sampled MTTKRP over the
// drawn Khatri-Rao rows H with importance weights W) and normal ← Hᵀ·W·H
// (the sampled Gram replacing the exact Hadamard-of-Grams V). factors must
// hold the full (global) factor matrices; out must be rows(mode-shard)×R
// and is overwritten; normal must be R×R. Every draw is deterministic in
// (Config.Seed, iter, mode), and RefreshLeverage must have been called for
// every mode but `mode` since the factors last changed.
func (s *Sampler) SampledMTTKRP(mode, iter int, factors []*dense.Matrix, out, normal *dense.Matrix) {
	order := len(s.dims)
	r := s.rank
	for n := 0; n < order; n++ {
		if n != mode && s.lev[n] == nil {
			panic(fmt.Sprintf("sketch: mode %d leverage table not refreshed", n))
		}
	}
	span := s.spans.Start()
	s.buildFiberIndex(mode)
	s.drawSamples(mode, iter)
	s.spans.EndMode(obs.PhaseSample, span, mode)
	span = s.spans.Start()

	out.Zero()
	normal.Zero()
	tasks := 1
	if s.team != nil {
		tasks = s.team.N()
	}
	// The guard sizes by the longest mode because the privatized buffers
	// are allocated once at maxDim rows and reused across modes.
	if tasks > 1 && tasks*s.maxDim*r <= privBufferCap {
		s.accumulateParallel(mode, factors, out, normal, tasks)
	} else {
		h, idx := s.privH[0], s.privIdx[0]
		for i, key := range s.keyBuf {
			s.accumulateSample(mode, key, s.countBuf[i], factors, out.Data, normal.Data, h, idx)
		}
	}
	// Mirror the symmetric accumulation (only the upper triangle is built).
	for i := 0; i < r; i++ {
		for j := 0; j < i; j++ {
			normal.Data[i*r+j] = normal.Data[j*r+i]
		}
	}
	s.spans.EndMode(obs.PhaseSampledMTTKRP, span, mode)
}

// accumulateParallel splits the distinct samples (already drawn into
// keyBuf/countBuf) over the team with per-task privatized buffers, then
// reduces in task order — deterministic for a fixed team size. The bodies
// are cached; only the operands are staged per call.
func (s *Sampler) accumulateParallel(mode int, factors []*dense.Matrix,
	out, normal *dense.Matrix, tasks int) {

	r := s.rank
	outLen := out.Rows * r
	if s.privOut == nil || len(s.privOut) < tasks || len(s.privOut[0]) < outLen {
		s.privOut = make([][]float64, tasks)
		s.privNorm = make([][]float64, tasks)
		for t := 0; t < tasks; t++ {
			s.privOut[t] = make([]float64, s.maxDim*r)
			s.privNorm[t] = make([]float64, r*r)
		}
	}
	s.curMode, s.curFactors, s.curOut, s.curOutLen = mode, factors, out, outLen
	s.runTeam(s.accBody)
	s.runTeam(s.reduceBody)
	s.curFactors, s.curOut = nil, nil
	for tid := 0; tid < tasks; tid++ {
		dense.VecAdd(normal.Data, s.privNorm[tid])
	}
}

// accumulateSample folds one distinct sampled Khatri-Rao row into the
// output and normal accumulators: weight w = count/(S·p), h = ∘ A_n[i_n],
// normal += w·h·hᵀ (upper triangle), and out[row] += w·x·h for every
// nonzero of the sampled fiber.
func (s *Sampler) accumulateSample(mode int, key uint64, count int,
	factors []*dense.Matrix, out, normal []float64, h []float64, idx []int) {

	r := s.rank
	p := 1.0
	s.decode(mode, key, idx)
	for i := range h {
		h[i] = 1
	}
	for n := 0; n < len(s.dims); n++ {
		if n == mode {
			continue
		}
		p *= s.lev[n].p[idx[n]]
		dense.VecMul(h, factors[n].Row(idx[n]))
	}
	w := float64(count) / (float64(s.samples) * p)
	for i := 0; i < r; i++ {
		dense.VecAxpy(normal[i*r+i:i*r+r], h[i:], w*h[i])
	}
	keys := s.keys[mode]
	lo := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
	offset := s.offsets[mode]
	for at := lo; at < len(keys) && keys[at] == key; at++ {
		x := s.perm[mode][at]
		row := int(s.coords[mode][x]) - offset
		dense.VecAxpy(out[row*r:row*r+r], h, w*s.vals[x])
	}
}

// EstimateInner estimates ⟨X, model⟩ from a seeded uniform subset of the
// local nonzeros: (nnz/P)·Σ_sample x·model(coord). salt decorrelates
// parallel estimators (the distributed engine passes its locale id, then
// sums the per-shard estimates). Returns 0 for an empty shard.
func (s *Sampler) EstimateInner(iter int, salt uint64, lambda []float64, factors []*dense.Matrix) float64 {
	if s.nnz == 0 {
		return 0
	}
	n := s.fitSamp
	if n > s.nnz {
		n = s.nnz
	}
	rng := newRNG(splitSeed(s.seed, purposeFit, uint64(iter), salt))
	order := len(s.dims)
	r := s.rank
	acc := 0.0
	for draw := 0; draw < n; draw++ {
		x := rng.intn(s.nnz)
		v := 0.0
		for c := 0; c < r; c++ {
			t := lambda[c]
			for m := 0; m < order; m++ {
				t *= factors[m].At(int(s.coords[m][x]), c)
			}
			v += t
		}
		acc += s.vals[x] * v
	}
	return acc * float64(s.nnz) / float64(n)
}
