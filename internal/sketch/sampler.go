package sketch

import (
	"fmt"
	"sort"

	"repro/internal/dense"
	"repro/internal/mttkrp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sptensor"
)

// NonzeroSource lists every stored nonzero of a tensor representation.
// format.Backend implements it for both the CSF and ALTO storage formats,
// so the sampled solver copies its nonzeros from whatever backend the run
// selected instead of re-reading the coordinate tensor.
type NonzeroSource interface {
	// NNZ reports how many nonzeros Nonzeros writes.
	NNZ() int
	// Nonzeros writes every nonzero, in the source's storage order, into
	// columns the caller allocated: coords[m][x] receives nonzero x's
	// index in tensor mode m and vals[x] its value (each column holds NNZ
	// entries).
	Nonzeros(coords [][]sptensor.Index, vals []float64)
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
	// (per mode; nil = zero). A distributed locale passes its slab offset
	// so every locale samples in the same global coordinate space.
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
// shard): the nonzero arrays in global coordinates, per-mode fiber
// indexes keyed by the complement multi-index (built for every mode at the
// first SampledMTTKRP), and the cached per-mode leverage-score
// distributions.
type Sampler struct {
	dims    []int
	offsets []int
	rank    int
	samples int
	fitSamp int
	seed    int64
	team    *parallel.Team

	nnz    int
	maxDim int                // longest mode (bounds the privatized buffers)
	coords [][]sptensor.Index // [order][nnz], global coordinates
	vals   []float64

	radix [][]uint64 // radix[m][n]: weight of mode n in mode-m complement keys
	keys  [][]uint64 // keys[m]: sorted complement key per fiber-index entry
	perm  [][]int32  // perm[m]: nonzero id per fiber-index entry

	lev []*levTable // cached sampling distribution per mode

	priv     *mttkrp.Privatizer // per-task privatized output, whole-mode windows
	privNorm [][]float64        // per-task privatized normal accumulators
	privH    [][]float64        // per-task Khatri-Rao row scratch (rank)
	privIdx  [][]int            // per-task decoded-coordinate scratch (order)

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

	// Staged operands + cached body of the parallel sampled accumulate.
	accBody    func(tid int)
	curMode    int
	curFactors []*dense.Matrix

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

// NewSampler copies the source's nonzeros into its columns with one
// Nonzeros call, then adds the offsets (src may be nil for an empty shard),
// and prepares the complement-key radixes. It fails when any mode's
// complement index space ∏_{n≠m} dims[n] does not fit a 64-bit key — such
// tensors fall back to the exact solver — and when the source holds more
// than sptensor.MaxNNZ nonzeros, the most an int32 fiber index addresses.
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
		n := src.NNZ()
		if n > sptensor.MaxNNZ {
			return nil, fmt.Errorf("sketch: %d nonzeros exceed the %d a fiber index addresses", n, sptensor.MaxNNZ)
		}
		s.vals = make([]float64, n)
		s.coords = make([][]sptensor.Index, order)
		for m := range s.coords {
			s.coords[m] = make([]sptensor.Index, n)
		}
		src.Nonzeros(s.coords, s.vals)
		for m, off := range offsets {
			if off != 0 {
				col := s.coords[m]
				for x := range col {
					col[x] += sptensor.Index(off)
				}
			}
		}
		s.nnz = n
	}

	tasks := s.team.N()
	lo, hi := mttkrp.WholeModes(s.dims, tasks)
	s.priv = mttkrp.NewPrivatizer(cfg.Rank, lo, hi)
	s.privNorm = make([][]float64, tasks)
	s.privH = make([][]float64, tasks)
	s.privIdx = make([][]int, tasks)
	for t := 0; t < tasks; t++ {
		s.privNorm[t] = make([]float64, cfg.Rank*cfg.Rank)
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
		po, _ := s.priv.Open(tid) // whole-mode windows start at row 0
		pn := s.privNorm[tid]
		clear(pn)
		h, idx := s.privH[tid], s.privIdx[tid]
		begin, end := parallel.Partition(len(s.keyBuf), tasks, tid)
		for i := begin; i < end; i++ {
			s.accumulateSample(s.curMode, s.keyBuf[i], s.countBuf[i], s.curFactors, po, pn, h, idx)
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
	s.team.Run(s.levBody)
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

// buildFiberIndexes sorts every mode's nonzeros by complement key, so a
// sampled Khatri-Rao row resolves to its tensor fiber with one binary
// search. SampledMTTKRP builds all modes at its first call.
//
// Mode m is ordered without sorting keys: one stable counting pass per
// complement mode, least significant (last) first, leaves the nonzeros in
// lexicographic complement-coordinate order, which is ascending key order
// with equal keys in nonzero-id order. The first pass scatters the
// identity order; each later pass reads its mode's coordinates through
// the previous pass's permutation. The keys are then gathered in
// permutation order. The team splits every pass (countState.pass) and
// the gather over contiguous chunks of the nonzeros, so the indexes do
// not depend on the team size. Besides the indexes, the build holds one
// 4-byte-per-nonzero permutation buffer and, per task, two int32 arrays
// of the longest mode's length. An empty shard's sampler has no
// coordinate columns and gets empty indexes.
func (s *Sampler) buildFiberIndexes() {
	order := len(s.dims)
	for m := range s.keys {
		s.keys[m] = make([]uint64, s.nnz)
		s.perm[m] = make([]int32, s.nnz)
	}
	if s.nnz == 0 {
		return
	}
	tasks := s.team.N()
	cs := &countState{hists: make([][]int32, tasks), offs: make([][]int32, tasks), team: s.team}
	for t := range cs.hists {
		cs.hists[t] = make([]int32, s.maxDim)
		cs.offs[t] = make([]int32, s.maxDim)
	}
	buf := make([]int32, s.nnz)
	s.team.Run(func(tid int) {
		begin, end := parallel.Partition(s.nnz, tasks, tid)
		for m := 0; m < order; m++ {
			keys, perm := s.keys[m], s.perm[m]
			// The order-1 passes alternate between perm and buf, the last
			// into perm.
			dst, other := perm, buf
			if order%2 == 1 {
				dst, other = buf, perm
			}
			var src []int32 // nil: the identity order
			for n := order - 1; n >= 0; n-- {
				if n != m {
					cs.pass(tid, begin, end, dst, src, s.coords[n], s.dims[n])
					src, dst, other = dst, other, dst
				}
			}
			radix := s.radix[m]
			for i := begin; i < end; i++ {
				x := perm[i]
				k := uint64(0)
				for n := 0; n < order; n++ {
					if n != m {
						k += uint64(s.coords[n][x]) * radix[n]
					}
				}
				keys[i] = k
			}
		}
	})
}

// countState is the shared state of one team's counting passes: per
// task, a coordinate histogram and the scatter offsets derived from all
// the histograms.
type countState struct {
	hists, offs [][]int32
	team        *parallel.Team
}

// pass is task tid's share of one stable counting pass: the nonzero ids
// at positions [begin, end) of src (nil: the ids begin..end-1 in order)
// are scattered into dst by ascending coordinate col[id] < dim. Each task
// counts its chunk; after a barrier, an id goes behind every id of a
// smaller coordinate and behind the earlier tasks' ids of its own
// coordinate (offsets bucket-major, then in task order), so the result is
// the serial pass's. A closing barrier completes the scatter before dst
// is read and the histograms are reused.
func (cs *countState) pass(tid, begin, end int, dst, src []int32, col []sptensor.Index, dim int) {
	hist := cs.hists[tid][:dim]
	clear(hist)
	if src == nil {
		for _, c := range col[begin:end] {
			hist[c]++
		}
	} else {
		for _, x := range src[begin:end] {
			hist[col[x]]++
		}
	}
	cs.team.Barrier()
	off := cs.offs[tid][:dim]
	sum := int32(0)
	for c := range off {
		for t, h := range cs.hists {
			if t == tid {
				off[c] = sum
			}
			sum += h[c]
		}
	}
	if src == nil {
		for x := begin; x < end; x++ {
			c := col[x]
			dst[off[c]] = int32(x)
			off[c]++
		}
	} else {
		for _, x := range src[begin:end] {
			c := col[x]
			dst[off[c]] = x
			off[c]++
		}
	}
	cs.team.Barrier()
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
	if s.keys[mode] == nil {
		s.buildFiberIndexes()
	}
	s.drawSamples(mode, iter)
	s.spans.EndMode(obs.PhaseSample, span, mode)
	span = s.spans.Start()

	out.Zero()
	normal.Zero()
	tasks := s.team.N()
	// The guard sizes by the longest mode because the privatized buffers
	// grow to the widest mode they privatize and are reused across modes.
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
// reduces in task order — deterministic for a fixed team size. The body is
// cached; only the operands are staged per call. out's rows clip the
// buffers, so a shard's sampler privatizes only its rows of mode 0.
func (s *Sampler) accumulateParallel(mode int, factors []*dense.Matrix,
	out, normal *dense.Matrix, tasks int) {

	s.curMode, s.curFactors = mode, factors
	s.priv.Stage(mode, out)
	s.team.Run(s.accBody)
	s.priv.Reduce(s.team)
	s.curFactors = nil
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
// parallel estimators (a distributed locale passes its id, and the
// per-shard estimates are summed). Returns 0 for an empty shard.
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
