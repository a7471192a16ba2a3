package dense

// Register-blocked vector primitives for the MTTKRP inner loops. Every
// kernel walks rank-length rows thousands of times per nonzero tile, so
// each has two implementations behind a function-pointer dispatch
// (dispatch.go): a pure-Go body unrolled by 4 with a scalar tail (the Go
// compiler does not auto-vectorize, and the unrolling both amortizes loop
// overhead and gives the scheduler four independent accumulation chains),
// and — when the CPU has the features — an assembly fast path (AVX2+FMA
// on amd64, NEON on arm64). All functions assume len(dst) <= len of every
// source operand (the callers pass rank-length slices cut from the same
// matrices).

// VecAxpy computes dst[i] += a * x[i].
func VecAxpy(dst, x []float64, a float64) { vecAxpy(dst, x, a) }

// VecAdd computes dst[i] += x[i].
func VecAdd(dst, x []float64) { vecAdd(dst, x) }

// VecMul computes dst[i] *= x[i] (the Hadamard accumulate of factor rows).
func VecMul(dst, x []float64) { vecMul(dst, x) }

// VecMulAdd computes dst[i] += x[i] * y[i] (fused product-accumulate used
// when a fiber's partial sum is scaled by the ancestor row product).
func VecMulAdd(dst, x, y []float64) { vecMulAdd(dst, x, y) }

// VecScaleSet computes dst[i] = a * x[i].
func VecScaleSet(dst, x []float64, a float64) { vecScaleSet(dst, x, a) }

// VecMulSet computes dst[i] = x[i] * y[i].
func VecMulSet(dst, x, y []float64) { vecMulSet(dst, x, y) }

// VecAxpyMulSet fuses a run flush with the next Hadamard product in one
// pass over h: dst[i] += v*h[i], then h[i] = x[i]*y[i]. This is the
// steady-state nonzero step of the linearized MTTKRP walker on dense
// tensors (every nonzero ends its run AND moves the non-target
// coordinates), where fusing halves the kernel-call count per nonzero.
func VecAxpyMulSet(dst, h, x, y []float64, v float64) { vecAxpyMulSet(dst, h, x, y, v) }

// VecScaleMulSet is VecAxpyMulSet with an overwriting flush: dst[i] =
// v*h[i], then h[i] = x[i]*y[i] — the run-materialization step of the same
// walker when the accumulator is being seeded rather than extended.
func VecScaleMulSet(dst, h, x, y []float64, v float64) { vecScaleMulSet(dst, h, x, y, v) }

// VecMulAxpy computes dst[i] += v * (x[i]*y[i]) without materializing the
// intermediate product: the scaled Hadamard flush of the MTTKRP walkers
// when the product is consumed exactly once. The product x[i]*y[i] is
// rounded before the (fused) scale-accumulate, so results are bitwise
// identical to a VecMulSet-into-scratch followed by VecAxpy.
func VecMulAxpy(dst, x, y []float64, v float64) { vecMulAxpy(dst, x, y, v) }

// VecMulScaleSet is VecMulAxpy's overwriting form: dst[i] = v * (x[i]*y[i]).
func VecMulScaleSet(dst, x, y []float64, v float64) { vecMulScaleSet(dst, x, y, v) }

// GatherAxpy accumulates a CSF fiber's leaf rows in one call:
// dst[c] += vals[x] * rows[idx[x]*r + c] for x in order, r = len(dst).
// rows is a flat row-major matrix with r columns and idx holds its row
// numbers; vals has at least len(idx) entries. Each element of dst takes
// the same multiply-adds, in the same order, as len(idx) VecAxpy calls,
// so the result is bitwise theirs on every kernel set; the assembly body
// keeps dst in registers for the whole fiber instead of paying a
// dispatched call and a dst round trip per nonzero.
func GatherAxpy(dst, rows []float64, idx []int32, vals []float64) {
	gatherAxpy(dst, rows, idx, vals)
}

// VecDot returns Σ x[i]*y[i] over the first len(x) elements (len(y) must
// be at least len(x)). Independent accumulation chains keep the
// multiply-add latency off the critical path — this is the inner product of
// the model-serving score kernels, executed once per candidate row.
func VecDot(x, y []float64) float64 { return vecDot(x, y) }

// VecZero clears dst.
func VecZero(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

func vecAxpyGeneric(dst, x []float64, a float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * x[i]
		dst[i+1] += a * x[i+1]
		dst[i+2] += a * x[i+2]
		dst[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		dst[i] += a * x[i]
	}
}

func vecAddGeneric(dst, x []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += x[i]
		dst[i+1] += x[i+1]
		dst[i+2] += x[i+2]
		dst[i+3] += x[i+3]
	}
	for ; i < n; i++ {
		dst[i] += x[i]
	}
}

func vecMulGeneric(dst, x []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] *= x[i]
		dst[i+1] *= x[i+1]
		dst[i+2] *= x[i+2]
		dst[i+3] *= x[i+3]
	}
	for ; i < n; i++ {
		dst[i] *= x[i]
	}
}

func vecMulAddGeneric(dst, x, y []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += x[i] * y[i]
		dst[i+1] += x[i+1] * y[i+1]
		dst[i+2] += x[i+2] * y[i+2]
		dst[i+3] += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		dst[i] += x[i] * y[i]
	}
}

func vecScaleSetGeneric(dst, x []float64, a float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a * x[i]
		dst[i+1] = a * x[i+1]
		dst[i+2] = a * x[i+2]
		dst[i+3] = a * x[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a * x[i]
	}
}

func vecMulSetGeneric(dst, x, y []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = x[i] * y[i]
		dst[i+1] = x[i+1] * y[i+1]
		dst[i+2] = x[i+2] * y[i+2]
		dst[i+3] = x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		dst[i] = x[i] * y[i]
	}
}

// vecAxpyMulSetCompose is the default VecAxpyMulSet body: two passes
// through the dispatched single-op kernels, so non-amd64 native builds
// (NEON) still vectorize both halves. The amd64 init replaces it with a
// genuinely fused single-pass routine.
func vecAxpyMulSetCompose(dst, h, x, y []float64, v float64) {
	vecAxpy(dst, h, v)
	vecMulSet(h, x, y)
}

// vecScaleMulSetCompose is the default VecScaleMulSet body (see
// vecAxpyMulSetCompose).
func vecScaleMulSetCompose(dst, h, x, y []float64, v float64) {
	vecScaleSet(dst, h, v)
	vecMulSet(h, x, y)
}

// gatherAxpyCompose is the default GatherAxpy body: one dispatched
// VecAxpy per nonzero (see vecAxpyMulSetCompose), so purego builds, NEON
// and AVX2 hosts without FMA keep their own VecAxpy rounding. The amd64
// init replaces it with a register-blocked gather.
func gatherAxpyCompose(dst, rows []float64, idx []int32, vals []float64) {
	r := len(dst)
	for x, i := range idx {
		off := int(i) * r
		vecAxpy(dst, rows[off:off+r], vals[x])
	}
}

// vecMulAxpyGeneric keeps the product in a separate statement so no
// compiler contracts it into the accumulate — the rounding then matches
// the assembly (round the product, fuse the scale-add) on every platform.
func vecMulAxpyGeneric(dst, x, y []float64, v float64) {
	n := len(dst)
	for i := 0; i < n; i++ {
		m := x[i] * y[i]
		dst[i] += v * m
	}
}

func vecMulScaleSetGeneric(dst, x, y []float64, v float64) {
	n := len(dst)
	for i := 0; i < n; i++ {
		m := x[i] * y[i]
		dst[i] = v * m
	}
}

func vecDotGeneric(x, y []float64) float64 {
	n := len(x)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// syrkRowGeneric accumulates one row's contribution to the upper-triangle
// Gram partial: part[j*r+k] += row[j]*row[k] for k >= j (r = len(row),
// part is r×r). This is the Syrk inner block; the assembly fast path
// replaces the per-j VecAxpy calls with one broadcast-FMA loop.
func syrkRowGeneric(part, row []float64) {
	r := len(row)
	for j := 0; j < r; j++ {
		vj := row[j]
		if vj == 0 {
			continue
		}
		vecAxpy(part[j*r+j:j*r+r], row[j:], vj)
	}
}

// HadamardOfGrams fuses CP-ALS's V ← ∘_{n≠skip} grams[n] assembly into a
// single write pass over V (no Fill(1) prologue, no per-Gram re-read of
// dst), the "fused Hadamard-of-Grams" of the factor-update prologue. All
// grams must share dst's shape.
func HadamardOfGrams(dst *Matrix, grams []*Matrix, skip int) {
	first := true
	for n, g := range grams {
		if n == skip {
			continue
		}
		if first {
			copy(dst.Data, g.Data)
			first = false
			continue
		}
		VecMul(dst.Data, g.Data)
	}
	if first { // order-1 degenerate: empty product is ones
		dst.Fill(1)
	}
}
