//go:build amd64 && !purego

package dense

import "repro/internal/cpu"

// Assembly kernel declarations (vec_amd64.s). Each matches its generic
// counterpart's contract exactly: n from dst (x for the dot), remaining
// operands at least n long.
func vecAxpyAVX2(dst, x []float64, a float64)
func vecAddAVX2(dst, x []float64)
func vecMulAVX2(dst, x []float64)
func vecMulAddAVX2(dst, x, y []float64)
func vecMulSetAVX2(dst, x, y []float64)
func vecScaleSetAVX2(dst, x []float64, a float64)
func vecDotAVX2(x, y []float64) float64
func syrkRowAVX2(part, row []float64)
func vecAxpyMulSetAVX2(dst, h, x, y []float64, v float64)
func vecScaleMulSetAVX2(dst, h, x, y []float64, v float64)
func vecMulAxpyAVX2(dst, x, y []float64, v float64)
func vecMulScaleSetAVX2(dst, x, y []float64, v float64)
func gatherAxpyAVX2(dst, rows []float64, idx []int32, vals []float64)

// The FMA kernels contract multiply-add rounding, so they are gated on
// both AVX2 and FMA together: mixing contracted and uncontracted kernels
// across dispatch entries would make results depend on which entry a
// caller hit.
func init() {
	if !(cpu.HasAVX2 && cpu.HasFMA) {
		return
	}
	vecAxpy = vecAxpyAVX2
	vecAdd = vecAddAVX2
	vecMul = vecMulAVX2
	vecMulAdd = vecMulAddAVX2
	vecMulSet = vecMulSetAVX2
	vecScaleSet = vecScaleSetAVX2
	vecDot = vecDotAVX2
	syrkRow = syrkRowAVX2
	vecAxpyMulSet = vecAxpyMulSetAVX2
	vecScaleMulSet = vecScaleMulSetAVX2
	vecMulAxpy = vecMulAxpyAVX2
	vecMulScaleSet = vecMulScaleSetAVX2
	gatherAxpy = gatherAxpyAVX2
	kernelISA = "avx2+fma"
}
