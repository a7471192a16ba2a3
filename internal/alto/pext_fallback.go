//go:build !amd64 || purego

package alto

import "repro/internal/sptensor"

// No BMI2 on this build: the Encoding methods never take the native
// branch (native is always false), so these stubs are unreachable. They
// exist to keep the portable build compiling and to fail loudly if the
// dispatch invariant is ever broken.
var nativeBitExtract = false

func pextAll(lo, hi uint64, masks []uint64, cur []uint64) uint32 {
	panic("alto: pextAll called without BMI2")
}

func pext3Tile(keys []uint64, mT, mA, mB uint64, outT, outA, outB []uint32) {
	panic("alto: pext3Tile called without BMI2")
}

func pextColumn(lo, hi []uint64, masks []uint64, out []sptensor.Index) {
	panic("alto: pextColumn called without BMI2")
}

func pdepColumn(col []sptensor.Index, masks []uint64, lo, hi []uint64) {
	panic("alto: pdepColumn called without BMI2")
}

func walk3Tile(w *tileWalk, keys []uint64, vals []float64) {
	panic("alto: walk3Tile called without BMI2")
}
