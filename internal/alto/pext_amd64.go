//go:build amd64 && !purego

package alto

import (
	"repro/internal/cpu"
	"repro/internal/sptensor"
)

// The kernels only load and store through their slice arguments and keep
// no pointer past return, hence //go:noescape: without it every slice
// passed counts as escaping, and callers' stack buffers move to the heap.

// nativeBitExtract gates the BMI2 kernels; SHLX rides on the same feature
// bit as PDEP/PEXT, so one flag covers all three instructions.
var nativeBitExtract = cpu.HasBMI2

// pextAll extracts every mode's index from the (lo, hi) key into cur
// (len = order), returning a change mask relative to cur's previous
// contents: bit min(m, 31) is set for every mode whose value changed —
// the same folding the byte-table Step reports. masks is the Encoding's
// 3-words-per-mode pext mask table. Implemented in pext_amd64.s.
//
//go:noescape
func pextAll(lo, hi uint64, masks []uint64, cur []uint64) uint32

// pext3Tile delinearizes a tile of narrow (single-word) order-3 keys with
// one pext per mode per key: outT/outA/outB receive the indices extracted
// under the three masks for every key. Lengths of the out slices must be
// at least len(keys). Implemented in pext_amd64.s.
//
//go:noescape
func pext3Tile(keys []uint64, mT, mA, mB uint64, outT, outA, outB []uint32)

// pextColumn extracts one mode's index from every key of a tile: out[i] =
// pext(lo[i], masks[0]) | pext(hi[i], masks[1]) << masks[2], where masks
// is the mode's pext mask triple. hi is empty when the mode has no bits in
// the high word (always, for narrow encodings); then out[i] =
// pext(lo[i], masks[0]). hi (when not empty) and out must hold at least
// len(lo) elements. Implemented in pext_amd64.s.
//
//go:noescape
func pextColumn(lo, hi []uint64, masks []uint64, out []sptensor.Index)

// pdepColumn deposits one mode's index of every nonzero of a tile into
// its key: lo[i] |= pdep(col[i], masks[0]) and, when hi is not empty,
// hi[i] |= pdep(col[i] >> masks[2], masks[1]), where masks is the mode's
// mask triple — the mirror of pextColumn. hi is empty when the mode has no
// bits in the high word. lo and hi (when not empty) must hold at least
// len(col) elements. Implemented in pext_amd64.s.
//
//go:noescape
func pdepColumn(col []sptensor.Index, masks []uint64, lo, hi []uint64)

// walk3Tile runs the lock-free order-3 MTTKRP walk (runRange3Tiles) over
// one tile: keys and vals are the tile's keys and values (equal lengths),
// and w carries the run state in and out. Needs BMI2, AVX2 and FMA.
// Implemented in pext_amd64.s.
//
//go:noescape
func walk3Tile(w *tileWalk, keys []uint64, vals []float64)
