// Package alto implements an ALTO-style adaptive linearized tensor format
// (Laukemann et al., "Accelerating Sparse Tensor Decomposition Using
// Adaptive Linearized Representation", arXiv:2403.06348) as an alternative
// storage backend to CSF.
//
// Instead of a per-root-mode fiber tree, every nonzero's coordinates are
// packed into a single linearized index by interleaving the bits of the
// per-mode indices (each mode gets a bit mask sized from its dimension's
// bit-width). The nonzero array is sorted once by that linearized index and
// serves *every* mode's MTTKRP — no per-mode tensor copies, no mode-order
// specialization — while the interleaving keeps nonzeros that are close in
// any coordinate close in memory. Conflict handling reuses the lock-pool /
// privatized-reduction machinery of internal/mttkrp, with the per-mode
// decision driven by fiber-reuse statistics measured on the linearized
// order (see Operator).
package alto

import (
	"fmt"
	"math/bits"

	"repro/internal/sptensor"
)

// MaxBits is the widest supported linearized index: two 64-bit words. A
// tensor whose summed dimension bit-widths exceed this cannot be encoded
// (NewEncoding returns an error; the auto format heuristic falls back to
// CSF).
const MaxBits = 128

// segment is a maximal run of one mode's bits that lands contiguously in
// one word of the linearized index. Linearization and extraction move whole
// runs with two shifts and a mask instead of single bits.
type segment struct {
	word     int    // 0 = low word, 1 = high word
	dstShift uint   // run start within the word
	srcShift uint   // run start within the mode's index
	mask     uint64 // run mask in the index domain: ((1<<len)-1) << srcShift
}

// Encoding maps tensor coordinates to/from linearized indices for one set
// of mode lengths.
type Encoding struct {
	// Dims are the mode lengths the encoding was built for.
	Dims []int
	// Bits[m] is the bit-width of mode m (bits.Len(dims[m]-1); 0 for
	// unit-length modes, which carry no information).
	Bits []int
	// TotalBits is Σ Bits, the linearized index width (≤ MaxBits).
	TotalBits int

	segs [][]segment // per mode

	// Byte-granular extraction tables — the software `pext` emulation. For
	// every 8-bit chunk b of the linearized index, chunkDeltas[b] is a
	// 256-row table (row stride = order) mapping the chunk's value to the
	// bits it contributes to EVERY mode's index, pre-shifted into each
	// mode's index domain. Full extraction ORs one row per chunk; and —
	// because chunk contributions are disjoint bit sets — an incremental
	// re-extraction between two keys XORs out the old byte's row and XORs
	// in the new one, touching only the bytes their XOR flags as changed.
	// This is what DelinearizeRange and the MTTKRP walker exploit between
	// consecutive sorted keys, which share their high bytes almost always.
	chunkDeltas [][]uint64 // [chunk][256*order] contribution rows

	// Native pdep/pext masks, 3 words per mode: the low-word extraction
	// mask, the high-word extraction mask, and the shift placing the
	// high-word bits above the low-word ones (= number of mode bits in the
	// low word). Mode m's index is
	//   pext(lo, masks[3m]) | pext(hi, masks[3m+1]) << masks[3m+2],
	// which is what the BMI2 kernels execute directly; linearization is the
	// mirrored pdep. Always built (they also serve as the ground truth for
	// the parity fuzz); used on the hot path only when native is true.
	pextMasks []uint64
	// native selects the BMI2 assembly for ExtractAll/Step/linearizeRange/
	// DelinearizeRange/extract3Tile and the operator's walk3Tile. Set from
	// NativeExtract() at construction, overridable per encoding in tests.
	native bool
}

// NativeExtract reports whether the BMI2 pdep/pext kernels are live on
// this build (amd64 with BMI2, not purego, not disabled by env). The auto
// format heuristic consults this: only with the pext tile walker does it
// flip regular 3rd-order tensors to the half-memory format.
func NativeExtract() bool { return nativeBitExtract }

// NewEncoding builds the bit-interleaved encoding for the given mode
// lengths. Bit positions are assigned round-robin across modes from the
// least-significant end (bit b of every mode that still has a bit b, in
// mode order), so all modes share the low — fastest-varying — positions
// and the sorted nonzero order exhibits locality in every mode at once.
func NewEncoding(dims []int) (*Encoding, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("alto: no modes")
	}
	e := &Encoding{
		Dims: append([]int(nil), dims...),
		Bits: make([]int, len(dims)),
		segs: make([][]segment, len(dims)),
	}
	maxBits := 0
	for m, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("alto: mode %d has dimension %d", m, d)
		}
		e.Bits[m] = bits.Len(uint(d - 1))
		e.TotalBits += e.Bits[m]
		if e.Bits[m] > maxBits {
			maxBits = e.Bits[m]
		}
	}
	if e.TotalBits > MaxBits {
		return nil, fmt.Errorf("alto: %d index bits exceed the %d-bit linearized limit", e.TotalBits, MaxBits)
	}
	// Assign global bit positions round-robin, then compress each mode's
	// position list into contiguous segments.
	pos := make([][]int, len(dims)) // pos[m][b] = global position of mode m's bit b
	p := 0
	for b := 0; b < maxBits; b++ {
		for m := range dims {
			if b < e.Bits[m] {
				pos[m] = append(pos[m], p)
				p++
			}
		}
	}
	for m := range dims {
		e.segs[m] = compress(pos[m])
	}
	e.buildByteTables(pos)
	e.buildPextMasks(pos)
	e.native = nativeBitExtract
	return e, nil
}

// buildPextMasks derives the per-mode pdep/pext mask triples from the
// global-position lists.
func (e *Encoding) buildPextMasks(pos [][]int) {
	e.pextMasks = make([]uint64, 3*len(pos))
	for m := range pos {
		var loMask, hiMask, loBits uint64
		for _, p := range pos[m] {
			if p < 64 {
				loMask |= uint64(1) << uint(p)
				loBits++
			} else {
				hiMask |= uint64(1) << uint(p-64)
			}
		}
		e.pextMasks[3*m] = loMask
		e.pextMasks[3*m+1] = hiMask
		e.pextMasks[3*m+2] = loBits
	}
}

// buildByteTables precomputes the per-byte extraction tables from the
// global-position lists (pos[m][b] = linearized position of mode m's bit b).
func (e *Encoding) buildByteTables(pos [][]int) {
	order := len(e.Dims)
	chunks := (e.TotalBits + 7) / 8
	if chunks == 0 {
		chunks = 1
	}
	e.chunkDeltas = make([][]uint64, chunks)
	for b := range e.chunkDeltas {
		e.chunkDeltas[b] = make([]uint64, 256*order)
	}
	for m := range pos {
		for bit, p := range pos[m] {
			chunk := p / 8
			bitInChunk := uint(p % 8)
			contrib := uint64(1) << uint(bit)
			deltas := e.chunkDeltas[chunk]
			for v := 0; v < 256; v++ {
				if v&(1<<bitInChunk) != 0 {
					deltas[v*order+m] |= contrib
				}
			}
		}
	}
}

// compress turns a sorted global-position list into maximal contiguous
// segments (consecutive source bits landing on consecutive destinations in
// one word).
func compress(pos []int) []segment {
	var out []segment
	for b := 0; b < len(pos); {
		start := b
		word := pos[b] / 64
		for b+1 < len(pos) && pos[b+1] == pos[b]+1 && pos[b+1]/64 == word {
			b++
		}
		n := b - start + 1
		out = append(out, segment{
			word:     word,
			dstShift: uint(pos[start] % 64),
			srcShift: uint(start),
			mask:     ((uint64(1) << n) - 1) << uint(start),
		})
		b++
	}
	return out
}

// Wide reports whether linearized indices need the second word.
func (e *Encoding) Wide() bool { return e.TotalBits > 64 }

// Linearize packs one coordinate tuple into a (lo, hi) linearized index
// by the portable segment walk; FromCOO linearizes whole tiles with
// linearizeRange.
func (e *Encoding) Linearize(coord []sptensor.Index) (lo, hi uint64) {
	return e.linearizeSegs(coord)
}

// linearizeRange writes the keys of nonzeros [begin, end) of the
// coordinate columns inds into lo[begin:end] and, for wide encodings,
// hi[begin:end] (nil otherwise); both must be zero there. Native builds
// deposit a delinTile of one mode's indices per pdepColumn call, passing
// the high words only for modes with bits there. The portable body walks
// each key's segments (linearizeSegs).
func (e *Encoding) linearizeRange(inds [][]sptensor.Index, begin, end int, lo, hi []uint64) {
	if e.native {
		for tile := begin; tile < end; tile += delinTile {
			tileEnd := min(tile+delinTile, end)
			for m, col := range inds {
				var hiKeys []uint64
				if e.pextMasks[3*m+1] != 0 {
					hiKeys = hi[tile:tileEnd]
				}
				pdepColumn(col[tile:tileEnd], e.pextMasks[3*m:3*m+3], lo[tile:tileEnd], hiKeys)
			}
		}
		return
	}
	coord := make([]sptensor.Index, len(inds))
	for x := begin; x < end; x++ {
		for m, col := range inds {
			coord[m] = col[x]
		}
		l, h := e.linearizeSegs(coord)
		lo[x] = l
		if hi != nil {
			hi[x] = h
		}
	}
}

// linearizeSegs is the portable segment-walk linearization.
func (e *Encoding) linearizeSegs(coord []sptensor.Index) (lo, hi uint64) {
	for m, segs := range e.segs {
		idx := uint64(coord[m])
		for _, s := range segs {
			run := (idx & s.mask) >> s.srcShift
			if s.word == 0 {
				lo |= run << s.dstShift
			} else {
				hi |= run << s.dstShift
			}
		}
	}
	return lo, hi
}

// Extract recovers mode m's index from a linearized (lo, hi) pair — the
// delinearization accessor of the MTTKRP inner loop.
func (e *Encoding) Extract(lo, hi uint64, m int) sptensor.Index {
	var idx uint64
	for _, s := range e.segs[m] {
		w := lo
		if s.word == 1 {
			w = hi
		}
		idx |= (w >> s.dstShift << s.srcShift) & s.mask
	}
	return sptensor.Index(idx)
}

// Delinearize recovers the full coordinate tuple into dst (len = order).
func (e *Encoding) Delinearize(lo, hi uint64, dst []sptensor.Index) {
	for m := range e.segs {
		dst[m] = e.Extract(lo, hi, m)
	}
}

// ExtractAll recovers the full coordinate tuple into cur (len = order) as
// raw uint64 indices — the walker-state initializer of the incremental
// paths. Native builds run one pext per (mode, word); the portable body
// does one chunk-row OR per byte of the key, covering every mode at once.
func (e *Encoding) ExtractAll(lo, hi uint64, cur []uint64) {
	if e.native {
		pextAll(lo, hi, e.pextMasks, cur)
		return
	}
	e.extractAllTables(lo, hi, cur)
}

// extractAllTables is the portable byte-table ExtractAll.
func (e *Encoding) extractAllTables(lo, hi uint64, cur []uint64) {
	order := len(e.Dims)
	for m := range cur {
		cur[m] = 0
	}
	for b := range e.chunkDeltas {
		var w uint64
		if b < 8 {
			w = lo >> (8 * uint(b))
		} else {
			w = hi >> (8 * uint(b-8))
		}
		row := e.chunkDeltas[b][int(byte(w))*order:]
		for m := 0; m < order; m++ {
			cur[m] |= row[m]
		}
	}
}

// Step advances the walker state cur (as produced by ExtractAll) from the
// key (prevLo, prevHi) to (lo, hi), patching only the modes with bits in a
// changed byte: each changed byte's old contribution row is XOR-ed out and
// the new one XOR-ed in (chunk contributions are disjoint bit sets, so
// replacement is exact). Returns the change mask (mode i ↦ bit min(i,31)):
// exact for modes 0..30, with every mode ≥ 31 folded onto bit 31.
// Consecutive sorted keys share their high bytes almost always, so the
// byte loop typically runs once or twice. Native builds re-extract every
// mode with pext and diff against cur instead — the full re-extraction is
// cheaper than the table walk there, and it never reads the prev key.
func (e *Encoding) Step(prevLo, prevHi, lo, hi uint64, cur []uint64) uint32 {
	if e.native {
		return pextAll(lo, hi, e.pextMasks, cur)
	}
	return e.stepTables(prevLo, prevHi, lo, hi, cur)
}

// stepTables is the portable incremental byte-table Step.
func (e *Encoding) stepTables(prevLo, prevHi, lo, hi uint64, cur []uint64) uint32 {
	var mask uint32
	if diff := lo ^ prevLo; diff != 0 {
		mask = e.patchWord(diff, prevLo, lo, 0, cur)
	}
	if diff := hi ^ prevHi; diff != 0 {
		mask |= e.patchWord(diff, prevHi, hi, 8, cur)
	}
	return mask
}

// patchWord applies the incremental byte-table updates for one word's
// changed bytes. The returned mask is exact for modes 0..30 (bit set iff
// the mode's index actually changed); modes ≥ 31 share bit 31.
func (e *Encoding) patchWord(diff, oldW, newW uint64, chunkBase int, cur []uint64) uint32 {
	order := len(cur)
	var mask uint32
	for diff != 0 {
		b := bits.TrailingZeros64(diff) >> 3
		shift := 8 * uint(b)
		chunk := chunkBase + b
		deltas := e.chunkDeltas[chunk]
		oldRow := deltas[int(byte(oldW>>shift))*order : int(byte(oldW>>shift))*order+order]
		newRow := deltas[int(byte(newW>>shift))*order : int(byte(newW>>shift))*order+order]
		for m := 0; m < order; m++ {
			if d := oldRow[m] ^ newRow[m]; d != 0 {
				cur[m] ^= d
				bit := m
				if bit > 31 {
					bit = 31
				}
				mask |= 1 << uint(bit)
			}
		}
		diff &^= 0xFF << shift
	}
	return mask
}

// DelinearizeRange batch-delinearizes nonzeros [begin, end): out[m][i-begin]
// receives mode m's index of nonzero i for every mode (out must hold order
// slices of at least end-begin elements). hi may be nil for narrow
// encodings.
//
// Native builds extract a delinTile of keys per assembly call, one pext
// per mode per key: pextColumn fills mode m's column from the low words
// and ORs in the high words' bits for wide encodings. The portable body
// extracts the first key through the byte tables and steps every later
// one incrementally (stepTables), touching only the changed key bytes.
func (e *Encoding) DelinearizeRange(lo, hi []uint64, begin, end int, out [][]sptensor.Index) {
	if begin >= end {
		return
	}
	order := len(e.Dims)
	if e.native {
		for tile := begin; tile < end; tile += delinTile {
			tileEnd := min(tile+delinTile, end)
			for m := 0; m < order; m++ {
				var hiKeys []uint64
				if e.pextMasks[3*m+1] != 0 {
					hiKeys = hi[tile:tileEnd]
				}
				pextColumn(lo[tile:tileEnd], hiKeys, e.pextMasks[3*m:3*m+3], out[m][tile-begin:tileEnd-begin])
			}
		}
		return
	}
	var curArr [32]uint64
	var cur []uint64
	if order <= len(curArr) {
		cur = curArr[:order]
	} else {
		cur = make([]uint64, order)
	}

	prevLo := lo[begin]
	var prevHi uint64
	if hi != nil {
		prevHi = hi[begin]
	}
	e.extractAllTables(prevLo, prevHi, cur)
	for m := 0; m < order; m++ {
		out[m][0] = sptensor.Index(cur[m])
	}
	for x := begin + 1; x < end; x++ {
		i := x - begin
		curLo := lo[x]
		var curHi uint64
		if hi != nil {
			curHi = hi[x]
		}
		e.stepTables(prevLo, prevHi, curLo, curHi, cur)
		for m := 0; m < order; m++ {
			out[m][i] = sptensor.Index(cur[m])
		}
		prevLo, prevHi = curLo, curHi
	}
}

// extract3Tile delinearizes a tile of narrow (single-word) order-3 keys
// into the columns the order-3 walkers read: outT, outA and outB receive
// modes t, a and b of every key, and must hold at least len(keys)
// elements. Native builds run pext3Tile, one pext per mode per key. The
// portable body extracts the first key through the byte tables and
// patches the three coordinates from each later key's changed bytes, as
// stepTables does: chunk contributions are disjoint bit sets, so XOR-ing
// out a byte's old row and in its new one is exact.
func (e *Encoding) extract3Tile(keys []uint64, t, a, b int, outT, outA, outB []uint32) {
	if len(keys) == 0 {
		return
	}
	if e.native {
		m := e.pextMasks
		pext3Tile(keys, m[3*t], m[3*a], m[3*b], outT, outA, outB)
		return
	}
	var cur [3]uint64
	e.extractAllTables(keys[0], 0, cur[:])
	curT, curA, curB := cur[t], cur[a], cur[b]
	prev := keys[0]
	for x, key := range keys {
		for diff := key ^ prev; diff != 0; {
			shift := uint(bits.TrailingZeros64(diff)) &^ 7
			deltas := e.chunkDeltas[shift/8]
			oldRow := deltas[int(byte(prev>>shift))*3:][:3]
			newRow := deltas[int(byte(key>>shift))*3:][:3]
			curT ^= oldRow[t] ^ newRow[t]
			curA ^= oldRow[a] ^ newRow[a]
			curB ^= oldRow[b] ^ newRow[b]
			diff &^= 0xFF << shift
		}
		outT[x], outA[x], outB[x] = uint32(curT), uint32(curA), uint32(curB)
		prev = key
	}
}
