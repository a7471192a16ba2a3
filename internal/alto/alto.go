package alto

import (
	"fmt"
	"math"

	"repro/internal/sptensor"
)

// Tensor is a sparse tensor in ALTO linearized form: one (or, for wide
// encodings, two) machine word(s) of interleaved coordinates per nonzero,
// sorted ascending by linearized index. A single Tensor serves every
// mode's MTTKRP — the format is mode-agnostic by construction.
type Tensor struct {
	Enc *Encoding
	// Lo holds the low 64 bits of each nonzero's linearized index.
	Lo []uint64
	// Hi holds the high bits when Enc.Wide(); nil otherwise.
	Hi []uint64
	// Vals holds the nonzero values in linearized order.
	Vals []float64

	// runs[m] counts the maximal runs of equal mode-m index in the
	// linearized order — the fiber-reuse statistic driving the per-mode
	// conflict decision (one output-row flush happens per run, not per
	// nonzero).
	runs []int64

	// blockMin[b*order+m] and blockMax[b*order+m] bound the mode-m
	// indices of nonzeros [b·delinTile, (b+1)·delinTile), recorded by the
	// computeRuns walk so Window reads whole blocks without delinearizing.
	blockMin, blockMax []sptensor.Index
}

// FromCOO linearizes a coordinate tensor and sorts its nonzeros by
// linearized index with sptensor.SortPerm, a stable LSD radix sort, so
// nonzeros with equal keys keep their input order. Narrow keys are
// linearized next to an identity permutation and sorted carrying it; wide
// keys sort the permutation by Lo and then by Hi, reading both through it.
// The values (and wide keys) are then gathered through the permutation.
// The input is not modified. Fails when the dimensions are not encodable
// (see NewEncoding) or the tensor holds more than sptensor.MaxNNZ
// nonzeros.
func FromCOO(t *sptensor.Tensor) (*Tensor, error) {
	enc, err := NewEncoding(t.Dims)
	if err != nil {
		return nil, err
	}
	nnz := t.NNZ()
	if nnz > sptensor.MaxNNZ {
		return nil, fmt.Errorf("alto: %d nonzeros exceed the %d a sort permutation indexes", nnz, sptensor.MaxNNZ)
	}
	at := &Tensor{Enc: enc, Lo: make([]uint64, nnz), Vals: make([]float64, nnz)}
	var hi []uint64
	if enc.Wide() {
		hi = make([]uint64, nnz)
	}
	perm := make([]int32, nnz)
	coord := make([]sptensor.Index, t.NModes())
	for x := 0; x < nnz; x++ {
		for m := range coord {
			coord[m] = t.Inds[m][x]
		}
		l, h := enc.Linearize(coord)
		at.Lo[x] = l
		if hi != nil {
			hi[x] = h
		}
		perm[x] = int32(x)
	}
	buf := make([]int32, nnz)
	if hi == nil {
		sptensor.SortPerm(perm, buf, at.Lo, make([]uint64, nnz))
	} else {
		lo := at.Lo
		sptensor.SortPerm(perm, buf, lo, nil)
		sptensor.SortPerm(perm, buf, hi, nil)
		at.Lo, at.Hi = make([]uint64, nnz), make([]uint64, nnz)
		for i, x := range perm {
			at.Lo[i], at.Hi[i] = lo[x], hi[x]
		}
	}
	for i, x := range perm {
		at.Vals[i] = t.Vals[x]
	}
	at.computeRuns()
	return at, nil
}

// delinTile is the batch size build-time and kernel walks delinearize at
// once: big enough to amortize the per-tile setup, small enough that the
// per-mode index columns of one tile stay L1/L2-resident.
const delinTile = 1024

// computeRuns counts, per mode, the maximal runs of equal index in the
// linearized order, walking the nonzeros through the batched byte-table
// delinearization. The same walk records each delinTile block's per-mode
// index bounds for Window.
func (at *Tensor) computeRuns() {
	order := at.Order()
	at.runs = make([]int64, order)
	nnz := at.NNZ()
	if nnz == 0 {
		return
	}
	blocks := (nnz + delinTile - 1) / delinTile
	at.blockMin = make([]sptensor.Index, blocks*order)
	at.blockMax = make([]sptensor.Index, blocks*order)
	cols := make([][]sptensor.Index, order)
	for m := range cols {
		cols[m] = make([]sptensor.Index, delinTile)
	}
	prev := make([]sptensor.Index, order)
	for tile := 0; tile < nnz; tile += delinTile {
		end := min(tile+delinTile, nnz)
		at.Enc.DelinearizeRange(at.Lo, at.Hi, tile, end, cols, nil)
		n := end - tile
		b := tile / delinTile * order
		for m := 0; m < order; m++ {
			col := cols[m][:n]
			if tile == 0 { // the first nonzero opens every mode's first run
				prev[m] = col[0]
				at.runs[m] = 1
			}
			p, lo, hi := prev[m], col[0], col[0]
			runs := int64(0)
			for _, v := range col { // compiles to conditional moves
				if v != p {
					runs++
				}
				p = v
				lo, hi = min(lo, v), max(hi, v)
			}
			at.runs[m] += runs
			prev[m] = p
			at.blockMin[b+m], at.blockMax[b+m] = lo, hi
		}
	}
}

// Window sets lo[m], hi[m] to the half-open range of mode-m indices that
// nonzeros [begin, end) touch, for every mode (lo = hi = 0 for an empty
// range). Whole delinTile blocks read the bounds computeRuns recorded;
// only the partial blocks at either edge are delinearized.
func (at *Tensor) Window(begin, end int, lo, hi []int) {
	order := at.Order()
	for m := 0; m < order; m++ {
		lo[m], hi[m] = 0, 0
		if begin < end {
			lo[m] = math.MaxInt
		}
	}
	var cols [][]sptensor.Index // edge-block scratch, made on first use
	for x := begin; x < end; {
		b := x / delinTile
		next := min((b+1)*delinTile, at.NNZ())
		if x == b*delinTile && next <= end {
			for m := 0; m < order; m++ {
				lo[m] = min(lo[m], int(at.blockMin[b*order+m]))
				hi[m] = max(hi[m], int(at.blockMax[b*order+m])+1)
			}
			x = next
			continue
		}
		next = min(next, end)
		if cols == nil {
			cols = make([][]sptensor.Index, order)
			for m := range cols {
				cols[m] = make([]sptensor.Index, delinTile)
			}
		}
		at.Enc.DelinearizeRange(at.Lo, at.Hi, x, next, cols, nil)
		for m := 0; m < order; m++ {
			for _, v := range cols[m][:next-x] {
				lo[m] = min(lo[m], int(v))
				hi[m] = max(hi[m], int(v)+1)
			}
		}
		x = next
	}
}

// at delinearizes nonzero x into dst.
func (at *Tensor) at(x int, dst []sptensor.Index) {
	var hi uint64
	if at.Hi != nil {
		hi = at.Hi[x]
	}
	at.Enc.Delinearize(at.Lo[x], hi, dst)
}

// Order reports the tensor order.
func (at *Tensor) Order() int { return len(at.Enc.Dims) }

// NNZ reports the nonzero count.
func (at *Tensor) NNZ() int { return len(at.Vals) }

// Runs reports the fiber-run count of mode m in the linearized order.
func (at *Tensor) Runs(m int) int64 { return at.runs[m] }

// Reuse reports mode m's fiber reuse: nonzeros per run (≥ 1). High reuse
// means consecutive nonzeros mostly share the mode-m index, so an MTTKRP
// flushes (and locks) the output row once per run instead of per nonzero.
func (at *Tensor) Reuse(m int) float64 {
	if at.runs[m] == 0 {
		return 1
	}
	return float64(at.NNZ()) / float64(at.runs[m])
}

// MemoryBytes estimates the in-memory footprint: linearized words plus
// values. This is the format's headline advantage over multi-CSF sets —
// one representation regardless of how many modes need fast MTTKRPs.
func (at *Tensor) MemoryBytes() int64 {
	words := int64(len(at.Lo))
	if at.Hi != nil {
		words += int64(len(at.Hi))
	}
	return words*8 + int64(len(at.Vals))*8
}

// ForEachNonzero streams every nonzero with its full coordinate and value
// in linearized order, delinearizing one index word at a time. The coord
// slice is reused across calls; fn must copy what it keeps. This is the
// nonzero access path the sampled (ARLS) solver builds its fiber index
// from.
func (at *Tensor) ForEachNonzero(fn func(coord []sptensor.Index, val float64)) {
	order := at.Order()
	nnz := at.NNZ()
	coord := make([]sptensor.Index, order)
	cols := make([][]sptensor.Index, order)
	for m := range cols {
		cols[m] = make([]sptensor.Index, delinTile)
	}
	for tile := 0; tile < nnz; tile += delinTile {
		end := tile + delinTile
		if end > nnz {
			end = nnz
		}
		at.Enc.DelinearizeRange(at.Lo, at.Hi, tile, end, cols, nil)
		for i := 0; i < end-tile; i++ {
			for m := 0; m < order; m++ {
				coord[m] = cols[m][i]
			}
			fn(coord, at.Vals[tile+i])
		}
	}
}

// ToCOO reconstructs the coordinate tensor (in linearized order). Tests
// use it to prove linearization loses nothing.
func (at *Tensor) ToCOO() *sptensor.Tensor {
	t := sptensor.New(at.Enc.Dims, at.NNZ())
	copy(t.Vals, at.Vals)
	coord := make([]sptensor.Index, at.Order())
	for x := 0; x < at.NNZ(); x++ {
		at.at(x, coord)
		for m := range coord {
			t.Inds[m][x] = coord[m]
		}
	}
	return t
}
