package alto

import (
	"fmt"
	"math"

	"repro/internal/parallel"
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
// team (nil = serial) splits the linearization, every sort pass, the
// gathers and computeRuns; the result is bitwise the same at every team
// size. The input is not modified. Fails when the dimensions are not
// encodable (see NewEncoding) or the tensor holds more than
// sptensor.MaxNNZ nonzeros.
func FromCOO(t *sptensor.Tensor, team *parallel.Team) (*Tensor, error) {
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
	parallel.ForBlocks(team, nnz, func(_, begin, end int) {
		enc.linearizeRange(t.Inds, begin, end, at.Lo, hi)
		for x := begin; x < end; x++ {
			perm[x] = int32(x)
		}
	})
	buf := make([]int32, nnz)
	if hi == nil {
		sptensor.SortPerm(perm, buf, at.Lo, make([]uint64, nnz), team)
	} else {
		lo := at.Lo
		sptensor.SortPerm(perm, buf, lo, nil, team)
		sptensor.SortPerm(perm, buf, hi, nil, team)
		at.Lo, at.Hi = make([]uint64, nnz), make([]uint64, nnz)
		parallel.ForBlocks(team, nnz, func(_, begin, end int) {
			for i, x := range perm[begin:end] {
				at.Lo[begin+i], at.Hi[begin+i] = lo[x], hi[x]
			}
		})
	}
	parallel.ForBlocks(team, nnz, func(_, begin, end int) {
		for i, x := range perm[begin:end] {
			at.Vals[begin+i] = t.Vals[x]
		}
	})
	at.computeRuns(team)
	return at, nil
}

// delinTile is the batch size build-time and kernel walks delinearize at
// once: big enough to amortize the per-tile setup, small enough that the
// per-mode index columns of one tile stay L1/L2-resident.
const delinTile = 1024

// computeRuns counts, per mode, the maximal runs of equal index in the
// linearized order, delinearizing a tile at a time. The same walk records
// each delinTile block's per-mode index bounds for Window. team (nil =
// serial) splits the blocks into contiguous whole-block ranges: a task
// counts a run wherever a nonzero's index differs from its predecessor's,
// comparing its first nonzero with the previous block's last, and the
// per-task counts are summed.
func (at *Tensor) computeRuns(team *parallel.Team) {
	order := at.Order()
	at.runs = make([]int64, order)
	nnz := at.NNZ()
	if nnz == 0 {
		return
	}
	blocks := (nnz + delinTile - 1) / delinTile
	at.blockMin = make([]sptensor.Index, blocks*order)
	at.blockMax = make([]sptensor.Index, blocks*order)
	taskRuns := make([][]int64, team.N())
	parallel.ForBlocks(team, blocks, func(tid, bBegin, bEnd int) {
		if bBegin == bEnd {
			return
		}
		cols := make([][]sptensor.Index, order)
		for m := range cols {
			cols[m] = make([]sptensor.Index, delinTile)
		}
		runs := make([]int64, order)
		prev := make([]sptensor.Index, order)
		if first := bBegin * delinTile; first > 0 {
			at.Enc.DelinearizeRange(at.Lo, at.Hi, first-1, first, cols) // the previous block's last nonzero
			for m := range prev {
				prev[m] = cols[m][0]
			}
		} else {
			for m := range prev {
				prev[m] = -1 // no index: the first nonzero opens every mode's first run
			}
		}
		for b := bBegin; b < bEnd; b++ {
			tile := b * delinTile
			end := min(tile+delinTile, nnz)
			at.Enc.DelinearizeRange(at.Lo, at.Hi, tile, end, cols)
			n := end - tile
			for m := 0; m < order; m++ {
				col := cols[m][:n]
				p, lo, hi := prev[m], col[0], col[0]
				r := int64(0)
				for _, v := range col { // compiles to conditional moves
					if v != p {
						r++
					}
					p = v
					lo, hi = min(lo, v), max(hi, v)
				}
				runs[m] += r
				prev[m] = p
				at.blockMin[b*order+m], at.blockMax[b*order+m] = lo, hi
			}
		}
		taskRuns[tid] = runs
	})
	for _, runs := range taskRuns {
		for m, r := range runs {
			at.runs[m] += r
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
		at.Enc.DelinearizeRange(at.Lo, at.Hi, x, next, cols)
		for m := 0; m < order; m++ {
			for _, v := range cols[m][:next-x] {
				lo[m] = min(lo[m], int(v))
				hi[m] = max(hi[m], int(v)+1)
			}
		}
		x = next
	}
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

// Nonzeros writes every nonzero, in linearized order, into columns the
// caller allocated: coords[m][x] receives nonzero x's mode-m index and
// vals[x] its value (each column holds NNZ entries). team (nil = serial)
// splits the delinTile tiles into contiguous ranges, and each task
// delinearizes its range straight into the columns. This is the nonzero
// access path the sampled (ARLS) solver copies its nonzeros through.
func (at *Tensor) Nonzeros(coords [][]sptensor.Index, vals []float64, team *parallel.Team) {
	nnz := at.NNZ()
	blocks := (nnz + delinTile - 1) / delinTile
	parallel.ForBlocks(team, blocks, func(_, bBegin, bEnd int) {
		begin, end := bBegin*delinTile, min(bEnd*delinTile, nnz)
		if begin >= end {
			return
		}
		out := make([][]sptensor.Index, len(coords))
		for m, col := range coords {
			out[m] = col[begin:end]
		}
		at.Enc.DelinearizeRange(at.Lo, at.Hi, begin, end, out)
		copy(vals[begin:end], at.Vals[begin:end])
	})
}

// ToCOO reconstructs the coordinate tensor (in linearized order). Tests
// use it to prove linearization loses nothing.
func (at *Tensor) ToCOO() *sptensor.Tensor {
	t := sptensor.New(at.Enc.Dims, at.NNZ())
	at.Nonzeros(t.Inds, t.Vals, nil)
	return t
}
