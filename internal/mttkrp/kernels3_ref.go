package mttkrp

import (
	"repro/internal/csf"
	"repro/internal/dense"
	"repro/internal/locks"
)

// The "reference" kernels: hand-specialized 3rd-order CSF MTTKRP over flat
// row-major arrays with direct offset arithmetic — the C/OpenMP SPLATT
// analogue the port is measured against. No accessor or sink indirection:
// every row access is raw offset math, every conflict policy gets its own
// loop body, exactly as mttkrp.c specializes them. The rank loops go
// through the dispatched dense.Vec* kernels (AVX2/FMA where the CPU has
// them, the unrolled Go bodies otherwise), as SPLATT's C compiles its rank
// loops to vector code; the port kernels call the same table, so the
// C-vs-Chapel figures compare the abstraction layer alone.

// root3Ref computes the root-mode MTTKRP over slices [begin, end).
func root3Ref(c *csf.CSF, mid, leaf, out *dense.Matrix, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	mdat, ldat, odat := mid.Data, leaf.Data, out.Data
	r := out.Cols
	for s := begin; s < end; s++ {
		orowOff := int(fidsS[s]) * r
		orow := odat[orowOff : orowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				lrowOff := int(fidsN[x]) * r
				dense.VecAxpy(acc, ldat[lrowOff:lrowOff+r], vals[x])
			}
			mrowOff := int(fidsF[f]) * r
			dense.VecMulAdd(orow, acc, mdat[mrowOff:mrowOff+r])
		}
	}
}

// internal3RefDirect is the internal-mode kernel with unsynchronized
// writes (serial runs).
func internal3RefDirect(c *csf.CSF, root, leaf, out *dense.Matrix, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, ldat, odat := root.Data, leaf.Data, out.Data
	r := out.Cols
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				lrowOff := int(fidsN[x]) * r
				dense.VecAxpy(acc, ldat[lrowOff:lrowOff+r], vals[x])
			}
			orowOff := int(fidsF[f]) * r
			dense.VecMulAdd(odat[orowOff:orowOff+r], acc, rrow)
		}
	}
}

// internal3RefLock is the internal-mode kernel guarding each fiber update
// with the mutex pool.
func internal3RefLock(c *csf.CSF, root, leaf, out *dense.Matrix, pool locks.Pool, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, ldat, odat := root.Data, leaf.Data, out.Data
	r := out.Cols
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				lrowOff := int(fidsN[x]) * r
				dense.VecAxpy(acc, ldat[lrowOff:lrowOff+r], vals[x])
			}
			row := int(fidsF[f])
			orow := odat[row*r : row*r+r]
			pool.Lock(row)
			dense.VecMulAdd(orow, acc, rrow)
			pool.Unlock(row)
		}
	}
}

// internal3RefPriv is the internal-mode kernel accumulating into a
// task-private buffer (SPLATT's no-lock path).
func internal3RefPriv(c *csf.CSF, root, leaf *dense.Matrix, buf []float64, rank int, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, ldat := root.Data, leaf.Data
	r := rank
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				lrowOff := int(fidsN[x]) * r
				dense.VecAxpy(acc, ldat[lrowOff:lrowOff+r], vals[x])
			}
			orowOff := int(fidsF[f]) * r
			dense.VecMulAdd(buf[orowOff:orowOff+r], acc, rrow)
		}
	}
}

// leaf3RefDirect is the leaf-mode kernel with unsynchronized writes.
func leaf3RefDirect(c *csf.CSF, root, mid, out *dense.Matrix, fprod []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, mdat, odat := root.Data, mid.Data, out.Data
	r := out.Cols
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			mrowOff := int(fidsF[f]) * r
			dense.VecMulSet(fprod, rrow, mdat[mrowOff:mrowOff+r])
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				orowOff := int(fidsN[x]) * r
				dense.VecAxpy(odat[orowOff:orowOff+r], fprod, vals[x])
			}
		}
	}
}

// leaf3RefLock is the leaf-mode kernel guarding each nonzero update with
// the mutex pool.
func leaf3RefLock(c *csf.CSF, root, mid, out *dense.Matrix, pool locks.Pool, fprod []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, mdat, odat := root.Data, mid.Data, out.Data
	r := out.Cols
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			mrowOff := int(fidsF[f]) * r
			dense.VecMulSet(fprod, rrow, mdat[mrowOff:mrowOff+r])
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				row := int(fidsN[x])
				orow := odat[row*r : row*r+r]
				pool.Lock(row)
				dense.VecAxpy(orow, fprod, vals[x])
				pool.Unlock(row)
			}
		}
	}
}

// leaf3RefPriv is the leaf-mode kernel accumulating into a task-private
// buffer.
func leaf3RefPriv(c *csf.CSF, root, mid *dense.Matrix, buf []float64, rank int, fprod []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	rdat, mdat := root.Data, mid.Data
	r := rank
	for s := begin; s < end; s++ {
		rrowOff := int(fidsS[s]) * r
		rrow := rdat[rrowOff : rrowOff+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			mrowOff := int(fidsF[f]) * r
			dense.VecMulSet(fprod, rrow, mdat[mrowOff:mrowOff+r])
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				orowOff := int(fidsN[x]) * r
				dense.VecAxpy(buf[orowOff:orowOff+r], fprod, vals[x])
			}
		}
	}
}
