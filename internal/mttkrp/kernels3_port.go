package mttkrp

import (
	"repro/internal/csf"
	"repro/internal/dense"
)

// The "port" kernels: 3rd-order CSF MTTKRP written through the accessor /
// rowSink abstraction layer, the analogue of the paper's Chapel code. Each
// (accessor, sink) pair instantiates a specialized kernel, reproducing the
// Figures 2-3 access-mode study without duplicating kernel bodies.
//
// Kernel shapes (c.ModeOrder = [root, mid, leaf]):
//
//	root:     out[i] += Σ_f A_mid[j_f] ∘ (Σ_x v_x · A_leaf[k_x])
//	internal: out[j_f] += A_root[i] ∘ (Σ_x v_x · A_leaf[k_x])
//	leaf:     out[k_x] += v_x · (A_root[i] ∘ A_mid[j_f])
//
// Root-mode outputs are partitioned by slice, so writes are conflict-free
// and go directly to the output matrix; internal/leaf writes scatter and go
// through the sink.

// root3Port computes the root-mode MTTKRP over slices [begin, end).
// acc is an R-length scratch vector owned by the calling task.
func root3Port[A accessor](c *csf.CSF, mid, leaf A, out *dense.Matrix, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	r := out.Cols
	for s := begin; s < end; s++ {
		orow := out.Data[int(fidsS[s])*r : int(fidsS[s])*r+r]
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			lo, hi := fptrF[f], fptrF[f+1]
			leaf.gather(acc, fidsN[lo:hi], vals[lo:hi])
			dense.VecMulAdd(orow, acc, mid.row(fidsF[f]))
		}
	}
}

// internal3Port computes the internal-mode MTTKRP over slices [begin, end),
// scattering fiber-level updates through the sink.
func internal3Port[A accessor, S rowSink](c *csf.CSF, root, leaf A, sink S, acc []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	for s := begin; s < end; s++ {
		rrow := root.row(fidsS[s])
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecZero(acc)
			lo, hi := fptrF[f], fptrF[f+1]
			leaf.gather(acc, fidsN[lo:hi], vals[lo:hi])
			dense.VecMul(acc, rrow)
			sink.accum(fidsF[f], acc)
		}
	}
}

// leaf3Port computes the leaf-mode MTTKRP over slices [begin, end),
// scattering per-nonzero updates through the sink. fprod and tmp are
// R-length scratch vectors owned by the calling task.
func leaf3Port[A accessor, S rowSink](c *csf.CSF, root, mid A, sink S, fprod, tmp []float64, begin, end int) {
	fptrS, fptrF := c.Fptr[0], c.Fptr[1]
	fidsS, fidsF, fidsN := c.Fids[0], c.Fids[1], c.Fids[2]
	vals := c.Vals
	for s := begin; s < end; s++ {
		rrow := root.row(fidsS[s])
		for f := fptrS[s]; f < fptrS[s+1]; f++ {
			dense.VecMulSet(fprod, rrow, mid.row(fidsF[f]))
			for x := fptrF[f]; x < fptrF[f+1]; x++ {
				dense.VecScaleSet(tmp, fprod, vals[x])
				sink.accum(fidsN[x], tmp)
			}
		}
	}
}
