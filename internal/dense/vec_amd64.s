//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA vector kernels. Layout conventions shared by every routine:
// the element count n comes from dst's (or x's, for VecDot) slice header;
// callers guarantee every other operand has at least n elements. Main
// loops process 8 float64s (two YMM registers) per iteration, then a
// 4-wide block, then a VEX-encoded scalar tail (no SSE/AVX transition
// penalties), and exit through VZEROUPPER.

// func vecAxpyAVX2(dst, x []float64, a float64)
TEXT ·vecAxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   axpy_tail4
axpy_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VFMADD213PD 32(DI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   axpy_loop8
axpy_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  axpy_tail1
	VMOVUPD (SI)(AX*8), Y1
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
axpy_tail1:
	CMPQ AX, CX
	JGE  axpy_done
axpy_s1:
	VMOVSD (SI)(AX*8), X1
	VFMADD213SD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   axpy_s1
axpy_done:
	VZEROUPPER
	RET

// func vecAddAVX2(dst, x []float64)
TEXT ·vecAddAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   add_tail4
add_loop8:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VADDPD (SI)(AX*8), Y1, Y1
	VADDPD 32(SI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   add_loop8
add_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  add_tail1
	VMOVUPD (DI)(AX*8), Y1
	VADDPD (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
add_tail1:
	CMPQ AX, CX
	JGE  add_done
add_s1:
	VMOVSD (DI)(AX*8), X1
	VADDSD (SI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   add_s1
add_done:
	VZEROUPPER
	RET

// func vecMulAVX2(dst, x []float64)
TEXT ·vecMulAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   mul_tail4
mul_loop8:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VMULPD (SI)(AX*8), Y1, Y1
	VMULPD 32(SI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   mul_loop8
mul_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  mul_tail1
	VMOVUPD (DI)(AX*8), Y1
	VMULPD (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
mul_tail1:
	CMPQ AX, CX
	JGE  mul_done
mul_s1:
	VMOVSD (DI)(AX*8), X1
	VMULSD (SI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   mul_s1
mul_done:
	VZEROUPPER
	RET

// func vecMulAddAVX2(dst, x, y []float64)
TEXT ·vecMulAddAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), BX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   muladd_tail4
muladd_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VFMADD231PD (BX)(AX*8), Y1, Y3
	VFMADD231PD 32(BX)(AX*8), Y2, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   muladd_loop8
muladd_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  muladd_tail1
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (DI)(AX*8), Y3
	VFMADD231PD (BX)(AX*8), Y1, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
muladd_tail1:
	CMPQ AX, CX
	JGE  muladd_done
muladd_s1:
	VMOVSD (SI)(AX*8), X1
	VMOVSD (DI)(AX*8), X3
	VFMADD231SD (BX)(AX*8), X1, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   muladd_s1
muladd_done:
	VZEROUPPER
	RET

// func vecMulSetAVX2(dst, x, y []float64)
TEXT ·vecMulSetAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), BX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   mulset_tail4
mulset_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD (BX)(AX*8), Y1, Y1
	VMULPD 32(BX)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   mulset_loop8
mulset_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  mulset_tail1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD (BX)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
mulset_tail1:
	CMPQ AX, CX
	JGE  mulset_done
mulset_s1:
	VMOVSD (SI)(AX*8), X1
	VMULSD (BX)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   mulset_s1
mulset_done:
	VZEROUPPER
	RET

// func vecScaleSetAVX2(dst, x []float64, a float64)
TEXT ·vecScaleSetAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   scaleset_tail4
scaleset_loop8:
	VMULPD (SI)(AX*8), Y0, Y1
	VMULPD 32(SI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   scaleset_loop8
scaleset_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  scaleset_tail1
	VMULPD (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
scaleset_tail1:
	CMPQ AX, CX
	JGE  scaleset_done
scaleset_s1:
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   scaleset_s1
scaleset_done:
	VZEROUPPER
	RET

// func vecDotAVX2(x, y []float64) float64
TEXT ·vecDotAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), BX
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   dot_tail4
dot_loop8:
	VMOVUPD (SI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VFMADD231PD (BX)(AX*8), Y3, Y1
	VFMADD231PD 32(BX)(AX*8), Y4, Y2
	ADDQ $8, AX
	CMPQ AX, DX
	JL   dot_loop8
dot_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  dot_reduce
	VMOVUPD (SI)(AX*8), Y3
	VFMADD231PD (BX)(AX*8), Y3, Y1
	ADDQ $4, AX
dot_reduce:
	// Fold the two 4-lane accumulators into one scalar in X1.
	VADDPD Y2, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VADDPD X2, X1, X1
	VPERMILPD $1, X1, X2
	VADDSD X2, X1, X1
	CMPQ AX, CX
	JGE  dot_done
dot_s1:
	VMOVSD (SI)(AX*8), X3
	VFMADD231SD (BX)(AX*8), X3, X1
	INCQ AX
	CMPQ AX, CX
	JL   dot_s1
dot_done:
	VMOVSD X1, ret+48(FP)
	VZEROUPPER
	RET

// func syrkRowAVX2(part, row []float64)
//
// One row's rank-1 update of the upper-triangle Gram partial:
// part[j*r+k] += row[j]*row[k] for k >= j, r = len(row). Fusing the j
// loop into assembly keeps `row` streaming from L1 and removes the per-j
// dispatch overhead the generic body pays on its VecAxpy calls.
TEXT ·syrkRowAVX2(SB), NOSPLIT, $0-48
	MOVQ part_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), CX // r
	XORQ R8, R8             // j
	MOVQ DI, R9             // &part[j*(r+1)]
	MOVQ SI, R10            // &row[j]
	MOVQ CX, R11            // r - j
	MOVQ CX, R12            // (r+1)*8: per-j stride of the diagonal
	SHLQ $3, R12
	ADDQ $8, R12
	VXORPD X5, X5, X5       // 0.0 for the skip test
syrk_j:
	CMPQ R8, CX
	JGE  syrk_done
	VMOVSD (R10), X0
	VUCOMISD X5, X0
	JP   syrk_nz  // NaN: unordered compare, do not skip
	JE   syrk_next
syrk_nz:
	VBROADCASTSD (R10), Y0
	XORQ AX, AX
	MOVQ R11, DX
	ANDQ $-8, DX
	JE   syrk_tail4
syrk_loop8:
	VMOVUPD (R10)(AX*8), Y1
	VMOVUPD 32(R10)(AX*8), Y2
	VFMADD213PD (R9)(AX*8), Y0, Y1
	VFMADD213PD 32(R9)(AX*8), Y0, Y2
	VMOVUPD Y1, (R9)(AX*8)
	VMOVUPD Y2, 32(R9)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   syrk_loop8
syrk_tail4:
	MOVQ R11, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  syrk_tail1
	VMOVUPD (R10)(AX*8), Y1
	VFMADD213PD (R9)(AX*8), Y0, Y1
	VMOVUPD Y1, (R9)(AX*8)
	ADDQ $4, AX
syrk_tail1:
	CMPQ AX, R11
	JGE  syrk_next
syrk_s1:
	VMOVSD (R10)(AX*8), X1
	VFMADD213SD (R9)(AX*8), X0, X1
	VMOVSD X1, (R9)(AX*8)
	INCQ AX
	CMPQ AX, R11
	JL   syrk_s1
syrk_next:
	INCQ R8
	ADDQ R12, R9
	ADDQ $8, R10
	DECQ R11
	JMP  syrk_j
syrk_done:
	VZEROUPPER
	RET

// func vecAxpyMulSetAVX2(dst, h, x, y []float64, v float64)
// dst[i] += v*h[i]; h[i] = x[i]*y[i] — one pass, h loaded once.
TEXT ·vecAxpyMulSetAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ h_base+24(FP), BX
	MOVQ x_base+48(FP), SI
	MOVQ y_base+72(FP), R8
	VBROADCASTSD v+96(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   axms_tail4
axms_loop8:
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD 32(BX)(AX*8), Y2
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VFMADD213PD 32(DI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VMULPD (R8)(AX*8), Y3, Y3
	VMULPD 32(R8)(AX*8), Y4, Y4
	VMOVUPD Y3, (BX)(AX*8)
	VMOVUPD Y4, 32(BX)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   axms_loop8
axms_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  axms_tail1
	VMOVUPD (BX)(AX*8), Y1
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y3
	VMULPD (R8)(AX*8), Y3, Y3
	VMOVUPD Y3, (BX)(AX*8)
	ADDQ $4, AX
axms_tail1:
	CMPQ AX, CX
	JGE  axms_done
axms_s1:
	VMOVSD (BX)(AX*8), X1
	VFMADD213SD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	VMOVSD (SI)(AX*8), X3
	VMULSD (R8)(AX*8), X3, X3
	VMOVSD X3, (BX)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   axms_s1
axms_done:
	VZEROUPPER
	RET

// func vecScaleMulSetAVX2(dst, h, x, y []float64, v float64)
// dst[i] = v*h[i]; h[i] = x[i]*y[i] — one pass, h loaded once.
TEXT ·vecScaleMulSetAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ h_base+24(FP), BX
	MOVQ x_base+48(FP), SI
	MOVQ y_base+72(FP), R8
	VBROADCASTSD v+96(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   sms_tail4
sms_loop8:
	VMOVUPD (BX)(AX*8), Y1
	VMOVUPD 32(BX)(AX*8), Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VMULPD (R8)(AX*8), Y3, Y3
	VMULPD 32(R8)(AX*8), Y4, Y4
	VMOVUPD Y3, (BX)(AX*8)
	VMOVUPD Y4, 32(BX)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   sms_loop8
sms_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  sms_tail1
	VMOVUPD (BX)(AX*8), Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y3
	VMULPD (R8)(AX*8), Y3, Y3
	VMOVUPD Y3, (BX)(AX*8)
	ADDQ $4, AX
sms_tail1:
	CMPQ AX, CX
	JGE  sms_done
sms_s1:
	VMOVSD (BX)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	VMOVSD (SI)(AX*8), X3
	VMULSD (R8)(AX*8), X3, X3
	VMOVSD X3, (BX)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   sms_s1
sms_done:
	VZEROUPPER
	RET

// func vecMulAxpyAVX2(dst, x, y []float64, v float64)
// dst[i] += v * (x[i]*y[i]); the product rounds (VMULPD) before the fused
// scale-accumulate so results match VecMulSet-then-VecAxpy bitwise.
TEXT ·vecMulAxpyAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), R8
	VBROADCASTSD v+72(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   mxp_tail4
mxp_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD (R8)(AX*8), Y1, Y1
	VMULPD 32(R8)(AX*8), Y2, Y2
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VFMADD213PD 32(DI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   mxp_loop8
mxp_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  mxp_tail1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD (R8)(AX*8), Y1, Y1
	VFMADD213PD (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
mxp_tail1:
	CMPQ AX, CX
	JGE  mxp_done
mxp_s1:
	VMOVSD (SI)(AX*8), X1
	VMULSD (R8)(AX*8), X1, X1
	VFMADD213SD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   mxp_s1
mxp_done:
	VZEROUPPER
	RET

// func vecMulScaleSetAVX2(dst, x, y []float64, v float64)
// dst[i] = v * (x[i]*y[i]), product rounded first (see vecMulAxpyAVX2).
TEXT ·vecMulScaleSetAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), R8
	VBROADCASTSD v+72(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JE   mss_tail4
mss_loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD (R8)(AX*8), Y1, Y1
	VMULPD 32(R8)(AX*8), Y2, Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, DX
	JL   mss_loop8
mss_tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  mss_tail1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD (R8)(AX*8), Y1, Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
mss_tail1:
	CMPQ AX, CX
	JGE  mss_done
mss_s1:
	VMOVSD (SI)(AX*8), X1
	VMULSD (R8)(AX*8), X1, X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   mss_s1
mss_done:
	VZEROUPPER
	RET

// gatherMask<> holds three all-ones lanes then three zero lanes: the four
// lanes from offset (3-k)*8 enable the first k of them (k = 1..3).
DATA gatherMask<>+0(SB)/8, $-1
DATA gatherMask<>+8(SB)/8, $-1
DATA gatherMask<>+16(SB)/8, $-1
DATA gatherMask<>+24(SB)/8, $0
DATA gatherMask<>+32(SB)/8, $0
DATA gatherMask<>+40(SB)/8, $0
GLOBL gatherMask<>(SB), RODATA|NOPTR, $48

// Pieces of gatherAxpyAVX2's nonzero loop. R12 = &rows[c], BX = x. ROW
// points DX at row idx[x]'s block and broadcasts vals[x] into Y8; the
// FMA macros accumulate 32, 16 or 4 columns of it into Y0-Y7; TAIL adds
// the masked 1-3 columns at byte offset off into Y11 (mask Y9).
#define GATHER_ROW \
	MOVLQSX (R8)(BX*4), DX; \
	IMULQ R11, DX; \
	ADDQ R12, DX; \
	VBROADCASTSD (R10)(BX*8), Y8

#define GATHER_FMA4 \
	VFMADD231PD (DX), Y8, Y0

#define GATHER_FMA16 \
	GATHER_FMA4; \
	VFMADD231PD 32(DX), Y8, Y1; \
	VFMADD231PD 64(DX), Y8, Y2; \
	VFMADD231PD 96(DX), Y8, Y3

#define GATHER_FMA32 \
	GATHER_FMA16; \
	VFMADD231PD 128(DX), Y8, Y4; \
	VFMADD231PD 160(DX), Y8, Y5; \
	VFMADD231PD 192(DX), Y8, Y6; \
	VFMADD231PD 224(DX), Y8, Y7

#define GATHER_TAIL(off) \
	VMASKMOVPD off(DX), Y9, Y10; \
	VFMADD231PD Y10, Y8, Y11

#define GATHER_LOAD4 \
	VMOVUPD (R13), Y0

#define GATHER_LOAD16 \
	GATHER_LOAD4; \
	VMOVUPD 32(R13), Y1; \
	VMOVUPD 64(R13), Y2; \
	VMOVUPD 96(R13), Y3

#define GATHER_LOAD32 \
	GATHER_LOAD16; \
	VMOVUPD 128(R13), Y4; \
	VMOVUPD 160(R13), Y5; \
	VMOVUPD 192(R13), Y6; \
	VMOVUPD 224(R13), Y7

#define GATHER_STORE4 \
	VMOVUPD Y0, (R13)

#define GATHER_STORE16 \
	GATHER_STORE4; \
	VMOVUPD Y1, 32(R13); \
	VMOVUPD Y2, 64(R13); \
	VMOVUPD Y3, 96(R13)

#define GATHER_STORE32 \
	GATHER_STORE16; \
	VMOVUPD Y4, 128(R13); \
	VMOVUPD Y5, 160(R13); \
	VMOVUPD Y6, 192(R13); \
	VMOVUPD Y7, 224(R13)

// GATHER_MASK loads the mask of the k = DX-w tail columns that follow a
// w-column block into Y9, and their dst values into Y11.
#define GATHER_MASK(w) \
	SUBQ $(w+3), DX; \
	NEGQ DX; \
	LEAQ gatherMask<>(SB), BX; \
	VMOVUPD (BX)(DX*8), Y9; \
	VMASKMOVPD (w*8)(R13), Y9, Y11

// func gatherAxpyAVX2(dst, rows []float64, idx []int32, vals []float64)
//
// dst[c] += vals[x]*rows[idx[x]*r+c] for x in order, r = len(dst): one
// CSF fiber's leaf rows gathered into its accumulator. The columns go in
// blocks of 32, then 16, then 4; the last 1-3 columns ride as one masked
// lane in the pass of the block before them (alone when r < 4). A pass
// keeps its columns of dst in YMM registers while it runs over every
// nonzero, and stores them once. Each element takes one VFMADD per
// nonzero, in nonzero order, the operation vecAxpyAVX2 performs, so the
// result is bitwise len(idx) VecAxpy calls.
TEXT ·gatherAxpyAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ vals_base+72(FP), R10
	TESTQ R9, R9
	JE   gather_done
	MOVQ CX, R11
	SHLQ $3, R11          // row stride in bytes
	XORQ AX, AX           // first column of the pass
gather_pass:
	LEAQ (SI)(AX*8), R12  // &rows[c]
	LEAQ (DI)(AX*8), R13  // &dst[c]
	MOVQ CX, DX
	SUBQ AX, DX           // columns left
	CMPQ DX, $32
	JE   gather_b32
	JL   gather_lt32
	CMPQ DX, $36
	JGE  gather_b32
	JMP  gather_b32t
gather_lt32:
	CMPQ DX, $16
	JE   gather_b16
	JL   gather_lt16
	CMPQ DX, $20
	JGE  gather_b16
	JMP  gather_b16t
gather_lt16:
	CMPQ DX, $4
	JE   gather_b4
	JL   gather_lt4
	CMPQ DX, $8
	JGE  gather_b4
	JMP  gather_b4t
gather_lt4:
	TESTQ DX, DX
	JNE  gather_t
	JMP  gather_done

gather_b32:
	GATHER_LOAD32
	XORQ BX, BX
gather_b32_x:
	GATHER_ROW
	GATHER_FMA32
	INCQ BX
	CMPQ BX, R9
	JL   gather_b32_x
	GATHER_STORE32
	ADDQ $32, AX
	JMP  gather_pass

gather_b32t:
	GATHER_MASK(32)
	GATHER_LOAD32
	XORQ BX, BX
gather_b32t_x:
	GATHER_ROW
	GATHER_FMA32
	GATHER_TAIL(256)
	INCQ BX
	CMPQ BX, R9
	JL   gather_b32t_x
	GATHER_STORE32
	VMASKMOVPD Y11, Y9, 256(R13)
	JMP  gather_done

gather_b16:
	GATHER_LOAD16
	XORQ BX, BX
gather_b16_x:
	GATHER_ROW
	GATHER_FMA16
	INCQ BX
	CMPQ BX, R9
	JL   gather_b16_x
	GATHER_STORE16
	ADDQ $16, AX
	JMP  gather_pass

gather_b16t:
	GATHER_MASK(16)
	GATHER_LOAD16
	XORQ BX, BX
gather_b16t_x:
	GATHER_ROW
	GATHER_FMA16
	GATHER_TAIL(128)
	INCQ BX
	CMPQ BX, R9
	JL   gather_b16t_x
	GATHER_STORE16
	VMASKMOVPD Y11, Y9, 128(R13)
	JMP  gather_done

gather_b4:
	GATHER_LOAD4
	XORQ BX, BX
gather_b4_x:
	GATHER_ROW
	GATHER_FMA4
	INCQ BX
	CMPQ BX, R9
	JL   gather_b4_x
	GATHER_STORE4
	ADDQ $4, AX
	JMP  gather_pass

gather_b4t:
	GATHER_MASK(4)
	GATHER_LOAD4
	XORQ BX, BX
gather_b4t_x:
	GATHER_ROW
	GATHER_FMA4
	GATHER_TAIL(32)
	INCQ BX
	CMPQ BX, R9
	JL   gather_b4t_x
	GATHER_STORE4
	VMASKMOVPD Y11, Y9, 32(R13)
	JMP  gather_done

gather_t:
	GATHER_MASK(0)
	XORQ BX, BX
gather_t_x:
	GATHER_ROW
	GATHER_TAIL(0)
	INCQ BX
	CMPQ BX, R9
	JL   gather_t_x
	VMASKMOVPD Y11, Y9, (R13)

gather_done:
	VZEROUPPER
	RET
