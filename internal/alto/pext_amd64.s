//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// BMI2 bit-extraction kernels. masks is laid out 3 uint64s per mode:
// low-word pext mask, high-word pext mask, and the left-shift aligning
// the high-word bits above the low-word ones. Narrow encodings have a
// zero high mask, and pext(x, 0) == 0, so one code path serves both key
// widths.

// func pextAll(lo, hi uint64, masks []uint64, cur []uint64) uint32
TEXT ·pextAll(SB), NOSPLIT, $0-68
	MOVQ lo+0(FP), R8
	MOVQ hi+8(FP), R9
	MOVQ masks_base+16(FP), SI
	MOVQ cur_base+40(FP), DI
	MOVQ cur_len+48(FP), CX
	XORQ AX, AX  // mode index m
	XORQ R15, R15 // change mask
pa_loop:
	CMPQ AX, CX
	JGE  pa_done
	MOVQ (SI), R10      // low mask
	MOVQ 8(SI), R11     // high mask
	MOVQ 16(SI), R12    // high shift
	PEXTQ R10, R8, R13
	PEXTQ R11, R9, R14
	SHLXQ R12, R14, R14
	ORQ  R14, R13       // R13 = mode m's index
	MOVQ (DI)(AX*8), BX
	XORQ R13, BX        // BX = old ^ new
	MOVQ R13, (DI)(AX*8)
	TESTQ BX, BX
	JZ   pa_next
	MOVQ AX, DX         // changed: set bit min(m, 31)
	CMPQ DX, $31
	JLE  pa_setbit
	MOVQ $31, DX
pa_setbit:
	MOVQ $1, R14
	SHLXQ DX, R14, R14
	ORQ  R14, R15
pa_next:
	ADDQ $24, SI
	INCQ AX
	JMP  pa_loop
pa_done:
	MOVL R15, ret+64(FP)
	RET

// func pext3Tile(keys []uint64, mT, mA, mB uint64, outT, outA, outB []uint32)
TEXT ·pext3Tile(SB), NOSPLIT, $0-120
	MOVQ keys_base+0(FP), SI
	MOVQ keys_len+8(FP), CX
	MOVQ mT+24(FP), R8
	MOVQ mA+32(FP), R9
	MOVQ mB+40(FP), R10
	MOVQ outT_base+48(FP), DI
	MOVQ outA_base+72(FP), R11
	MOVQ outB_base+96(FP), R12
	XORQ AX, AX
	TESTQ CX, CX
	JZ   p3_done
p3_loop:
	MOVQ (SI)(AX*8), DX
	PEXTQ R8, DX, R13
	PEXTQ R9, DX, R14
	PEXTQ R10, DX, R15
	MOVL R13, (DI)(AX*4)
	MOVL R14, (R11)(AX*4)
	MOVL R15, (R12)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JL   p3_loop
p3_done:
	RET

// func pextColumn(lo, hi []uint64, masks []uint64, out []sptensor.Index)
TEXT ·pextColumn(SB), NOSPLIT, $0-96
	MOVQ lo_base+0(FP), SI
	MOVQ lo_len+8(FP), CX
	MOVQ hi_base+24(FP), R9
	MOVQ hi_len+32(FP), BX
	MOVQ masks_base+48(FP), R10
	MOVQ out_base+72(FP), DI
	MOVQ (R10), R8      // low mask
	XORQ AX, AX
	TESTQ CX, CX
	JZ   pc_done
	TESTQ BX, BX
	JNZ  pc_wide
pc_narrow:
	MOVQ (SI)(AX*8), DX
	PEXTQ R8, DX, R13
	MOVL R13, (DI)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JL   pc_narrow
	RET
pc_wide:
	MOVQ 8(R10), R11    // high mask
	MOVQ 16(R10), R12   // high shift
pc_wloop:
	MOVQ (SI)(AX*8), DX
	PEXTQ R8, DX, R13
	MOVQ (R9)(AX*8), DX
	PEXTQ R11, DX, R14
	SHLXQ R12, R14, R14
	ORQ  R14, R13
	MOVL R13, (DI)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JL   pc_wloop
pc_done:
	RET

// func pdepColumn(col []sptensor.Index, masks []uint64, lo, hi []uint64)
TEXT ·pdepColumn(SB), NOSPLIT, $0-96
	MOVQ col_base+0(FP), SI
	MOVQ col_len+8(FP), CX
	MOVQ masks_base+24(FP), R10
	MOVQ lo_base+48(FP), DI
	MOVQ hi_base+72(FP), R9
	MOVQ hi_len+80(FP), BX
	MOVQ (R10), R8      // low mask
	XORQ AX, AX
	TESTQ CX, CX
	JZ   pd_done
	TESTQ BX, BX
	JNZ  pd_wide
pd_narrow:
	MOVLQZX (SI)(AX*4), DX
	PDEPQ R8, DX, R13
	ORQ  R13, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   pd_narrow
	RET
pd_wide:
	MOVQ 8(R10), R11    // high mask
	MOVQ 16(R10), R12   // high shift
pd_wloop:
	MOVLQZX (SI)(AX*4), DX
	PDEPQ R8, DX, R13
	ORQ  R13, (DI)(AX*8)
	SHRXQ R12, DX, R14  // bits above the low-word run
	PDEPQ R11, R14, R14
	ORQ  R14, (R9)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   pd_wloop
pd_done:
	RET

// func walk3Tile(w *tileWalk, keys []uint64, vals []float64)
//
// One tile of the lock-free order-3 walk (runRange3Tiles). The current
// run lives in R8 (its key), X0 (its pending value vpend) and R10 (acc in
// use). Per key, its XOR with the run's key selects:
//   zero                  vpend += v
//   no output-mode bits   acc = vpend·(A⊙B), or acc = fma(vpend, A⊙B, acc)
//   output-mode bits      out[T] += acc when acc is in use, then
//                         out[T] = fma(vpend, A⊙B, out[T])
// where T, A and B are the run's rows (pext of its key, A and B of the
// two other modes' factors), A⊙B is rounded before it is scaled, as in
// VecMulScaleSet and VecMulAxpy, and out[T] is row T-base of w.out. The
// key then starts a run with vpend = v. Rank loops take 8, 4, then 1
// lanes at a time. Register use: DI w, SI keys, BX vals, CX len(keys),
// AX key index, R9 output-mode mask, R12 rank; R11 counts lanes left and
// R13, R14, R15 and DX address rows.
TEXT ·walk3Tile(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), DI
	MOVQ keys_base+8(FP), SI
	MOVQ keys_len+16(FP), CX
	MOVQ vals_base+32(FP), BX
	MOVQ tileWalk_mT(DI), R9
	MOVQ tileWalk_rank(DI), R12
	MOVQ tileWalk_key(DI), R8
	VMOVSD tileWalk_vpend(DI), X0
	MOVBQZX tileWalk_accUsed(DI), R10
	XORQ AX, AX
	TESTQ CX, CX
	JZ   wt_done
wt_loop:
	MOVQ (SI)(AX*8), DX
	XORQ R8, DX
	JNZ  wt_change
	VADDSD (BX)(AX*8), X0, X0 // same key
	INCQ AX
	CMPQ AX, CX
	JL   wt_loop
	JMP  wt_done
wt_change:
	PEXTQ tileWalk_mA(DI), R8, R13
	PEXTQ tileWalk_mB(DI), R8, R14
	IMULQ R12, R13
	IMULQ R12, R14
	MOVQ tileWalk_fa(DI), R11
	LEAQ (R11)(R13*8), R13 // A
	MOVQ tileWalk_fb(DI), R11
	LEAQ (R11)(R14*8), R14 // B
	VBROADCASTSD X0, Y0
	MOVQ R12, R11
	TESTQ R9, DX
	JNZ  wt_row
	MOVQ tileWalk_acc(DI), R15 // same output row: materialize into acc
	TESTQ R10, R10
	JNZ  wt_fma8
	MOVQ $1, R10
wt_set8: // R15 = vpend·(A⊙B)
	CMPQ R11, $8
	JL   wt_set4
	VMOVUPD (R13), Y1
	VMOVUPD 32(R13), Y2
	VMULPD (R14), Y1, Y1
	VMULPD 32(R14), Y2, Y2
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y2, Y2
	VMOVUPD Y1, (R15)
	VMOVUPD Y2, 32(R15)
	ADDQ $64, R13
	ADDQ $64, R14
	ADDQ $64, R15
	SUBQ $8, R11
	JMP  wt_set8
wt_set4:
	CMPQ R11, $4
	JL   wt_set1
	VMOVUPD (R13), Y1
	VMULPD (R14), Y1, Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD Y1, (R15)
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	SUBQ $4, R11
wt_set1:
	TESTQ R11, R11
	JZ   wt_next
	VMOVSD (R13), X1
	VMULSD (R14), X1, X1
	VMULSD X0, X1, X1
	VMOVSD X1, (R15)
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, R15
	DECQ R11
	JMP  wt_set1
wt_row: // new output row: R15 = its row of out
	PEXTQ R9, R8, R15
	SUBQ tileWalk_base(DI), R15
	IMULQ R12, R15
	MOVQ tileWalk_out(DI), DX
	LEAQ (DX)(R15*8), R15
	TESTQ R10, R10
	JNZ  wt_acc
wt_fma8: // R15 = fma(vpend, A⊙B, R15)
	CMPQ R11, $8
	JL   wt_fma4
	VMOVUPD (R13), Y1
	VMOVUPD 32(R13), Y2
	VMULPD (R14), Y1, Y1
	VMULPD 32(R14), Y2, Y2
	VFMADD213PD (R15), Y0, Y1
	VFMADD213PD 32(R15), Y0, Y2
	VMOVUPD Y1, (R15)
	VMOVUPD Y2, 32(R15)
	ADDQ $64, R13
	ADDQ $64, R14
	ADDQ $64, R15
	SUBQ $8, R11
	JMP  wt_fma8
wt_fma4:
	CMPQ R11, $4
	JL   wt_fma1
	VMOVUPD (R13), Y1
	VMULPD (R14), Y1, Y1
	VFMADD213PD (R15), Y0, Y1
	VMOVUPD Y1, (R15)
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	SUBQ $4, R11
wt_fma1:
	TESTQ R11, R11
	JZ   wt_next
	VMOVSD (R13), X1
	VMULSD (R14), X1, X1
	VFMADD213SD (R15), X0, X1
	VMOVSD X1, (R15)
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, R15
	DECQ R11
	JMP  wt_fma1
wt_acc: // R15 = fma(vpend, A⊙B, R15 + acc)
	MOVQ tileWalk_acc(DI), DX
	XORQ R10, R10
wt_acc8:
	CMPQ R11, $8
	JL   wt_acc4
	VMOVUPD (R15), Y1
	VMOVUPD 32(R15), Y2
	VADDPD (DX), Y1, Y1
	VADDPD 32(DX), Y2, Y2
	VMOVUPD (R13), Y4
	VMOVUPD 32(R13), Y5
	VMULPD (R14), Y4, Y4
	VMULPD 32(R14), Y5, Y5
	VFMADD213PD Y1, Y0, Y4
	VFMADD213PD Y2, Y0, Y5
	VMOVUPD Y4, (R15)
	VMOVUPD Y5, 32(R15)
	ADDQ $64, R13
	ADDQ $64, R14
	ADDQ $64, R15
	ADDQ $64, DX
	SUBQ $8, R11
	JMP  wt_acc8
wt_acc4:
	CMPQ R11, $4
	JL   wt_acc1
	VMOVUPD (R15), Y1
	VADDPD (DX), Y1, Y1
	VMOVUPD (R13), Y4
	VMULPD (R14), Y4, Y4
	VFMADD213PD Y1, Y0, Y4
	VMOVUPD Y4, (R15)
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	ADDQ $32, DX
	SUBQ $4, R11
wt_acc1:
	TESTQ R11, R11
	JZ   wt_next
	VMOVSD (R15), X1
	VADDSD (DX), X1, X1
	VMOVSD (R13), X4
	VMULSD (R14), X4, X4
	VFMADD213SD X1, X0, X4
	VMOVSD X4, (R15)
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, R15
	ADDQ $8, DX
	DECQ R11
	JMP  wt_acc1
wt_next: // the key starts the next run
	MOVQ (SI)(AX*8), R8
	VMOVSD (BX)(AX*8), X0
	INCQ AX
	CMPQ AX, CX
	JL   wt_loop
wt_done:
	MOVQ R8, tileWalk_key(DI)
	VMOVSD X0, tileWalk_vpend(DI)
	MOVB R10, tileWalk_accUsed(DI)
	VZEROUPPER
	RET
