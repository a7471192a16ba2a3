//go:build amd64 && !purego

#include "textflag.h"

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
