#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func combineRows20AVX(dst, rows, coef []float64)
//
// Y0..Y4 hold dst[0:4] .. dst[16:20], each lane one chain from +0. Row k
// adds coef[k]·rows[20k+j] to lane j as a VMULPD then a VADDPD: two
// roundings, the same as Go's c*r then s+p. Never VFMADD.
TEXT ·combineRows20AVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ rows_base+24(FP), SI
	MOVQ coef_base+48(FP), DX
	MOVQ coef_len+56(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	TESTQ CX, CX
	JZ store

row:
	VBROADCASTSD (DX), Y5
	VMULPD (SI), Y5, Y6
	VADDPD Y6, Y0, Y0
	VMULPD 32(SI), Y5, Y7
	VADDPD Y7, Y1, Y1
	VMULPD 64(SI), Y5, Y8
	VADDPD Y8, Y2, Y2
	VMULPD 96(SI), Y5, Y9
	VADDPD Y9, Y3, Y3
	VMULPD 128(SI), Y5, Y10
	VADDPD Y10, Y4, Y4
	ADDQ $8, DX
	ADDQ $160, SI
	DECQ CX
	JNZ row

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VZEROUPPER
	RET
