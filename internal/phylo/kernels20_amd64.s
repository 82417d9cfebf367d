#include "textflag.h"

// The 20-state pruning range kernels and Γ4 query walk in AVX (no AVX2, FMA
// or AVX-512). Five YMM registers hold the twenty states of one (pattern,
// rate) child vector; every lane is numeric.CombineRows' chain for that
// state, started from +0, k ascending, each product rounded before it is
// added: VMULPD then VADDPD, never fused.

// scaleThreshold, 2^-256.
DATA scaleThreshold20<>+0(SB)/8, $0x2ff0000000000000
GLOBL scaleThreshold20<>(SB), RODATA|NOPTR, $8

// STEP adds c·pt[0:20] into the accumulators a0..a4, c being broadcast in
// bc: one VMULPD then one VADDPD per group of four states.
#define STEP(bc, pt, t, a0, a1, a2, a3, a4) \
	VMULPD 0(pt), bc, t;    \
	VADDPD t, a0, a0;       \
	VMULPD 32(pt), bc, t;   \
	VADDPD t, a1, a1;       \
	VMULPD 64(pt), bc, t;   \
	VADDPD t, a2, a2;       \
	VMULPD 96(pt), bc, t;   \
	VADDPD t, a3, a3;       \
	VMULPD 128(pt), bc, t;  \
	VADDPD t, a4, a4

// STORE writes v to off(DI) and ORs the lanes where v > 2^-256 (GT_OQ:
// false for NaN, as Go's v > scaleThreshold is) into Y14. Y15 holds 2^-256.
#define STORE(v, off) \
	VMOVUPD v, off(DI);       \
	VCMPPD  $0x1e, Y15, v, v; \
	VORPD   v, Y14, Y14

// STORE5 stores the pattern's rate block Y0..Y4 and moves DI past it.
#define STORE5 \
	STORE(Y0, 0);   \
	STORE(Y1, 32);  \
	STORE(Y2, 64);  \
	STORE(Y3, 96);  \
	STORE(Y4, 128); \
	ADDQ $160, DI

// SMALL sets the byte at (R10) to 1 when no lane of Y14 is set, else 0.
#define SMALL \
	VMOVMSKPD Y14, AX; \
	TESTL     AX, AX;  \
	SETEQ     0(R10)

// ZERO5 sets five accumulators to +0.
#define ZERO5(a0, a1, a2, a3, a4) \
	VXORPD a0, a0, a0; \
	VXORPD a1, a1, a1; \
	VXORPD a2, a2, a2; \
	VXORPD a3, a3, a3; \
	VXORPD a4, a4, a4

// func prune20InnerInnerAVX(dst, a, b, pta, ptb []float64, small []uint8, nrates int)
//
// Per (pattern, rate): Y0..Y4 = Pa·a and Y5..Y9 = Pb·b, the two chains
// interleaved per k, then Y0..Y4 ⊙= Y5..Y9. SI and DX walk the children's
// blocks, R8 and R9 the rates' transposed P.
TEXT ·prune20InnerInnerAVX(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         a_base+24(FP), SI
	MOVQ         b_base+48(FP), DX
	MOVQ         small_base+120(FP), R10
	MOVQ         small_len+128(FP), CX
	VBROADCASTSD scaleThreshold20<>(SB), Y15
	TESTQ        CX, CX
	JZ           iiDone

iiPattern:
	MOVQ   pta_base+72(FP), R8
	MOVQ   ptb_base+96(FP), R9
	MOVQ   nrates+144(FP), BX
	VXORPD Y14, Y14, Y14

iiRate:
	ZERO5(Y0, Y1, Y2, Y3, Y4)
	ZERO5(Y5, Y6, Y7, Y8, Y9)
	MOVQ $20, R11

iiK:
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (DX), Y11
	STEP(Y10, R8, Y12, Y0, Y1, Y2, Y3, Y4)
	STEP(Y11, R9, Y13, Y5, Y6, Y7, Y8, Y9)
	ADDQ         $8, SI
	ADDQ         $8, DX
	ADDQ         $160, R8
	ADDQ         $160, R9
	DECQ         R11
	JNZ          iiK

	VMULPD Y5, Y0, Y0
	VMULPD Y6, Y1, Y1
	VMULPD Y7, Y2, Y2
	VMULPD Y8, Y3, Y3
	VMULPD Y9, Y4, Y4
	STORE5
	DECQ   BX
	JNZ    iiRate

	SMALL
	INCQ R10
	DECQ CX
	JNZ  iiPattern

iiDone:
	VZEROUPPER
	RET

// func prune20TipInnerAVX(dst, o, pto, lut []float64, rows []uint32, small []uint8, nrates, ncodes int)
//
// Per (pattern, rate): Y0..Y4 = Po·o, times the tip's table row, which for
// rate r and row w is at lut + (ncodes·r + w)·160 bytes.
TEXT ·prune20TipInnerAVX(SB), NOSPLIT, $0-160
	MOVQ         dst_base+0(FP), DI
	MOVQ         o_base+24(FP), SI
	MOVQ         rows_base+96(FP), DX
	MOVQ         small_base+120(FP), R10
	MOVQ         small_len+128(FP), CX
	MOVQ         ncodes+152(FP), R12
	IMULQ        $160, R12
	VBROADCASTSD scaleThreshold20<>(SB), Y15
	TESTQ        CX, CX
	JZ           tiDone

tiPattern:
	MOVQ   pto_base+48(FP), R8
	MOVL   (DX), R9
	IMULQ  $160, R9
	ADDQ   lut_base+72(FP), R9
	MOVQ   nrates+144(FP), BX
	VXORPD Y14, Y14, Y14

tiRate:
	ZERO5(Y0, Y1, Y2, Y3, Y4)
	MOVQ $20, R11

tiK:
	VBROADCASTSD (SI), Y10
	STEP(Y10, R8, Y12, Y0, Y1, Y2, Y3, Y4)
	ADDQ         $8, SI
	ADDQ         $160, R8
	DECQ         R11
	JNZ          tiK

	VMULPD 0(R9), Y0, Y0
	VMULPD 32(R9), Y1, Y1
	VMULPD 64(R9), Y2, Y2
	VMULPD 96(R9), Y3, Y3
	VMULPD 128(R9), Y4, Y4
	STORE5
	ADDQ   R12, R9
	DECQ   BX
	JNZ    tiRate

	SMALL
	INCQ R10
	ADDQ $4, DX
	DECQ CX
	JNZ  tiPattern

tiDone:
	VZEROUPPER
	RET

// WGROUP adds four k of one site into Y8: it loads c[k..k+3] of the four
// rate blocks at BX (one register per rate), transposes them so that
// register j holds c[k+j] of every rate, multiplies by the table rows at R10
// and adds them in k order; then it moves BX and R10 to the next four k.
#define WGROUP \
	VMOVUPD    0(BX), Y0;         \
	VMOVUPD    160(BX), Y1;       \
	VMOVUPD    320(BX), Y2;       \
	VMOVUPD    480(BX), Y3;       \
	VUNPCKLPD  Y1, Y0, Y4;        \
	VUNPCKHPD  Y1, Y0, Y5;        \
	VUNPCKLPD  Y3, Y2, Y6;        \
	VUNPCKHPD  Y3, Y2, Y7;        \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3; \
	VMULPD     0(R10), Y0, Y0;    \
	VADDPD     Y0, Y8, Y8;        \
	VMULPD     32(R10), Y1, Y1;   \
	VADDPD     Y1, Y8, Y8;        \
	VMULPD     64(R10), Y2, Y2;   \
	VADDPD     Y2, Y8, Y8;        \
	VMULPD     96(R10), Y3, Y3;   \
	VADDPD     Y3, Y8, Y8;        \
	ADDQ       $32, BX;           \
	ADDQ       $128, R10

// func walk20AVX(site []float64, cover []coveredSite, bclv, tab, w []float64)
//
// cover is read as 12-byte records {pat, off int32; code uint32}. A site
// with off ≥ 0 forms s = 0 + tab_k·c_k over k = 0..19 with tab_k =
// tab[(off+k)·4 : +4], one lane per rate: queryLogLik20's four chains. The
// weighted terms w_r·s_r are then added in rate order from +0 as scalars.
TEXT ·walk20AVX(SB), NOSPLIT, $0-120
	MOVQ    site_base+0(FP), DI
	MOVQ    cover_base+24(FP), SI
	MOVQ    cover_len+32(FP), CX
	MOVQ    bclv_base+48(FP), DX
	MOVQ    tab_base+72(FP), R8
	MOVQ    w_base+96(FP), R9
	VMOVUPD (R9), Y13
	TESTQ   CX, CX
	JZ      wDone

wSite:
	MOVLQSX 4(SI), AX
	TESTQ   AX, AX
	JS      wNext
	SHLQ    $5, AX
	LEAQ    (R8)(AX*1), R10
	MOVLQSX 0(SI), BX
	IMULQ   $640, BX
	ADDQ    DX, BX

	VXORPD Y8, Y8, Y8
	WGROUP
	WGROUP
	WGROUP
	WGROUP
	WGROUP
	VMULPD Y13, Y8, Y8

	VXORPD       X9, X9, X9
	VADDSD       X8, X9, X9
	VPERMILPD    $1, X8, X10
	VADDSD       X10, X9, X9
	VEXTRACTF128 $1, Y8, X11
	VADDSD       X11, X9, X9
	VPERMILPD    $1, X11, X11
	VADDSD       X11, X9, X9
	VMOVSD       X9, (DI)

wNext:
	ADDQ $12, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  wSite

wDone:
	VZEROUPPER
	RET
