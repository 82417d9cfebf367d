#include "textflag.h"

// The 4-state pruning range kernels and the Γ4 query walk in AVX (no AVX2,
// FMA or AVX-512). One YMM register holds the four states of one (pattern,
// rate) block; every lane is the Go kernel's chain for that state, started
// from +0, with each product rounded before it is added: VMULPD then VADDPD,
// never fused.

// scaleThreshold, 2^-256.
DATA scaleThreshold4<>+0(SB)/8, $0x2ff0000000000000
GLOBL scaleThreshold4<>(SB), RODATA|NOPTR, $8

// CHILD sets acc to P·c for the CLV block at clv, pt being the rate's
// transposed P: acc = 0 + c[0]·pt[0:4] + c[1]·pt[4:8] + c[2]·pt[8:12] +
// c[3]·pt[12:16], lane s the chain 0 + P[s][0]·c[0] + … + P[s][3]·c[3].
#define CHILD(clv, pt, acc, t) \
	VXORPD       acc, acc, acc; \
	VBROADCASTSD 0(clv), t;     \
	VMULPD       0(pt), t, t;   \
	VADDPD       t, acc, acc;   \
	VBROADCASTSD 8(clv), t;     \
	VMULPD       32(pt), t, t;  \
	VADDPD       t, acc, acc;   \
	VBROADCASTSD 16(clv), t;    \
	VMULPD       64(pt), t, t;  \
	VADDPD       t, acc, acc;   \
	VBROADCASTSD 24(clv), t;    \
	VMULPD       96(pt), t, t;  \
	VADDPD       t, acc, acc

// STORE writes v to dst and ORs the lanes where v > 2^-256 (GT_OQ: false
// for NaN, as Go's v > scaleThreshold is) into big. Y15 holds 2^-256.
#define STORE(v, dst, big) \
	VMOVUPD v, 0(dst);          \
	VCMPPD  $0x1e, Y15, v, v;   \
	VORPD   v, big, big

// SMALL sets the byte at flag to 1 when no lane of big is set, else 0.
#define SMALL(big, flag) \
	VMOVMSKPD big, AX; \
	TESTL     AX, AX;  \
	SETEQ     0(flag)

// func prune4InnerInnerAVX(dst, a, b, pta, ptb []float64, small []uint8, nrates int)
TEXT ·prune4InnerInnerAVX(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         a_base+24(FP), SI
	MOVQ         b_base+48(FP), DX
	MOVQ         small_base+120(FP), R10
	MOVQ         small_len+128(FP), CX
	VBROADCASTSD scaleThreshold4<>(SB), Y15
	TESTQ        CX, CX
	JZ           iiDone

iiPattern:
	MOVQ   pta_base+72(FP), R8
	MOVQ   ptb_base+96(FP), R9
	MOVQ   nrates+144(FP), BX
	VXORPD Y14, Y14, Y14

iiRate:
	CHILD(SI, R8, Y0, Y2)
	CHILD(DX, R9, Y1, Y3)
	VMULPD Y1, Y0, Y0
	STORE(Y0, DI, Y14)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, DI
	ADDQ   $128, R8
	ADDQ   $128, R9
	DECQ   BX
	JNZ    iiRate

	SMALL(Y14, R10)
	INCQ R10
	DECQ CX
	JNZ  iiPattern

iiDone:
	VZEROUPPER
	RET

// func prune4TipInnerAVX(dst, o, pto, lut []float64, codes []uint32, small []uint8, nrates int)
//
// The tip's LUT row for rate r and code c is at lut + (16r + c)·32 bytes.
TEXT ·prune4TipInnerAVX(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         o_base+24(FP), SI
	MOVQ         codes_base+96(FP), DX
	MOVQ         small_base+120(FP), R10
	MOVQ         small_len+128(FP), CX
	VBROADCASTSD scaleThreshold4<>(SB), Y15
	TESTQ        CX, CX
	JZ           tiDone

tiPattern:
	MOVQ   pto_base+48(FP), R8
	MOVQ   lut_base+72(FP), R9
	MOVL   (DX), AX
	ANDL   $15, AX
	SHLQ   $5, AX
	ADDQ   AX, R9
	MOVQ   nrates+144(FP), BX
	VXORPD Y14, Y14, Y14

tiRate:
	CHILD(SI, R8, Y0, Y2)
	VMULPD (R9), Y0, Y0
	STORE(Y0, DI, Y14)
	ADDQ   $32, SI
	ADDQ   $32, DI
	ADDQ   $128, R8
	ADDQ   $512, R9
	DECQ   BX
	JNZ    tiRate

	SMALL(Y14, R10)
	INCQ R10
	ADDQ $4, DX
	DECQ CX
	JNZ  tiPattern

tiDone:
	VZEROUPPER
	RET

// func prune4TipTipAVX(dst, pair []float64, ca, cb []uint32, small []uint8, nrates int)
//
// The pair row for rate r and codes (ca, cb) is at
// pair + ((16r + ca)·16 + cb)·32 bytes.
TEXT ·prune4TipTipAVX(SB), NOSPLIT, $0-128
	MOVQ         dst_base+0(FP), DI
	MOVQ         ca_base+48(FP), SI
	MOVQ         cb_base+72(FP), DX
	MOVQ         small_base+96(FP), R10
	MOVQ         small_len+104(FP), CX
	VBROADCASTSD scaleThreshold4<>(SB), Y15
	TESTQ        CX, CX
	JZ           ttDone

ttPattern:
	MOVQ   pair_base+24(FP), R9
	MOVL   (SI), AX
	ANDL   $15, AX
	SHLL   $4, AX
	MOVL   (DX), R8
	ANDL   $15, R8
	ORL    R8, AX
	SHLQ   $5, AX
	ADDQ   AX, R9
	MOVQ   nrates+120(FP), BX
	VXORPD Y14, Y14, Y14

ttRate:
	VMOVUPD (R9), Y0
	STORE(Y0, DI, Y14)
	ADDQ    $32, DI
	ADDQ    $8192, R9
	DECQ    BX
	JNZ     ttRate

	SMALL(Y14, R10)
	INCQ R10
	ADDQ $4, SI
	ADDQ $4, DX
	DECQ CX
	JNZ  ttPattern

ttDone:
	VZEROUPPER
	RET

// func walk4AVX(site []float64, cover []coveredSite, bclv, tab, w []float64)
//
// cover is read as 12-byte records {pat, off int32; code uint32}. A site
// with off ≥ 0 loads its pattern's four rate blocks (one per register),
// transposes them so that register k holds c[k] of every rate, and forms
// s = 0 + tab_k0·c0 + … + tab_k3·c3 with tab_kk = tab[(off+k)·4 : +4], one
// lane per rate: queryLogLik4's four chains. The weighted terms w_r·s_r
// are then added in rate order from +0 as scalars.
TEXT ·walk4AVX(SB), NOSPLIT, $0-120
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
	ANDQ    $12, AX
	SHLQ    $5, AX
	LEAQ    (R8)(AX*1), R10
	MOVLQSX 0(SI), BX
	SHLQ    $7, BX
	ADDQ    DX, BX

	VMOVUPD    0(BX), Y0
	VMOVUPD    32(BX), Y1
	VMOVUPD    64(BX), Y2
	VMOVUPD    96(BX), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3

	VXORPD Y8, Y8, Y8
	VMULPD 0(R10), Y0, Y0
	VADDPD Y0, Y8, Y8
	VMULPD 32(R10), Y1, Y1
	VADDPD Y1, Y8, Y8
	VMULPD 64(R10), Y2, Y2
	VADDPD Y2, Y8, Y8
	VMULPD 96(R10), Y3, Y3
	VADDPD Y3, Y8, Y8
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
