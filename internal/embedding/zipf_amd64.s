// The Zipf tail's exp / log, AVX-512F and AVX2. See zipfXGo (zipfbag.go)
// for the contract: every body here gives the Go body's bits exactly.
//
// zipfX*(x, u, n, a, inv, one): for i < n, t = u[i]·a; unless one,
// t = inv·log(t + 1); x[i] = exp(t) — fdlibm's log and exp, the operations of
// logFdlibm and expFdlibm in their order, each rounded once (no fused
// multiply-adds). n is a positive multiple of 8; AVX-512 takes 8 lanes a
// step, AVX2 4.
//
// log splits v = f1·2^k, f1 ∈ [1/2, 1) (Frexp), exactly: VGETMANTPD /
// VGETEXPPD on AVX-512, the exponent and mantissa fields on AVX2, where
// k becomes a double through 2^52 + e − 2^52. exp truncates log2e·t ± 1/2
// (VRNDSCALEPD / VROUNDPD) and scales y by 2^k with VSCALEFPD or by adding
// k to the exponent field: exact, as Ldexp is, for the normal y and small k
// of the domain. Lanes with |t| < 2^-28 take 1 + t, as fdlibm does.
//
// No function touches the stack or calls out; each ends with VZEROUPPER.

#include "textflag.h"

// Each constant is four copies of one float64 (or bit pattern): an AVX2
// memory operand, or the source of an AVX-512 broadcast.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(zOne, 0x3ff0000000000000) // 1
CONST4(zTwo, 0x4000000000000000) // 2
CONST4(zHalf, 0x3fe0000000000000) // 0.5, also the exponent field of [1/2, 1)
CONST4(zSqrt2h, 0x3fe6a09e667f3bcd) // Sqrt2/2
CONST4(zL1, 0x3fe5555555555593)
CONST4(zL2, 0x3fd999999997fa04)
CONST4(zL3, 0x3fd2492494229359)
CONST4(zL4, 0x3fcc71c51d8e78af)
CONST4(zL5, 0x3fc7466496cb03de)
CONST4(zL6, 0x3fc39a09d078c69f)
CONST4(zL7, 0x3fc2f112df3e5244)
CONST4(zLn2Hi, 0x3fe62e42fee00000)
CONST4(zLn2Lo, 0x3dea39ef35793c76)
CONST4(zLog2e, 0x3ff71547652b82fe)
CONST4(zNearZero, 0x3e30000000000000) // 2^-28
CONST4(zAbs, 0x7fffffffffffffff) // clears the sign
CONST4(zSign, 0x8000000000000000) // keeps the sign
CONST4(zP1, 0x3fc5555555555555)
CONST4(zP2, 0xbf66c16c16bebd93)
CONST4(zP3, 0x3f11566aaf25de2c)
CONST4(zP4, 0xbebbbd41c5d26bf1)
CONST4(zP5, 0x3e66376972bea4d0)
CONST4(zTwo52, 0x4330000000000000) // 2^52, whose low 52 bits are free for an integer
CONST4(zC1022, 0x408ff00000000000) // 1022
CONST4(zMant, 0x000fffffffffffff) // the mantissa field
CONST4(zMagic, 0x4338000000000000) // 1.5·2^52: k + zMagic holds k in its low bits

// ---------------------------------------------------------------------------
// AVX-512. Constants live in registers for the whole call:
//	Z8 1      Z9 2      Z10 0.5   Z11 Sqrt2/2
//	Z12..Z18 L1..L7     Z19 Ln2Hi Z20 Ln2Lo  Z21 Log2e  Z22 2^-28
//	Z23 |·| mask        Z24 sign mask        Z25..Z29 P1..P5
//	Z30 a     Z31 inv
// Z0..Z7, K1 and K2 are scratch.

// LOG512: Z0 = log(Z0) for positive normal lanes.
#define LOG512 \
	VGETMANTPD  $2, Z0, Z1; \
	VGETEXPPD   Z0, Z2; \
	VADDPD      Z8, Z2, Z2; \
	VCMPPD      $1, Z11, Z1, K1; \
	VADDPD      Z1, Z1, K1, Z1; \
	VSUBPD      Z8, Z2, K1, Z2; \
	VSUBPD      Z8, Z1, Z1; \
	VADDPD      Z9, Z1, Z3; \
	VDIVPD      Z3, Z1, Z3; \
	VMULPD      Z3, Z3, Z4; \
	VMULPD      Z4, Z4, Z5; \
	VMULPD      Z18, Z5, Z6; \
	VADDPD      Z16, Z6, Z6; \
	VMULPD      Z6, Z5, Z6; \
	VADDPD      Z14, Z6, Z6; \
	VMULPD      Z6, Z5, Z6; \
	VADDPD      Z12, Z6, Z6; \
	VMULPD      Z6, Z4, Z6; \
	VMULPD      Z17, Z5, Z7; \
	VADDPD      Z15, Z7, Z7; \
	VMULPD      Z7, Z5, Z7; \
	VADDPD      Z13, Z7, Z7; \
	VMULPD      Z7, Z5, Z7; \
	VADDPD      Z7, Z6, Z6; \
	VMULPD      Z10, Z1, Z7; \
	VMULPD      Z1, Z7, Z7; \
	VADDPD      Z6, Z7, Z6; \
	VMULPD      Z6, Z3, Z6; \
	VMULPD      Z20, Z2, Z4; \
	VADDPD      Z4, Z6, Z6; \
	VSUBPD      Z6, Z7, Z6; \
	VSUBPD      Z1, Z6, Z6; \
	VMULPD      Z19, Z2, Z4; \
	VSUBPD      Z6, Z4, Z0

// LOG512 step by step, as logFdlibm: Z1 = f1 ∈ [1/2, 1) and Z2 = k = e − 1022;
// where f1 < Sqrt2/2 (K1), f1 doubles and k drops by one; Z1 = f = f1 − 1,
// Z3 = s = f / (2 + f), Z4 = s2, Z5 = s4, Z6 = t1 and Z7 = t2 by Horner,
// Z6 = R, Z7 = hfsq = 0.5·f·f, and the result
// k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f).

// EXP512: Z4 = exp(Z0).
#define EXP512 \
	VPANDQ      Z23, Z0, Z5; \
	VCMPPD      $1, Z22, Z5, K2; \
	VPANDQ      Z24, Z0, Z6; \
	VPORQ       Z10, Z6, Z6; \
	VMULPD      Z21, Z0, Z7; \
	VADDPD      Z6, Z7, Z7; \
	VRNDSCALEPD $11, Z7, Z7; \
	VMULPD      Z19, Z7, Z5; \
	VSUBPD      Z5, Z0, Z5; \
	VMULPD      Z20, Z7, Z6; \
	VSUBPD      Z6, Z5, Z1; \
	VMULPD      Z1, Z1, Z2; \
	VMULPD      Z29, Z2, Z3; \
	VADDPD      Z28, Z3, Z3; \
	VMULPD      Z3, Z2, Z3; \
	VADDPD      Z27, Z3, Z3; \
	VMULPD      Z3, Z2, Z3; \
	VADDPD      Z26, Z3, Z3; \
	VMULPD      Z3, Z2, Z3; \
	VADDPD      Z25, Z3, Z3; \
	VMULPD      Z3, Z2, Z3; \
	VSUBPD      Z3, Z1, Z3; \
	VMULPD      Z3, Z1, Z4; \
	VSUBPD      Z3, Z9, Z2; \
	VDIVPD      Z2, Z4, Z4; \
	VSUBPD      Z4, Z6, Z4; \
	VSUBPD      Z5, Z4, Z4; \
	VSUBPD      Z4, Z8, Z4; \
	VSCALEFPD   Z7, Z4, Z4; \
	VADDPD      Z8, Z0, K2, Z4

// EXP512 step by step, as expFdlibm: K2 = |t| < 2^-28; Z7 = k =
// trunc(Log2e·t ± 0.5) (the half carries t's sign); Z5 = hi = t − k·Ln2Hi,
// Z6 = lo = k·Ln2Lo, Z1 = r = hi − lo, Z2 = r·r, Z3 = c by Horner,
// Z4 = y = 1 − ((lo − r·c / (2 − c)) − hi), scaled by 2^k; K2's lanes are
// 1 + t instead.

// func zipfXAVX512(x, u *float64, n int, a, inv float64, one bool)
TEXT ·zipfXAVX512(SB), NOSPLIT, $0-41
	MOVQ         x+0(FP), DI
	MOVQ         u+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVBLZX      one+40(FP), AX
	VBROADCASTSD a+24(FP), Z30
	VBROADCASTSD inv+32(FP), Z31
	VBROADCASTSD zOne<>(SB), Z8
	VBROADCASTSD zTwo<>(SB), Z9
	VBROADCASTSD zHalf<>(SB), Z10
	VBROADCASTSD zSqrt2h<>(SB), Z11
	VBROADCASTSD zL1<>(SB), Z12
	VBROADCASTSD zL2<>(SB), Z13
	VBROADCASTSD zL3<>(SB), Z14
	VBROADCASTSD zL4<>(SB), Z15
	VBROADCASTSD zL5<>(SB), Z16
	VBROADCASTSD zL6<>(SB), Z17
	VBROADCASTSD zL7<>(SB), Z18
	VBROADCASTSD zLn2Hi<>(SB), Z19
	VBROADCASTSD zLn2Lo<>(SB), Z20
	VBROADCASTSD zLog2e<>(SB), Z21
	VBROADCASTSD zNearZero<>(SB), Z22
	VBROADCASTSD zAbs<>(SB), Z23
	VBROADCASTSD zSign<>(SB), Z24
	VBROADCASTSD zP1<>(SB), Z25
	VBROADCASTSD zP2<>(SB), Z26
	VBROADCASTSD zP3<>(SB), Z27
	VBROADCASTSD zP4<>(SB), Z28
	VBROADCASTSD zP5<>(SB), Z29
	TESTQ        AX, AX
	JNZ          one512

pow512:
	VMOVUPD (SI), Z0
	VMULPD  Z30, Z0, Z0
	VADDPD  Z8, Z0, Z0
	LOG512
	VMULPD  Z31, Z0, Z0
	EXP512
	VMOVUPD Z4, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     pow512
	VZEROUPPER
	RET

one512:
	VMOVUPD (SI), Z0
	VMULPD  Z30, Z0, Z0
	EXP512
	VMOVUPD Z4, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     one512
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// AVX2: the same sequences on four lanes, constants as memory operands,
// Y14 a and Y15 inv; Y0..Y7 are scratch. Where AVX-512 has a mask register
// these use a lane mask and VBLENDVPD: Y3 in LOG256 (f1 < Sqrt2/2), Y5 in
// EXP256 (|t| < 2^-28).

// LOG256: Y0 = log(Y0) for positive normal lanes. e is the exponent field,
// made a double as (2^52 | e) − 2^52; f1 is the mantissa field under the
// exponent of [1/2, 1).
#define LOG256 \
	VPSRLQ    $52, Y0, Y2; \
	VPOR      zTwo52<>(SB), Y2, Y2; \
	VSUBPD    zTwo52<>(SB), Y2, Y2; \
	VSUBPD    zC1022<>(SB), Y2, Y2; \
	VPAND     zMant<>(SB), Y0, Y1; \
	VPOR      zHalf<>(SB), Y1, Y1; \
	VCMPPD    $1, zSqrt2h<>(SB), Y1, Y3; \
	VADDPD    Y1, Y1, Y4; \
	VBLENDVPD Y3, Y4, Y1, Y1; \
	VSUBPD    zOne<>(SB), Y2, Y4; \
	VBLENDVPD Y3, Y4, Y2, Y2; \
	VSUBPD    zOne<>(SB), Y1, Y1; \
	VADDPD    zTwo<>(SB), Y1, Y3; \
	VDIVPD    Y3, Y1, Y3; \
	VMULPD    Y3, Y3, Y4; \
	VMULPD    Y4, Y4, Y5; \
	VMULPD    zL7<>(SB), Y5, Y6; \
	VADDPD    zL5<>(SB), Y6, Y6; \
	VMULPD    Y6, Y5, Y6; \
	VADDPD    zL3<>(SB), Y6, Y6; \
	VMULPD    Y6, Y5, Y6; \
	VADDPD    zL1<>(SB), Y6, Y6; \
	VMULPD    Y6, Y4, Y6; \
	VMULPD    zL6<>(SB), Y5, Y7; \
	VADDPD    zL4<>(SB), Y7, Y7; \
	VMULPD    Y7, Y5, Y7; \
	VADDPD    zL2<>(SB), Y7, Y7; \
	VMULPD    Y7, Y5, Y7; \
	VADDPD    Y7, Y6, Y6; \
	VMULPD    zHalf<>(SB), Y1, Y7; \
	VMULPD    Y1, Y7, Y7; \
	VADDPD    Y6, Y7, Y6; \
	VMULPD    Y6, Y3, Y6; \
	VMULPD    zLn2Lo<>(SB), Y2, Y4; \
	VADDPD    Y4, Y6, Y6; \
	VSUBPD    Y6, Y7, Y6; \
	VSUBPD    Y1, Y6, Y6; \
	VMULPD    zLn2Hi<>(SB), Y2, Y4; \
	VSUBPD    Y6, Y4, Y0

// EXP256: Y4 = exp(Y0). 2^k is added to y's exponent field: k + 1.5·2^52
// holds k in its low bits, less those of 1.5·2^52.
#define EXP256 \
	VANDPD    zAbs<>(SB), Y0, Y5; \
	VCMPPD    $1, zNearZero<>(SB), Y5, Y5; \
	VANDPD    zSign<>(SB), Y0, Y6; \
	VORPD     zHalf<>(SB), Y6, Y6; \
	VMULPD    zLog2e<>(SB), Y0, Y7; \
	VADDPD    Y6, Y7, Y7; \
	VROUNDPD  $11, Y7, Y7; \
	VMULPD    zLn2Hi<>(SB), Y7, Y6; \
	VSUBPD    Y6, Y0, Y6; \
	VMULPD    zLn2Lo<>(SB), Y7, Y4; \
	VSUBPD    Y4, Y6, Y1; \
	VMULPD    Y1, Y1, Y2; \
	VMULPD    zP5<>(SB), Y2, Y3; \
	VADDPD    zP4<>(SB), Y3, Y3; \
	VMULPD    Y3, Y2, Y3; \
	VADDPD    zP3<>(SB), Y3, Y3; \
	VMULPD    Y3, Y2, Y3; \
	VADDPD    zP2<>(SB), Y3, Y3; \
	VMULPD    Y3, Y2, Y3; \
	VADDPD    zP1<>(SB), Y3, Y3; \
	VMULPD    Y3, Y2, Y3; \
	VSUBPD    Y3, Y1, Y3; \
	VMULPD    Y3, Y1, Y1; \
	VMOVUPD   zTwo<>(SB), Y2; \
	VSUBPD    Y3, Y2, Y2; \
	VDIVPD    Y2, Y1, Y1; \
	VSUBPD    Y1, Y4, Y1; \
	VSUBPD    Y6, Y1, Y1; \
	VMOVUPD   zOne<>(SB), Y4; \
	VSUBPD    Y1, Y4, Y4; \
	VADDPD    zMagic<>(SB), Y7, Y7; \
	VPSUBQ    zMagic<>(SB), Y7, Y7; \
	VPSLLQ    $52, Y7, Y7; \
	VPADDQ    Y7, Y4, Y4; \
	VADDPD    zOne<>(SB), Y0, Y1; \
	VBLENDVPD Y5, Y1, Y4, Y4

// func zipfXAVX2(x, u *float64, n int, a, inv float64, one bool)
TEXT ·zipfXAVX2(SB), NOSPLIT, $0-41
	MOVQ         x+0(FP), DI
	MOVQ         u+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVBLZX      one+40(FP), AX
	VBROADCASTSD a+24(FP), Y14
	VBROADCASTSD inv+32(FP), Y15
	TESTQ        AX, AX
	JNZ          one256

pow256:
	VMOVUPD (SI), Y0
	VMULPD  Y14, Y0, Y0
	VADDPD  zOne<>(SB), Y0, Y0
	LOG256
	VMULPD  Y15, Y0, Y0
	EXP256
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     pow256
	VZEROUPPER
	RET

one256:
	VMOVUPD (SI), Y0
	VMULPD  Y14, Y0, Y0
	EXP256
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     one256
	VZEROUPPER
	RET
