// The element-wise sweeps of the MLP step, AVX-512F and AVX2. See sweep.go
// for the contract: every body here gives the Go body's bits exactly.
//
// transpose*: the full T×T squares (T = 16 on AVX-512, 8 on AVX2) of a
// bc×bk block, dst[ki·bc+ci] = src[ci·bk+ki]; bc, bk ≥ T. Each square is T
// row loads, a register transpose (VUNPCKL/HPS, VSHUFPS, then VSHUFF32X4
// twice or VPERM2F128 once) and T row stores. The Go wrapper moves the edge
// strips.
//
// sgd*: p[i] -= lr·g[i] for i < n, as VMULPS then VSUBPS: two roundings,
// never a fused multiply-add. n ≥ 1; the tail is masked.
//
// bias*: for each of rows ≥ 1 rows of bk ≥ 1 floats, v = v + bias[i], then
// with relu v = VMAXPS(0, v) + 0 — Go's max(v, 0): the second operand (v)
// comes back when either is NaN or both are zero, and adding +0 turns −0
// into +0 and leaves every other value as it is.
//
// grad*: dz = dy, or with relu dz = (0 NGE y) ? dy : +0 (dy where y > 0 or
// y is NaN), over rows ≥ 1 rows of bk ≥ 1 floats; db[i] = Σ rows of dz,
// accumulated in registers from +0 in row order and stored once.
//
// bias and grad walk column panels of 64 (AVX-512, masks K1..K4) or 32
// (AVX2, masks Y12..Y15) floats, every row of a panel before the next
// panel; a panel's bias or bias-gradient vectors stay in registers. Lanes
// outside the block are masked off, so nothing past it is read or written.
//
// No function touches the stack or calls out; each ends with VZEROUPPER.

#include "textflag.h"

// ---------------------------------------------------------------------------
// Transpose. Registers:
//	SI  source square-row cursor      DI  destination square-column cursor
//	AX  source square                 BX  destination square
//	R8  square rows left              R9  squares per row, CX squares left
//	R10 destination row stride        R11 source row stride (bytes)
//	R15 3·R10, R13 3·R11              DX  T·R10, R14 T·R11
//	R12 row pointer

#define TRANSPOSE_ARGS(shift) \
	MOVQ dst+0(FP), DI; \
	MOVQ src+8(FP), SI; \
	MOVQ bc+16(FP), R8; \
	MOVQ bk+24(FP), R9; \
	MOVQ R8, R10; \
	SHLQ $2, R10; \
	MOVQ R9, R11; \
	SHLQ $2, R11; \
	LEAQ (R10)(R10*2), R15; \
	LEAQ (R11)(R11*2), R13; \
	MOVQ R10, DX; \
	SHLQ $shift, DX; \
	MOVQ R11, R14; \
	SHLQ $shift, R14; \
	SHRQ $shift, R8; \
	SHRQ $shift, R9

#define LOAD4(a, b, c, d) \
	VMOVUPS (R12), a; \
	VMOVUPS (R12)(R11*1), b; \
	VMOVUPS (R12)(R11*2), c; \
	VMOVUPS (R12)(R13*1), d; \
	LEAQ    (R12)(R11*4), R12

#define STORE4(a, b, c, d) \
	VMOVUPS a, (R12); \
	VMOVUPS b, (R12)(R10*1); \
	VMOVUPS c, (R12)(R10*2); \
	VMOVUPS d, (R12)(R15*1); \
	LEAQ    (R12)(R10*4), R12

// TRANSPOSE16 transposes Z0..Z15 (row i in Zi) in place through Z16..Z31.
#define TRANSPOSE16 \
	VUNPCKLPS  Z1, Z0, Z16; \
	VUNPCKHPS  Z1, Z0, Z17; \
	VUNPCKLPS  Z3, Z2, Z18; \
	VUNPCKHPS  Z3, Z2, Z19; \
	VUNPCKLPS  Z5, Z4, Z20; \
	VUNPCKHPS  Z5, Z4, Z21; \
	VUNPCKLPS  Z7, Z6, Z22; \
	VUNPCKHPS  Z7, Z6, Z23; \
	VUNPCKLPS  Z9, Z8, Z24; \
	VUNPCKHPS  Z9, Z8, Z25; \
	VUNPCKLPS  Z11, Z10, Z26; \
	VUNPCKHPS  Z11, Z10, Z27; \
	VUNPCKLPS  Z13, Z12, Z28; \
	VUNPCKHPS  Z13, Z12, Z29; \
	VUNPCKLPS  Z15, Z14, Z30; \
	VUNPCKHPS  Z15, Z14, Z31; \
	VSHUFPS    $0x44, Z18, Z16, Z0; \
	VSHUFPS    $0xEE, Z18, Z16, Z1; \
	VSHUFPS    $0x44, Z19, Z17, Z2; \
	VSHUFPS    $0xEE, Z19, Z17, Z3; \
	VSHUFPS    $0x44, Z22, Z20, Z4; \
	VSHUFPS    $0xEE, Z22, Z20, Z5; \
	VSHUFPS    $0x44, Z23, Z21, Z6; \
	VSHUFPS    $0xEE, Z23, Z21, Z7; \
	VSHUFPS    $0x44, Z26, Z24, Z8; \
	VSHUFPS    $0xEE, Z26, Z24, Z9; \
	VSHUFPS    $0x44, Z27, Z25, Z10; \
	VSHUFPS    $0xEE, Z27, Z25, Z11; \
	VSHUFPS    $0x44, Z30, Z28, Z12; \
	VSHUFPS    $0xEE, Z30, Z28, Z13; \
	VSHUFPS    $0x44, Z31, Z29, Z14; \
	VSHUFPS    $0xEE, Z31, Z29, Z15; \
	VSHUFF32X4 $0x88, Z4, Z0, Z16; \
	VSHUFF32X4 $0x88, Z5, Z1, Z17; \
	VSHUFF32X4 $0x88, Z6, Z2, Z18; \
	VSHUFF32X4 $0x88, Z7, Z3, Z19; \
	VSHUFF32X4 $0xDD, Z4, Z0, Z20; \
	VSHUFF32X4 $0xDD, Z5, Z1, Z21; \
	VSHUFF32X4 $0xDD, Z6, Z2, Z22; \
	VSHUFF32X4 $0xDD, Z7, Z3, Z23; \
	VSHUFF32X4 $0x88, Z12, Z8, Z24; \
	VSHUFF32X4 $0x88, Z13, Z9, Z25; \
	VSHUFF32X4 $0x88, Z14, Z10, Z26; \
	VSHUFF32X4 $0x88, Z15, Z11, Z27; \
	VSHUFF32X4 $0xDD, Z12, Z8, Z28; \
	VSHUFF32X4 $0xDD, Z13, Z9, Z29; \
	VSHUFF32X4 $0xDD, Z14, Z10, Z30; \
	VSHUFF32X4 $0xDD, Z15, Z11, Z31; \
	VSHUFF32X4 $0x88, Z24, Z16, Z0; \
	VSHUFF32X4 $0x88, Z25, Z17, Z1; \
	VSHUFF32X4 $0x88, Z26, Z18, Z2; \
	VSHUFF32X4 $0x88, Z27, Z19, Z3; \
	VSHUFF32X4 $0x88, Z28, Z20, Z4; \
	VSHUFF32X4 $0x88, Z29, Z21, Z5; \
	VSHUFF32X4 $0x88, Z30, Z22, Z6; \
	VSHUFF32X4 $0x88, Z31, Z23, Z7; \
	VSHUFF32X4 $0xDD, Z24, Z16, Z8; \
	VSHUFF32X4 $0xDD, Z25, Z17, Z9; \
	VSHUFF32X4 $0xDD, Z26, Z18, Z10; \
	VSHUFF32X4 $0xDD, Z27, Z19, Z11; \
	VSHUFF32X4 $0xDD, Z28, Z20, Z12; \
	VSHUFF32X4 $0xDD, Z29, Z21, Z13; \
	VSHUFF32X4 $0xDD, Z30, Z22, Z14; \
	VSHUFF32X4 $0xDD, Z31, Z23, Z15

// func transposeAVX512(dst, src *float32, bc, bk int)
TEXT ·transposeAVX512(SB), NOSPLIT, $0-32
	TRANSPOSE_ARGS(4)

tr512Row:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R9, CX

tr512Square:
	MOVQ AX, R12
	LOAD4(Z0, Z1, Z2, Z3)
	LOAD4(Z4, Z5, Z6, Z7)
	LOAD4(Z8, Z9, Z10, Z11)
	LOAD4(Z12, Z13, Z14, Z15)
	TRANSPOSE16
	MOVQ BX, R12
	STORE4(Z0, Z1, Z2, Z3)
	STORE4(Z4, Z5, Z6, Z7)
	STORE4(Z8, Z9, Z10, Z11)
	STORE4(Z12, Z13, Z14, Z15)
	ADDQ $64, AX
	ADDQ DX, BX
	DECQ CX
	JNZ  tr512Square
	ADDQ R14, SI
	ADDQ $64, DI
	DECQ R8
	JNZ  tr512Row
	VZEROUPPER
	RET

// TRANSPOSE8 transposes Y0..Y7 (row i in Yi) into Y8..Y15.
#define TRANSPOSE8 \
	VUNPCKLPS  Y1, Y0, Y8; \
	VUNPCKHPS  Y1, Y0, Y9; \
	VUNPCKLPS  Y3, Y2, Y10; \
	VUNPCKHPS  Y3, Y2, Y11; \
	VUNPCKLPS  Y5, Y4, Y12; \
	VUNPCKHPS  Y5, Y4, Y13; \
	VUNPCKLPS  Y7, Y6, Y14; \
	VUNPCKHPS  Y7, Y6, Y15; \
	VSHUFPS    $0x44, Y10, Y8, Y0; \
	VSHUFPS    $0xEE, Y10, Y8, Y1; \
	VSHUFPS    $0x44, Y11, Y9, Y2; \
	VSHUFPS    $0xEE, Y11, Y9, Y3; \
	VSHUFPS    $0x44, Y14, Y12, Y4; \
	VSHUFPS    $0xEE, Y14, Y12, Y5; \
	VSHUFPS    $0x44, Y15, Y13, Y6; \
	VSHUFPS    $0xEE, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VPERM2F128 $0x20, Y5, Y1, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15

// func transposeAVX2(dst, src *float32, bc, bk int)
TEXT ·transposeAVX2(SB), NOSPLIT, $0-32
	TRANSPOSE_ARGS(3)

tr256Row:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R9, CX

tr256Square:
	MOVQ AX, R12
	LOAD4(Y0, Y1, Y2, Y3)
	LOAD4(Y4, Y5, Y6, Y7)
	TRANSPOSE8
	MOVQ BX, R12
	STORE4(Y8, Y9, Y10, Y11)
	STORE4(Y12, Y13, Y14, Y15)
	ADDQ $32, AX
	ADDQ DX, BX
	DECQ CX
	JNZ  tr256Square
	ADDQ R14, SI
	ADDQ $32, DI
	DECQ R8
	JNZ  tr256Row
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// SGD. DI params, SI gradients, CX elements left, Z8 / Y8 the lr broadcast.

// func sgdAVX512(p, grad *float32, n int, lr float32)
TEXT ·sgdAVX512(SB), NOSPLIT, $0-28
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS lr+24(FP), Z8

sgd512By64:
	CMPQ    CX, $64
	JB      sgd512By16
	VMULPS  (SI), Z8, Z0
	VMULPS  64(SI), Z8, Z1
	VMULPS  128(SI), Z8, Z2
	VMULPS  192(SI), Z8, Z3
	VMOVUPS (DI), Z4
	VMOVUPS 64(DI), Z5
	VMOVUPS 128(DI), Z6
	VMOVUPS 192(DI), Z7
	VSUBPS  Z0, Z4, Z4
	VSUBPS  Z1, Z5, Z5
	VSUBPS  Z2, Z6, Z6
	VSUBPS  Z3, Z7, Z7
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, 64(DI)
	VMOVUPS Z6, 128(DI)
	VMOVUPS Z7, 192(DI)
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $64, CX
	JMP     sgd512By64

sgd512By16:
	CMPQ    CX, $16
	JB      sgd512Tail
	VMULPS  (SI), Z8, Z0
	VMOVUPS (DI), Z4
	VSUBPS  Z0, Z4, Z4
	VMOVUPS Z4, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JMP     sgd512By16

sgd512Tail:
	TESTQ     CX, CX
	JZ        sgd512Done
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVW     AX, K1
	VMULPS.Z  (SI), Z8, K1, Z0
	VMOVUPS.Z (DI), K1, Z4
	VSUBPS    Z0, Z4, Z4
	VMOVUPS   Z4, K1, (DI)

sgd512Done:
	VZEROUPPER
	RET

// laneMask<> + 4·(8−m) is a VMASKMOVPS mask selecting the first m lanes.
DATA laneMask<>+0(SB)/8, $0xffffffffffffffff
DATA laneMask<>+8(SB)/8, $0xffffffffffffffff
DATA laneMask<>+16(SB)/8, $0xffffffffffffffff
DATA laneMask<>+24(SB)/8, $0xffffffffffffffff
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// func sgdAVX2(p, grad *float32, n int, lr float32)
TEXT ·sgdAVX2(SB), NOSPLIT, $0-28
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS lr+24(FP), Y8

sgd256By32:
	CMPQ    CX, $32
	JB      sgd256By8
	VMULPS  (SI), Y8, Y0
	VMULPS  32(SI), Y8, Y1
	VMULPS  64(SI), Y8, Y2
	VMULPS  96(SI), Y8, Y3
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	VSUBPS  Y0, Y4, Y4
	VSUBPS  Y1, Y5, Y5
	VSUBPS  Y2, Y6, Y6
	VSUBPS  Y3, Y7, Y7
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     sgd256By32

sgd256By8:
	CMPQ    CX, $8
	JB      sgd256Tail
	VMULPS  (SI), Y8, Y0
	VMOVUPS (DI), Y4
	VSUBPS  Y0, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     sgd256By8

sgd256Tail:
	TESTQ      CX, CX
	JZ         sgd256Done
	LEAQ       laneMask<>(SB), BX
	MOVQ       $8, AX
	SUBQ       CX, AX
	VMOVDQU    (BX)(AX*4), Y9
	VMASKMOVPS (SI), Y9, Y0
	VMULPS     Y0, Y8, Y0
	VMASKMOVPS (DI), Y9, Y4
	VSUBPS     Y0, Y4, Y4
	VMASKMOVPS Y4, Y9, (DI)

sgd256Done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Bias and grad, AVX-512: 64-column panels, K1..K4 masking the panel's four
// vectors. DX columns left, R11 row stride in bytes, CX rows left.

// PANEL512 sets K1..K4 from w = min(DX, 64) (clobbers AX, BX, CX).
#define PANEL512 \
	MOVQ    $64, CX; \
	SUBQ    DX, CX; \
	XORQ    AX, AX; \
	CMPQ    CX, AX; \
	CMOVQLT AX, CX; \
	MOVQ    $-1, BX; \
	SHRQ    CX, BX; \
	KMOVW   BX, K1; \
	SHRQ    $16, BX; \
	KMOVW   BX, K2; \
	SHRQ    $16, BX; \
	KMOVW   BX, K3; \
	SHRQ    $16, BX; \
	KMOVW   BX, K4

// Bias: DI panel of the block, SI panel of the bias, R12 row pointer,
// Z8..Z11 the panel's bias, Z15 zero.
#define BIAS_LIN(off, K, B, V) \
	VMOVUPS.Z off(R12), K, V; \
	VADDPS    B, V, V; \
	VMOVUPS   V, K, off(R12)

#define BIAS_RELU(off, K, B, V) \
	VMOVUPS.Z off(R12), K, V; \
	VADDPS    B, V, V; \
	VMAXPS    V, Z15, V; \
	VADDPS    Z15, V, V; \
	VMOVUPS   V, K, off(R12)

// func biasAVX512(blk, bias *float32, rows, bk int, relu bool)
TEXT ·biasAVX512(SB), NOSPLIT, $0-33
	MOVQ    blk+0(FP), DI
	MOVQ    bias+8(FP), SI
	MOVQ    bk+24(FP), DX
	MOVQ    DX, R11
	SHLQ    $2, R11
	MOVBLZX relu+32(FP), R9
	VPXORD  Z15, Z15, Z15

bias512Panel:
	PANEL512
	VMOVUPS.Z (SI), K1, Z8
	VMOVUPS.Z 64(SI), K2, Z9
	VMOVUPS.Z 128(SI), K3, Z10
	VMOVUPS.Z 192(SI), K4, Z11
	MOVQ      DI, R12
	MOVQ      rows+16(FP), CX
	TESTQ     R9, R9
	JNZ       bias512Relu

bias512Lin:
	BIAS_LIN(0, K1, Z8, Z0)
	BIAS_LIN(64, K2, Z9, Z1)
	BIAS_LIN(128, K3, Z10, Z2)
	BIAS_LIN(192, K4, Z11, Z3)
	ADDQ R11, R12
	DECQ CX
	JNZ  bias512Lin
	JMP  bias512Next

bias512Relu:
	BIAS_RELU(0, K1, Z8, Z0)
	BIAS_RELU(64, K2, Z9, Z1)
	BIAS_RELU(128, K3, Z10, Z2)
	BIAS_RELU(192, K4, Z11, Z3)
	ADDQ R11, R12
	DECQ CX
	JNZ  bias512Relu

bias512Next:
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $64, DX
	JG   bias512Panel
	VZEROUPPER
	RET

// Grad: DI dz, SI dy, R8 y, R9 db (panel starts), R12 the row's byte
// offset, Z0..Z3 the panel's bias-gradient sums, Z15 zero.
#define GRAD_LIN(off, K, V, A) \
	VMOVUPS.Z off(SI)(R12*1), K, V; \
	VMOVUPS   V, K, off(DI)(R12*1); \
	VADDPS    V, A, A

// K5 = K ∧ (0 NGE y): the lanes where y > 0 or y is NaN keep dy.
#define GRAD_RELU(off, K, V, A) \
	VCMPPS    $0x19, off(R8)(R12*1), Z15, K, K5; \
	VMOVUPS.Z off(SI)(R12*1), K5, V; \
	VMOVUPS   V, K, off(DI)(R12*1); \
	VADDPS    V, A, A

// func gradAVX512(dz, dy, y, db *float32, rows, bk int, relu bool)
TEXT ·gradAVX512(SB), NOSPLIT, $0-49
	MOVQ    dz+0(FP), DI
	MOVQ    dy+8(FP), SI
	MOVQ    y+16(FP), R8
	MOVQ    db+24(FP), R9
	MOVQ    bk+40(FP), DX
	MOVQ    DX, R11
	SHLQ    $2, R11
	MOVBLZX relu+48(FP), R10
	VPXORD  Z15, Z15, Z15

grad512Panel:
	PANEL512
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	XORQ   R12, R12
	MOVQ   rows+32(FP), CX
	TESTQ  R10, R10
	JNZ    grad512Relu

grad512Lin:
	GRAD_LIN(0, K1, Z4, Z0)
	GRAD_LIN(64, K2, Z5, Z1)
	GRAD_LIN(128, K3, Z6, Z2)
	GRAD_LIN(192, K4, Z7, Z3)
	ADDQ R11, R12
	DECQ CX
	JNZ  grad512Lin
	JMP  grad512Store

grad512Relu:
	GRAD_RELU(0, K1, Z4, Z0)
	GRAD_RELU(64, K2, Z5, Z1)
	GRAD_RELU(128, K3, Z6, Z2)
	GRAD_RELU(192, K4, Z7, Z3)
	ADDQ R11, R12
	DECQ CX
	JNZ  grad512Relu

grad512Store:
	VMOVUPS Z0, K1, (R9)
	VMOVUPS Z1, K2, 64(R9)
	VMOVUPS Z2, K3, 128(R9)
	VMOVUPS Z3, K4, 192(R9)
	ADDQ    $256, DI
	ADDQ    $256, SI
	ADDQ    $256, R8
	ADDQ    $256, R9
	SUBQ    $64, DX
	JG      grad512Panel
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Bias and grad, AVX2: 32-column panels, Y12..Y15 masking the panel's four
// vectors through VMASKMOVPS. DX columns left, R11 row stride in bytes, CX
// rows left, R15 the laneMask<> table, R14 = 8, R13 = 0, Y7 zero.

// MASK256(j, y) loads into y the mask of the panel's vector j: its first
// min(max(DX − 8j, 0), 8) lanes (clobbers AX, BX).
#define MASK256(j, y) \
	MOVQ    DX, BX; \
	SUBQ    $(8*j), BX; \
	CMPQ    BX, R13; \
	CMOVQLT R13, BX; \
	CMPQ    BX, R14; \
	CMOVQGT R14, BX; \
	MOVQ    R14, AX; \
	SUBQ    BX, AX; \
	VMOVDQU (R15)(AX*4), y

#define PANEL256 \
	MASK256(0, Y12); \
	MASK256(1, Y13); \
	MASK256(2, Y14); \
	MASK256(3, Y15)

#define SETUP256 \
	LEAQ   laneMask<>(SB), R15; \
	MOVQ   $8, R14; \
	XORQ   R13, R13; \
	VXORPS Y7, Y7, Y7

#define BIAS2_LIN(off, M, B, V) \
	VMASKMOVPS off(R12), M, V; \
	VADDPS     B, V, V; \
	VMASKMOVPS V, M, off(R12)

#define BIAS2_RELU(off, M, B, V) \
	VMASKMOVPS off(R12), M, V; \
	VADDPS     B, V, V; \
	VMAXPS     V, Y7, V; \
	VADDPS     Y7, V, V; \
	VMASKMOVPS V, M, off(R12)

// func biasAVX2(blk, bias *float32, rows, bk int, relu bool)
TEXT ·biasAVX2(SB), NOSPLIT, $0-33
	MOVQ    blk+0(FP), DI
	MOVQ    bias+8(FP), SI
	MOVQ    bk+24(FP), DX
	MOVQ    DX, R11
	SHLQ    $2, R11
	MOVBLZX relu+32(FP), R9
	SETUP256

bias256Panel:
	PANEL256
	VMASKMOVPS (SI), Y12, Y8
	VMASKMOVPS 32(SI), Y13, Y9
	VMASKMOVPS 64(SI), Y14, Y10
	VMASKMOVPS 96(SI), Y15, Y11
	MOVQ       DI, R12
	MOVQ       rows+16(FP), CX
	TESTQ      R9, R9
	JNZ        bias256Relu

bias256Lin:
	BIAS2_LIN(0, Y12, Y8, Y0)
	BIAS2_LIN(32, Y13, Y9, Y1)
	BIAS2_LIN(64, Y14, Y10, Y2)
	BIAS2_LIN(96, Y15, Y11, Y3)
	ADDQ R11, R12
	DECQ CX
	JNZ  bias256Lin
	JMP  bias256Next

bias256Relu:
	BIAS2_RELU(0, Y12, Y8, Y0)
	BIAS2_RELU(32, Y13, Y9, Y1)
	BIAS2_RELU(64, Y14, Y10, Y2)
	BIAS2_RELU(96, Y15, Y11, Y3)
	ADDQ R11, R12
	DECQ CX
	JNZ  bias256Relu

bias256Next:
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, DX
	JG   bias256Panel
	VZEROUPPER
	RET

#define GRAD2_LIN(off, M, A) \
	VMASKMOVPS off(SI)(R12*1), M, Y4; \
	VMASKMOVPS Y4, M, off(DI)(R12*1); \
	VADDPS     Y4, A, A

// Y6 = (0 NGE y): all ones where y > 0 or y is NaN.
#define GRAD2_RELU(off, M, A) \
	VMASKMOVPS off(R8)(R12*1), M, Y5; \
	VCMPPS     $0x19, Y5, Y7, Y6; \
	VMASKMOVPS off(SI)(R12*1), M, Y4; \
	VANDPS     Y6, Y4, Y4; \
	VMASKMOVPS Y4, M, off(DI)(R12*1); \
	VADDPS     Y4, A, A

// func gradAVX2(dz, dy, y, db *float32, rows, bk int, relu bool)
TEXT ·gradAVX2(SB), NOSPLIT, $0-49
	MOVQ    dz+0(FP), DI
	MOVQ    dy+8(FP), SI
	MOVQ    y+16(FP), R8
	MOVQ    db+24(FP), R9
	MOVQ    bk+40(FP), DX
	MOVQ    DX, R11
	SHLQ    $2, R11
	MOVBLZX relu+48(FP), R10
	SETUP256

grad256Panel:
	PANEL256
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   R12, R12
	MOVQ   rows+32(FP), CX
	TESTQ  R10, R10
	JNZ    grad256Relu

grad256Lin:
	GRAD2_LIN(0, Y12, Y0)
	GRAD2_LIN(32, Y13, Y1)
	GRAD2_LIN(64, Y14, Y2)
	GRAD2_LIN(96, Y15, Y3)
	ADDQ R11, R12
	DECQ CX
	JNZ  grad256Lin
	JMP  grad256Store

grad256Relu:
	GRAD2_RELU(0, Y12, Y0)
	GRAD2_RELU(32, Y13, Y1)
	GRAD2_RELU(64, Y14, Y2)
	GRAD2_RELU(96, Y15, Y3)
	ADDQ R11, R12
	DECQ CX
	JNZ  grad256Relu

grad256Store:
	VMASKMOVPS Y0, Y12, (R9)
	VMASKMOVPS Y1, Y13, 32(R9)
	VMASKMOVPS Y2, Y14, 64(R9)
	VMASKMOVPS Y3, Y15, 96(R9)
	ADDQ       $128, DI
	ADDQ       $128, SI
	ADDQ       $128, R8
	ADDQ       $128, R9
	SUBQ       $32, DX
	JG         grad256Panel
	VZEROUPPER
	RET
