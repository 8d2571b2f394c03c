// Batch-reduce GEMM register tiles, AVX-512F and AVX2+FMA. See kernel.go for
// the contract and docs/PERF.md ("GEMM micro-kernel") for the tile shapes.
//
// Every function computes, for one tile of `rows` output rows (4 or 1) by w
// output columns held in vector registers for the whole call,
//
//	out[i][k] (+)= Σ_t Σ_r  B_t[bOff + i·sbm + r·sbr] · A_t[aOff + r·lda + k]
//
// with a and b pointing at the first of nt consecutive Go slice headers (24
// bytes each, data pointer first), every offset and stride in bytes, and lda
// also the byte stride between output rows. Each output element is one FMA
// chain over (t, r) in order: the variants differ only in which elements
// share a register, never in the order of a reduction, so they agree bit for
// bit. Columns at or beyond w are neither read nor written (opmask registers
// on AVX-512, VMASKMOVPS on AVX2). No function touches the stack or calls
// out; each ends with VZEROUPPER.

#include "textflag.h"

// Registers common to all variants:
//	R8, R9   cursors into the A and B slice-header lists
//	R10      tiles left
//	R11, R12 aOff, bOff
//	R13      sbr
//	AX       lda
//	BX, DX   sbm, 3·sbm (4-row tiles)
//	SI, DI   A and B read pointers inside the current tile
//	CX       reduction steps left in the current tile
#define LOAD_ARGS \
	MOVQ a+0(FP), R8; \
	MOVQ b+8(FP), R9; \
	MOVQ nt+16(FP), R10; \
	MOVQ aOff+24(FP), R11; \
	MOVQ bOff+32(FP), R12; \
	MOVQ sbr+64(FP), R13; \
	MOVQ lda+48(FP), AX; \
	MOVQ sbm+56(FP), BX; \
	LEAQ (BX)(BX*2), DX

// REDUCE walks every tile and every reduction index, running STEP once per
// (t, r) with SI at row r of A_t and DI at B_t[bOff + r·sbr].
#define REDUCE(TILE, RED, STEP) \
TILE: \
	MOVQ (R8), SI; \
	ADDQ R11, SI; \
	MOVQ (R9), DI; \
	ADDQ R12, DI; \
	MOVQ r+40(FP), CX; \
RED: \
	STEP; \
	ADDQ AX, SI; \
	ADDQ R13, DI; \
	DECQ CX; \
	JNZ  RED; \
	ADDQ $24, R8; \
	ADDQ $24, R9; \
	DECQ R10; \
	JNZ  TILE

// ---------------------------------------------------------------------------
// AVX-512F: 64-column panels. K1..K4 mask the panel's four ZMM columns.
// 4-row tile: Z0..Z15 accumulate (row i, column vector j in Z(4i+j)),
// Z16..Z19 hold one row of A, Z20..Z23 the four broadcast B scalars.
// 1-row tile: Z0..Z3 accumulate, Z20 is the broadcast, A is a memory operand.

// MASKS512 sets K1..K4 from w in 1..64 (clobbers AX, CX).
#define MASKS512 \
	MOVQ  $64, CX; \
	SUBQ  w+80(FP), CX; \
	MOVQ  $-1, AX; \
	SHRQ  CX, AX; \
	KMOVW AX, K1; \
	SHRQ  $16, AX; \
	KMOVW AX, K2; \
	SHRQ  $16, AX; \
	KMOVW AX, K3; \
	SHRQ  $16, AX; \
	KMOVW AX, K4

#define ZERO512(v0, v1, v2, v3) \
	VPXORD v0, v0, v0; \
	VPXORD v1, v1, v1; \
	VPXORD v2, v2, v2; \
	VPXORD v3, v3, v3

#define LOAD512(p, v0, v1, v2, v3) \
	VMOVUPS.Z (p), K1, v0; \
	VMOVUPS.Z 64(p), K2, v1; \
	VMOVUPS.Z 128(p), K3, v2; \
	VMOVUPS.Z 192(p), K4, v3

#define STORE512(p, v0, v1, v2, v3) \
	VMOVUPS v0, K1, (p); \
	VMOVUPS v1, K2, 64(p); \
	VMOVUPS v2, K3, 128(p); \
	VMOVUPS v3, K4, 192(p)

#define FMA512(x, v0, v1, v2, v3) \
	VFMADD231PS Z16, x, v0; \
	VFMADD231PS Z17, x, v1; \
	VFMADD231PS Z18, x, v2; \
	VFMADD231PS Z19, x, v3

// One reduction step of the 4-row tile, in three loops. A masked load costs
// an extra µop on the FMA ports (measured: 67 % vs 93 % of FMA peak), so the
// full 64-column panel — the common bk — reads A with plain loads
// (STEP4_512) and only narrower panels go through K1..K4 (STEP4_512_TAIL).
// Panels of at most 32 columns, whose last two vectors are masked off
// entirely, skip those vectors' loads and FMAs (STEP4_512_NARROW): the
// 1-column panels of bc = 1 / K = 1 layers are most of dist-func4's
// backward-by-data, whose step is 16–20 % slower through the tail loop.
#define ROWS4_512 \
	VBROADCASTSS (DI), Z20; \
	FMA512(Z20, Z0, Z1, Z2, Z3); \
	VBROADCASTSS (DI)(BX*1), Z21; \
	FMA512(Z21, Z4, Z5, Z6, Z7); \
	VBROADCASTSS (DI)(BX*2), Z22; \
	FMA512(Z22, Z8, Z9, Z10, Z11); \
	VBROADCASTSS (DI)(DX*1), Z23; \
	FMA512(Z23, Z12, Z13, Z14, Z15)

#define STEP4_512 \
	VMOVUPS (SI), Z16; \
	VMOVUPS 64(SI), Z17; \
	VMOVUPS 128(SI), Z18; \
	VMOVUPS 192(SI), Z19; \
	ROWS4_512

#define STEP4_512_TAIL \
	LOAD512(SI, Z16, Z17, Z18, Z19); \
	ROWS4_512

#define FMA512_NARROW(x, v0, v1) \
	VFMADD231PS Z16, x, v0; \
	VFMADD231PS Z17, x, v1

#define STEP4_512_NARROW \
	VMOVUPS.Z (SI), K1, Z16; \
	VMOVUPS.Z 64(SI), K2, Z17; \
	VBROADCASTSS (DI), Z20; \
	FMA512_NARROW(Z20, Z0, Z1); \
	VBROADCASTSS (DI)(BX*1), Z21; \
	FMA512_NARROW(Z21, Z4, Z5); \
	VBROADCASTSS (DI)(BX*2), Z22; \
	FMA512_NARROW(Z22, Z8, Z9); \
	VBROADCASTSS (DI)(DX*1), Z23; \
	FMA512_NARROW(Z23, Z12, Z13)

#define STEP1_512 \
	VBROADCASTSS (DI), Z20; \
	VFMADD231PS (SI), Z20, K1, Z0; \
	VFMADD231PS 64(SI), Z20, K2, Z1; \
	VFMADD231PS 128(SI), Z20, K3, Z2; \
	VFMADD231PS 192(SI), Z20, K4, Z3

// func brTile4AVX512(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)
TEXT ·brTile4AVX512(SB), NOSPLIT, $0-89
	MASKS512
	LOAD_ARGS
	CMPB zero+88(FP), $0
	JNE  zero4
	MOVQ out+72(FP), DI
	LOAD512(DI, Z0, Z1, Z2, Z3)
	ADDQ AX, DI
	LOAD512(DI, Z4, Z5, Z6, Z7)
	ADDQ AX, DI
	LOAD512(DI, Z8, Z9, Z10, Z11)
	ADDQ AX, DI
	LOAD512(DI, Z12, Z13, Z14, Z15)
	JMP  pick4

zero4:
	ZERO512(Z0, Z1, Z2, Z3)
	ZERO512(Z4, Z5, Z6, Z7)
	ZERO512(Z8, Z9, Z10, Z11)
	ZERO512(Z12, Z13, Z14, Z15)

pick4:
	MOVQ w+80(FP), CX
	CMPQ CX, $64
	JEQ  tile4
	CMPQ CX, $32
	JLE  tile4n

	REDUCE(tile4t, red4t, STEP4_512_TAIL)
	JMP store4

	REDUCE(tile4, red4, STEP4_512)
	JMP store4

	REDUCE(tile4n, red4n, STEP4_512_NARROW)

store4:
	MOVQ out+72(FP), DI
	STORE512(DI, Z0, Z1, Z2, Z3)
	ADDQ AX, DI
	STORE512(DI, Z4, Z5, Z6, Z7)
	ADDQ AX, DI
	STORE512(DI, Z8, Z9, Z10, Z11)
	ADDQ AX, DI
	STORE512(DI, Z12, Z13, Z14, Z15)
	VZEROUPPER
	RET

// func brTile1AVX512(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)
TEXT ·brTile1AVX512(SB), NOSPLIT, $0-89
	MASKS512
	LOAD_ARGS
	ZERO512(Z0, Z1, Z2, Z3)
	CMPB zero+88(FP), $0
	JNE  tile1
	MOVQ out+72(FP), DI
	LOAD512(DI, Z0, Z1, Z2, Z3)

	REDUCE(tile1, red1, STEP1_512)

	MOVQ out+72(FP), DI
	STORE512(DI, Z0, Z1, Z2, Z3)
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// AVX2 + FMA. Full panels read A with plain loads; a panel narrower than
// the tile (the masked tail of bk) goes through VMASKMOVPS, which costs an
// extra µop per load and so gets its own reduction loop. The accumulators
// are loaded and stored through the masks either way (once per call).
// 4-row tile, 16-column panels: Y0..Y7 accumulate (row i, column vector j in
// Y(2i+j)), Y8/Y9 hold one row of A, Y10/Y11 the broadcasts, Y12/Y13 the
// column masks.
// 1-row tile, 32-column panels: Y0..Y3 accumulate, Y4 is the broadcast,
// Y8..Y11 hold a masked row of A, Y12..Y15 the column masks.

// laneMask<> + 4·(8−n) is a VMASKMOVPS mask selecting the first n lanes.
DATA laneMask<>+0(SB)/8, $0xffffffffffffffff
DATA laneMask<>+8(SB)/8, $0xffffffffffffffff
DATA laneMask<>+16(SB)/8, $0xffffffffffffffff
DATA laneMask<>+24(SB)/8, $0xffffffffffffffff
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// MASK256 loads into y the mask of column vector j (lanes 8j..8j+7) of a
// panel w columns wide: min(max(w − 8j, 0), 8) leading lanes. Clobbers AX,
// CX, SI; DI must hold $8 and BX the table address.
#define MASK256(j, y) \
	MOVQ    w+80(FP), AX; \
	SUBQ    $(8*j), AX; \
	XORQ    CX, CX; \
	CMPQ    AX, CX; \
	CMOVQLT CX, AX; \
	CMPQ    AX, DI; \
	CMOVQGT DI, AX; \
	MOVQ    DI, SI; \
	SUBQ    AX, SI; \
	VMOVDQU (BX)(SI*4), y

#define MASKS256_2 \
	LEAQ laneMask<>(SB), BX; \
	MOVQ $8, DI; \
	MASK256(0, Y12); \
	MASK256(1, Y13)

#define MASKS256_4 \
	MASKS256_2; \
	MASK256(2, Y14); \
	MASK256(3, Y15)

#define LOAD256_2(p, v0, v1) \
	VMASKMOVPS (p), Y12, v0; \
	VMASKMOVPS 32(p), Y13, v1

#define STORE256_2(p, v0, v1) \
	VMASKMOVPS v0, Y12, (p); \
	VMASKMOVPS v1, Y13, 32(p)

#define FMA256_2(x, v0, v1) \
	VFMADD231PS Y8, x, v0; \
	VFMADD231PS Y9, x, v1

#define ROWS4_256 \
	VBROADCASTSS (DI), Y10; \
	FMA256_2(Y10, Y0, Y1); \
	VBROADCASTSS (DI)(BX*1), Y11; \
	FMA256_2(Y11, Y2, Y3); \
	VBROADCASTSS (DI)(BX*2), Y10; \
	FMA256_2(Y10, Y4, Y5); \
	VBROADCASTSS (DI)(DX*1), Y11; \
	FMA256_2(Y11, Y6, Y7)

#define STEP4_256 \
	VMOVUPS (SI), Y8; \
	VMOVUPS 32(SI), Y9; \
	ROWS4_256

#define STEP4_256_TAIL \
	LOAD256_2(SI, Y8, Y9); \
	ROWS4_256

#define STEP1_256 \
	VBROADCASTSS (DI), Y4; \
	VFMADD231PS (SI), Y4, Y0; \
	VFMADD231PS 32(SI), Y4, Y1; \
	VFMADD231PS 64(SI), Y4, Y2; \
	VFMADD231PS 96(SI), Y4, Y3

#define STEP1_256_TAIL \
	VBROADCASTSS (DI), Y4; \
	VMASKMOVPS (SI), Y12, Y8; \
	VMASKMOVPS 32(SI), Y13, Y9; \
	VMASKMOVPS 64(SI), Y14, Y10; \
	VMASKMOVPS 96(SI), Y15, Y11; \
	VFMADD231PS Y8, Y4, Y0; \
	VFMADD231PS Y9, Y4, Y1; \
	VFMADD231PS Y10, Y4, Y2; \
	VFMADD231PS Y11, Y4, Y3

// func brTile4AVX2(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)
TEXT ·brTile4AVX2(SB), NOSPLIT, $0-89
	MASKS256_2
	LOAD_ARGS
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CMPB   zero+88(FP), $0
	JNE    pick4
	MOVQ   out+72(FP), DI
	LOAD256_2(DI, Y0, Y1)
	ADDQ   AX, DI
	LOAD256_2(DI, Y2, Y3)
	ADDQ   AX, DI
	LOAD256_2(DI, Y4, Y5)
	ADDQ   AX, DI
	LOAD256_2(DI, Y6, Y7)

pick4:
	CMPQ w+80(FP), $16
	JLT  tail4

	REDUCE(tile4, red4, STEP4_256)
	JMP store4

tail4:
	REDUCE(tile4t, red4t, STEP4_256_TAIL)

store4:
	MOVQ out+72(FP), DI
	STORE256_2(DI, Y0, Y1)
	ADDQ AX, DI
	STORE256_2(DI, Y2, Y3)
	ADDQ AX, DI
	STORE256_2(DI, Y4, Y5)
	ADDQ AX, DI
	STORE256_2(DI, Y6, Y7)
	VZEROUPPER
	RET

// func brTile1AVX2(a, b *[]float32, nt int, aOff, bOff uintptr, r int, lda, sbm, sbr uintptr, out *float32, w int, zero bool)
TEXT ·brTile1AVX2(SB), NOSPLIT, $0-89
	MASKS256_4
	LOAD_ARGS
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPB   zero+88(FP), $0
	JNE    pick1
	MOVQ   out+72(FP), DI
	VMASKMOVPS (DI), Y12, Y0
	VMASKMOVPS 32(DI), Y13, Y1
	VMASKMOVPS 64(DI), Y14, Y2
	VMASKMOVPS 96(DI), Y15, Y3

pick1:
	CMPQ w+80(FP), $32
	JLT  tail1

	REDUCE(tile1, red1, STEP1_256)
	JMP store1

tail1:
	REDUCE(tile1t, red1t, STEP1_256_TAIL)

store1:
	MOVQ out+72(FP), DI
	VMASKMOVPS Y0, Y12, (DI)
	VMASKMOVPS Y1, Y13, 32(DI)
	VMASKMOVPS Y2, Y14, 64(DI)
	VMASKMOVPS Y3, Y15, 96(DI)
	VZEROUPPER
	RET
