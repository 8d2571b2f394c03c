// The two embedding row primitives, AVX-512F and AVX2. See kernel.go for the
// contract and docs/PERF.md ("Embedding kernels and batch generation").
//
// bagSum*: out[0:e] = Σ_{k<n} w[idx[k]·e : (idx[k]+1)·e], every idx[k]
// already checked against w's rows. A column panel's accumulators start at
// +0, stay in registers while the n rows are added in order k = 0, 1, …, and
// are stored once: every output element is one add chain in lookup order
// whatever the panel or ISA.
//
// updateRows*: for k = 0, 1, …, n-1 in order, if lo ≤ idx[k] < lo+span then
// w[idx[k]·e + i] -= lr·x[k·xs + i] for i < e, as VMULPS then VSUBPS: two
// roundings, never a fused multiply-add. The range test is unsigned, so a
// negative or too large index is skipped like any row outside the range; the
// caller has checked that the range lies inside w and that x holds n rows.
//
// In both, e is a positive multiple of 16 and n ≥ 1; the row is cut into
// column panels of 64, 32 or 16 floats, one pass over the n rows per panel.
// While k < pf a pass prefetches its lines of row idx[k+PFAHEAD] (updateRows:
// only if that row is in range); the caller guarantees idx[k+PFAHEAD] is
// readable for those k. It need not name a row of w: a prefetch never faults.
//
// No function touches the stack or calls out; each ends with VZEROUPPER.

#include "textflag.h"

// PFBYTES is pfAhead (kernel.go) index slots in bytes.
#define PFBYTES 64

// Registers:
//	R10  column base inside w     R11  row stride in bytes
//	DX   columns still to do      SI   index cursor
//	CX   rows left in this pass   R12  prefetches left in this pass
//	AX, BX  byte offsets of the row being processed / prefetched
// bagSum:     DI  output cursor
// updateRows: R14 lo, R15 span, DI scratch for the range test,
//	R8   x cursor, R9 x stride in bytes, R13 column base inside x

#define PF64 \
	PREFETCHT0 (R10)(BX*1); \
	PREFETCHT0 64(R10)(BX*1); \
	PREFETCHT0 128(R10)(BX*1); \
	PREFETCHT0 192(R10)(BX*1)
#define PF32 \
	PREFETCHT0 (R10)(BX*1); \
	PREFETCHT0 64(R10)(BX*1)
#define PF16 \
	PREFETCHT0 (R10)(BX*1)

// SUMPASS adds all n rows into one panel of COLS columns (BYTES bytes) and
// stores it. ZERO, PF, ADD and ST are the panel-width-specific bodies.
#define SUMPASS(ROW, NOPF, ZERO, PF, ADD, ST, BYTES, COLS) \
	ZERO; \
	MOVQ idx+24(FP), SI; \
	MOVQ n+32(FP), CX; \
	MOVQ pf+40(FP), R12; \
ROW: \
	DECQ R12; \
	JS   NOPF; \
	MOVLQSX PFBYTES(SI), BX; \
	IMULQ R11, BX; \
	PF; \
NOPF: \
	MOVLQSX (SI), AX; \
	IMULQ R11, AX; \
	ADD; \
	ADDQ $4, SI; \
	DECQ CX; \
	JNZ  ROW; \
	ST; \
	ADDQ $BYTES, DI; \
	ADDQ $BYTES, R10; \
	SUBQ $COLS, DX

#define SUM_ARGS \
	MOVQ out+0(FP), DI; \
	MOVQ e+8(FP), DX; \
	MOVQ w+16(FP), R10; \
	MOVQ DX, R11; \
	SHLQ $2, R11

// UPDPASS updates one panel of COLS columns of every in-range row. PF and UPD
// are the panel-width-specific bodies; the lr broadcast is in Z8 / Y8.
#define UPDPASS(ROW, NOPF, SKIP, PF, UPD, BYTES, COLS) \
	MOVQ idx+16(FP), SI; \
	MOVQ n+24(FP), CX; \
	MOVQ pf+72(FP), R12; \
	MOVQ R13, R8; \
ROW: \
	DECQ R12; \
	JS   NOPF; \
	MOVLQSX PFBYTES(SI), BX; \
	MOVQ BX, DI; \
	SUBQ R14, DI; \
	CMPQ DI, R15; \
	JAE  NOPF; \
	IMULQ R11, BX; \
	PF; \
NOPF: \
	MOVLQSX (SI), AX; \
	MOVQ AX, DI; \
	SUBQ R14, DI; \
	CMPQ DI, R15; \
	JAE  SKIP; \
	IMULQ R11, AX; \
	UPD; \
SKIP: \
	ADDQ $4, SI; \
	ADDQ R9, R8; \
	DECQ CX; \
	JNZ  ROW; \
	ADDQ $BYTES, R10; \
	ADDQ $BYTES, R13; \
	SUBQ $COLS, DX

#define UPD_ARGS \
	MOVQ w+0(FP), R10; \
	MOVQ e+8(FP), DX; \
	MOVQ DX, R11; \
	SHLQ $2, R11; \
	MOVQ lo+32(FP), R14; \
	MOVQ span+40(FP), R15; \
	MOVQ x+48(FP), R13; \
	MOVQ xs+56(FP), R9; \
	SHLQ $2, R9

// ---------------------------------------------------------------------------
// AVX-512F: a 64-column panel is four ZMM.

#define ZERO512_4 \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3
#define ADD512_4 \
	VADDPS (R10)(AX*1), Z0, Z0; \
	VADDPS 64(R10)(AX*1), Z1, Z1; \
	VADDPS 128(R10)(AX*1), Z2, Z2; \
	VADDPS 192(R10)(AX*1), Z3, Z3
#define ST512_4 \
	VMOVUPS Z0, (DI); \
	VMOVUPS Z1, 64(DI); \
	VMOVUPS Z2, 128(DI); \
	VMOVUPS Z3, 192(DI)
#define UPD512_4 \
	VMULPS (R8), Z8, Z0; \
	VMULPS 64(R8), Z8, Z1; \
	VMULPS 128(R8), Z8, Z2; \
	VMULPS 192(R8), Z8, Z3; \
	VMOVUPS (R10)(AX*1), Z4; \
	VMOVUPS 64(R10)(AX*1), Z5; \
	VMOVUPS 128(R10)(AX*1), Z6; \
	VMOVUPS 192(R10)(AX*1), Z7; \
	VSUBPS Z0, Z4, Z4; \
	VSUBPS Z1, Z5, Z5; \
	VSUBPS Z2, Z6, Z6; \
	VSUBPS Z3, Z7, Z7; \
	VMOVUPS Z4, (R10)(AX*1); \
	VMOVUPS Z5, 64(R10)(AX*1); \
	VMOVUPS Z6, 128(R10)(AX*1); \
	VMOVUPS Z7, 192(R10)(AX*1)

#define ZERO512_2 \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1
#define ADD512_2 \
	VADDPS (R10)(AX*1), Z0, Z0; \
	VADDPS 64(R10)(AX*1), Z1, Z1
#define ST512_2 \
	VMOVUPS Z0, (DI); \
	VMOVUPS Z1, 64(DI)
#define UPD512_2 \
	VMULPS (R8), Z8, Z0; \
	VMULPS 64(R8), Z8, Z1; \
	VMOVUPS (R10)(AX*1), Z4; \
	VMOVUPS 64(R10)(AX*1), Z5; \
	VSUBPS Z0, Z4, Z4; \
	VSUBPS Z1, Z5, Z5; \
	VMOVUPS Z4, (R10)(AX*1); \
	VMOVUPS Z5, 64(R10)(AX*1)

#define ZERO512_1 \
	VPXORD Z0, Z0, Z0
#define ADD512_1 \
	VADDPS (R10)(AX*1), Z0, Z0
#define ST512_1 \
	VMOVUPS Z0, (DI)
#define UPD512_1 \
	VMULPS (R8), Z8, Z0; \
	VMOVUPS (R10)(AX*1), Z4; \
	VSUBPS Z0, Z4, Z4; \
	VMOVUPS Z4, (R10)(AX*1)

// func bagSumAVX512(out *float32, e int, w *float32, idx *int32, n, pf int)
TEXT ·bagSumAVX512(SB), NOSPLIT, $0-48
	SUM_ARGS
wide:
	CMPQ DX, $64
	JLT  half
	SUMPASS(row4, nopf4, ZERO512_4, PF64, ADD512_4, ST512_4, 256, 64)
	JMP  wide
half:
	CMPQ DX, $32
	JLT  last
	SUMPASS(row2, nopf2, ZERO512_2, PF32, ADD512_2, ST512_2, 128, 32)
last:
	CMPQ DX, $16
	JLT  done
	SUMPASS(row1, nopf1, ZERO512_1, PF16, ADD512_1, ST512_1, 64, 16)
done:
	VZEROUPPER
	RET

// func updateRowsAVX512(w *float32, e int, idx *int32, n, lo, span int, x *float32, xs int, lr float32, pf int)
TEXT ·updateRowsAVX512(SB), NOSPLIT, $0-80
	UPD_ARGS
	VBROADCASTSS lr+64(FP), Z8
wide:
	CMPQ DX, $64
	JLT  half
	UPDPASS(row4, nopf4, skip4, PF64, UPD512_4, 256, 64)
	JMP  wide
half:
	CMPQ DX, $32
	JLT  last
	UPDPASS(row2, nopf2, skip2, PF32, UPD512_2, 128, 32)
last:
	CMPQ DX, $16
	JLT  done
	UPDPASS(row1, nopf1, skip1, PF16, UPD512_1, 64, 16)
done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// AVX2: a 64-column panel is eight YMM (updated as two halves of four: the
// products, the rows and lr do not fit sixteen registers).

#define ZERO256_8 \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7
#define ADD256_8 \
	VADDPS (R10)(AX*1), Y0, Y0; \
	VADDPS 32(R10)(AX*1), Y1, Y1; \
	VADDPS 64(R10)(AX*1), Y2, Y2; \
	VADDPS 96(R10)(AX*1), Y3, Y3; \
	VADDPS 128(R10)(AX*1), Y4, Y4; \
	VADDPS 160(R10)(AX*1), Y5, Y5; \
	VADDPS 192(R10)(AX*1), Y6, Y6; \
	VADDPS 224(R10)(AX*1), Y7, Y7
#define ST256_8 \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, 64(DI); \
	VMOVUPS Y3, 96(DI); \
	VMOVUPS Y4, 128(DI); \
	VMOVUPS Y5, 160(DI); \
	VMOVUPS Y6, 192(DI); \
	VMOVUPS Y7, 224(DI)
#define UPD256_8 \
	VMULPS (R8), Y8, Y0; \
	VMULPS 32(R8), Y8, Y1; \
	VMULPS 64(R8), Y8, Y2; \
	VMULPS 96(R8), Y8, Y3; \
	VMOVUPS (R10)(AX*1), Y4; \
	VMOVUPS 32(R10)(AX*1), Y5; \
	VMOVUPS 64(R10)(AX*1), Y6; \
	VMOVUPS 96(R10)(AX*1), Y7; \
	VSUBPS Y0, Y4, Y4; \
	VSUBPS Y1, Y5, Y5; \
	VSUBPS Y2, Y6, Y6; \
	VSUBPS Y3, Y7, Y7; \
	VMOVUPS Y4, (R10)(AX*1); \
	VMOVUPS Y5, 32(R10)(AX*1); \
	VMOVUPS Y6, 64(R10)(AX*1); \
	VMOVUPS Y7, 96(R10)(AX*1); \
	VMULPS 128(R8), Y8, Y0; \
	VMULPS 160(R8), Y8, Y1; \
	VMULPS 192(R8), Y8, Y2; \
	VMULPS 224(R8), Y8, Y3; \
	VMOVUPS 128(R10)(AX*1), Y4; \
	VMOVUPS 160(R10)(AX*1), Y5; \
	VMOVUPS 192(R10)(AX*1), Y6; \
	VMOVUPS 224(R10)(AX*1), Y7; \
	VSUBPS Y0, Y4, Y4; \
	VSUBPS Y1, Y5, Y5; \
	VSUBPS Y2, Y6, Y6; \
	VSUBPS Y3, Y7, Y7; \
	VMOVUPS Y4, 128(R10)(AX*1); \
	VMOVUPS Y5, 160(R10)(AX*1); \
	VMOVUPS Y6, 192(R10)(AX*1); \
	VMOVUPS Y7, 224(R10)(AX*1)

#define ZERO256_4 \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3
#define ADD256_4 \
	VADDPS (R10)(AX*1), Y0, Y0; \
	VADDPS 32(R10)(AX*1), Y1, Y1; \
	VADDPS 64(R10)(AX*1), Y2, Y2; \
	VADDPS 96(R10)(AX*1), Y3, Y3
#define ST256_4 \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, 64(DI); \
	VMOVUPS Y3, 96(DI)
#define UPD256_4 \
	VMULPS (R8), Y8, Y0; \
	VMULPS 32(R8), Y8, Y1; \
	VMULPS 64(R8), Y8, Y2; \
	VMULPS 96(R8), Y8, Y3; \
	VMOVUPS (R10)(AX*1), Y4; \
	VMOVUPS 32(R10)(AX*1), Y5; \
	VMOVUPS 64(R10)(AX*1), Y6; \
	VMOVUPS 96(R10)(AX*1), Y7; \
	VSUBPS Y0, Y4, Y4; \
	VSUBPS Y1, Y5, Y5; \
	VSUBPS Y2, Y6, Y6; \
	VSUBPS Y3, Y7, Y7; \
	VMOVUPS Y4, (R10)(AX*1); \
	VMOVUPS Y5, 32(R10)(AX*1); \
	VMOVUPS Y6, 64(R10)(AX*1); \
	VMOVUPS Y7, 96(R10)(AX*1)

#define ZERO256_2 \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1
#define ADD256_2 \
	VADDPS (R10)(AX*1), Y0, Y0; \
	VADDPS 32(R10)(AX*1), Y1, Y1
#define ST256_2 \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI)
#define UPD256_2 \
	VMULPS (R8), Y8, Y0; \
	VMULPS 32(R8), Y8, Y1; \
	VMOVUPS (R10)(AX*1), Y4; \
	VMOVUPS 32(R10)(AX*1), Y5; \
	VSUBPS Y0, Y4, Y4; \
	VSUBPS Y1, Y5, Y5; \
	VMOVUPS Y4, (R10)(AX*1); \
	VMOVUPS Y5, 32(R10)(AX*1)

// func bagSumAVX2(out *float32, e int, w *float32, idx *int32, n, pf int)
TEXT ·bagSumAVX2(SB), NOSPLIT, $0-48
	SUM_ARGS
wide:
	CMPQ DX, $64
	JLT  half
	SUMPASS(row8, nopf8, ZERO256_8, PF64, ADD256_8, ST256_8, 256, 64)
	JMP  wide
half:
	CMPQ DX, $32
	JLT  last
	SUMPASS(row4, nopf4, ZERO256_4, PF32, ADD256_4, ST256_4, 128, 32)
last:
	CMPQ DX, $16
	JLT  done
	SUMPASS(row2, nopf2, ZERO256_2, PF16, ADD256_2, ST256_2, 64, 16)
done:
	VZEROUPPER
	RET

// func updateRowsAVX2(w *float32, e int, idx *int32, n, lo, span int, x *float32, xs int, lr float32, pf int)
TEXT ·updateRowsAVX2(SB), NOSPLIT, $0-80
	UPD_ARGS
	VBROADCASTSS lr+64(FP), Y8
wide:
	CMPQ DX, $64
	JLT  half
	UPDPASS(row8, nopf8, skip8, PF64, UPD256_8, 256, 64)
	JMP  wide
half:
	CMPQ DX, $32
	JLT  last
	UPDPASS(row4, nopf4, skip4, PF32, UPD256_4, 128, 32)
last:
	CMPQ DX, $16
	JLT  done
	UPDPASS(row2, nopf2, skip2, PF16, UPD256_2, 64, 16)
done:
	VZEROUPPER
	RET
