// The seeded initializer's draw-and-convert pass, AVX-512F and AVX2. See
// lfStream.fill (seeded.go) for the contract: every body here gives the Go
// body's bits and consumes its outputs.
//
// lfFill*(x, w, n, scale) int: for i = 0, 8, 16, … < n, with x[-607..-1]
// the stream's last 607 outputs:
//	x[i+j] = x[i+j-607] + x[i+j-273] (mod 2⁶⁴), j < 8;
//	u = float32(float64(x & (2⁶³ − 1)) · 2⁻⁶³), each rounded to nearest even;
//	if any of the 8 u is 1, return i (that vector's floats unwritten);
//	w[i+j] = (u + u − 1) · scale, VADDPS / VSUBPS / VMULPS, never fused.
// It returns n when no vector holds a 1. n is a positive multiple of 8.
// The outputs of a vector never depend on each other (8 < 273), and a later
// vector reads the ones an earlier vector stored.
//
// The 63-bit integer becomes a float64 in AVX-512F / AVX2 alone, without
// AVX512DQ's VCVTQQ2PD: with hi = x[62:32], lo = x[31:0],
//	(2⁸⁴ + hi·2³²) − (2⁸⁴ + 2⁵²) = hi·2³² − 2⁵²   exact (a multiple of 2³²
//	                                               below 2⁶³ in magnitude)
//	(hi·2³² − 2⁵²) + (2⁵² + lo)  = hi·2³² + lo    rounded once, here
// where 2⁸⁴ + hi·2³² and 2⁵² + lo are the bit patterns 0x4530… | hi and
// 0x4330… | lo. The product with 2⁻⁶³ is exact, as Go's division by 2⁶³ is.
//
// Each step prefetches, for writing, the line of w 2 KiB ahead. Stores
// retire in order, so without it the stores of x wait behind w's line fills
// and the loads that read x back stall: refilling a touched table took
// 1.2–1.4 ns a float, against 0.24 for the recurrence alone and 0.74 for the
// stores of w alone (docs/PERF.md). A prefetch never faults, so it may run
// past w's end.
//
// No function touches the stack or calls out; each ends with VZEROUPPER.

#include "textflag.h"

#define LAG 4856 // 607 words back, in bytes
#define TAP 2184 // 273 words back, in bytes

#define C84 $0x4530000000000000 // 2⁸⁴: hi·2³² fits in its low mantissa bits
#define C52 $0x4330000000000000 // 2⁵²: lo fits in its low mantissa bits
#define C8452 $0x4530000000100000 // 2⁸⁴ + 2⁵²
#define P2M63 $0x3c00000000000000 // 2⁻⁶³
#define ONE32 $0x3f800000 // float32 1

// PREFETCHW 2048(DI), which the assembler does not know: 0F 0D /1 with a
// 32-bit displacement. The AVX2 CPUs that lack it (Haswell) run it as a
// NOP.
#define PREFETCHW_W BYTE $0x0f; BYTE $0x0d; BYTE $0x8f; LONG $2048

// func lfFillAVX512(x *uint64, w *float32, n int, scale float32) int
//
// Constants: Z16 2⁸⁴, Z17 2⁵² (as bits), Z18 2⁸⁴ + 2⁵², Z19 2⁻⁶³,
// Z20 0x7fffffff, Z21 0xffffffff (quadwords); Y14 float32 1, Y15 scale
// (VEX operands: Y0..Y15). Z0..Z2 and K1 are scratch.
TEXT ·lfFillAVX512(SB), NOSPLIT, $0-40
	MOVQ           x+0(FP), SI
	MOVQ           w+8(FP), DI
	MOVQ           n+16(FP), CX
	MOVQ           C84, AX
	VPBROADCASTQ   AX, Z16
	MOVQ           C52, AX
	VPBROADCASTQ   AX, Z17
	MOVQ           C8452, AX
	VPBROADCASTQ   AX, Z18
	MOVQ           P2M63, AX
	VPBROADCASTQ   AX, Z19
	MOVQ           $0x7fffffff, AX
	VPBROADCASTQ   AX, Z20
	MOVQ           $0xffffffff, AX
	VPBROADCASTQ   AX, Z21
	MOVL           ONE32, AX
	VPBROADCASTD   AX, Z14
	VBROADCASTSS   scale+24(FP), Z15
	XORQ           BX, BX

loop512:
	VMOVDQU64      -LAG(SI), Z0
	VPADDQ         -TAP(SI), Z0, Z0
	VMOVDQU64      Z0, (SI)
	VPSRLQ         $32, Z0, Z1
	VPTERNLOGQ     $0xea, Z16, Z20, Z1 // (hi & 0x7fffffff) | 2⁸⁴
	VPTERNLOGQ     $0xea, Z17, Z21, Z0 // (lo & 0xffffffff) | 2⁵²
	VSUBPD         Z18, Z1, Z1
	VADDPD         Z0, Z1, Z1
	VMULPD         Z19, Z1, Z1
	VCVTPD2PS      Z1, Y2
	VCMPPS         $0, Z14, Z2, K1 // lanes 8..15 of Z2 are 0
	KORTESTW       K1, K1
	JNZ            done512
	VADDPS         Y2, Y2, Y2
	VSUBPS         Y14, Y2, Y2
	VMULPS         Y15, Y2, Y2
	VMOVUPS        Y2, (DI)
	PREFETCHW_W
	ADDQ           $64, SI
	ADDQ           $32, DI
	ADDQ           $8, BX
	CMPQ           BX, CX
	JLT            loop512

done512:
	MOVQ           BX, ret+32(FP)
	VZEROUPPER
	RET

// HALF2: Y0 (four outputs) → X2 (four u), through Y1; clobbers Y0.
// Constants: Y8 2⁸⁴, Y9 2⁵² (as bits), Y10 2⁸⁴ + 2⁵², Y11 2⁻⁶³,
// Y12 0x7fffffff (quadwords).
#define HALF2(Y0, Y1, X2) \
	VPSRLQ     $32, Y0, Y1; \
	VPAND      Y12, Y1, Y1; \
	VPOR       Y8, Y1, Y1; \
	VPBLENDD   $0xaa, Y9, Y0, Y0; \
	VSUBPD     Y10, Y1, Y1; \
	VADDPD     Y0, Y1, Y1; \
	VMULPD     Y11, Y1, Y1; \
	VCVTPD2PSY Y1, X2

// func lfFillAVX2(x *uint64, w *float32, n int, scale float32) int
//
// Two quadword halves of four outputs a step; Y14 float32 1, Y15 scale.
// The constants enter through VMOVQ, not the legacy-SSE MOVQ: with MOVQ
// the loop ran at half speed (1.7–1.9 ns a float against 0.85–0.93).
TEXT ·lfFillAVX2(SB), NOSPLIT, $0-40
	MOVQ           x+0(FP), SI
	MOVQ           w+8(FP), DI
	MOVQ           n+16(FP), CX
	MOVQ           C84, AX
	VMOVQ          AX, X8
	VPBROADCASTQ   X8, Y8
	MOVQ           C52, AX
	VMOVQ          AX, X9
	VPBROADCASTQ   X9, Y9
	MOVQ           C8452, AX
	VMOVQ          AX, X10
	VPBROADCASTQ   X10, Y10
	MOVQ           P2M63, AX
	VMOVQ          AX, X11
	VPBROADCASTQ   X11, Y11
	MOVQ           $0x7fffffff, AX
	VMOVQ          AX, X12
	VPBROADCASTQ   X12, Y12
	MOVL           ONE32, AX
	VMOVQ          AX, X14
	VPBROADCASTD   X14, Y14
	VBROADCASTSS   scale+24(FP), Y15
	XORQ           BX, BX

loop256:
	VMOVDQU        -LAG(SI), Y0
	VPADDQ         -TAP(SI), Y0, Y0
	VMOVDQU        Y0, (SI)
	VMOVDQU        (32-LAG)(SI), Y3
	VPADDQ         (32-TAP)(SI), Y3, Y3
	VMOVDQU        Y3, 32(SI)
	HALF2(Y0, Y1, X2)
	HALF2(Y3, Y4, X5)
	VINSERTF128    $1, X5, Y2, Y2
	VCMPPS         $0, Y14, Y2, Y6
	VMOVMSKPS      Y6, AX
	TESTL          AX, AX
	JNZ            done256
	VADDPS         Y2, Y2, Y2
	VSUBPS         Y14, Y2, Y2
	VMULPS         Y15, Y2, Y2
	VMOVUPS        Y2, (DI)
	PREFETCHW_W
	ADDQ           $64, SI
	ADDQ           $32, DI
	ADDQ           $8, BX
	CMPQ           BX, CX
	JLT            loop256

done256:
	MOVQ           BX, ret+32(FP)
	VZEROUPPER
	RET
