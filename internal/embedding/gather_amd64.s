// The slot gather, AVX-512F and AVX2. See GatherSlots (gather.go) for the
// contract.
//
// gatherSlots*(bits, slots, nslots, idx, n): bits[i] = slots[idx[i]] where
// uint32(idx[i]) < nslots, else 0, for i < n; n is a positive multiple of 8,
// 0 < nslots < 2³¹. Masked-off lanes load nothing: an index past the slots,
// or a negative one, is never dereferenced.
//
// The slots are atomic.Uint64s, each written once (the batch generator's
// head scores: by whichever fill first computes a row's score), and read
// here with plain vector loads, which the race detector does not see. That
// is safe: every slot is 8-byte aligned, and an aligned 8-byte load is
// single-copy atomic on amd64, so a lane reads either the slot's 0 or its
// whole value; a 0 sends the caller to its scalar path, whose atomic Load
// sees the write (or makes it).
//
// No function touches the stack or calls out; each ends with VZEROUPPER.

#include "textflag.h"

// func gatherSlotsAVX512(bits *uint64, slots *atomic.Uint64, nslots int, idx *int32, n int)
//
// Eight lanes a step: the indices in Y1 (Z1's low half; the high half
// is zero, so its mask bits are set and unused), K1 = index < nslots unsigned,
// and VPGATHERDQ into a zeroed Z0.
TEXT ·gatherSlotsAVX512(SB), NOSPLIT, $0-40
	MOVQ         bits+0(FP), DI
	MOVQ         slots+8(FP), SI
	MOVQ         nslots+16(FP), AX
	MOVQ         idx+24(FP), BX
	MOVQ         n+32(FP), CX
	VPBROADCASTD AX, Z2

loop512:
	VMOVDQU    (BX), Y1
	VPCMPUD    $1, Z2, Z1, K1
	VPXORQ     Z0, Z0, Z0
	VPGATHERDQ (SI)(Y1*8), K1, Z0
	VMOVDQU64  Z0, (DI)
	ADDQ       $32, BX
	ADDQ       $64, DI
	SUBQ       $8, CX
	JNZ        loop512
	VZEROUPPER
	RET

// func gatherSlotsAVX2(bits *uint64, slots *atomic.Uint64, nslots int, idx *int32, n int)
//
// Four lanes a step: X2 = the indices, X4 = index < nslots && index > -1
// (signed compares, exact for nslots < 2³¹), widened to the qword mask Y4,
// and VPGATHERDQ into a zeroed Y0.
TEXT ·gatherSlotsAVX2(SB), NOSPLIT, $0-40
	MOVQ         bits+0(FP), DI
	MOVQ         slots+8(FP), SI
	MOVQ         nslots+16(FP), AX
	MOVQ         idx+24(FP), BX
	MOVQ         n+32(FP), CX
	VMOVQ        AX, X1
	VPBROADCASTD X1, X1
	VPCMPEQD     X3, X3, X3

loop256:
	VMOVDQU    (BX), X2
	VPCMPGTD   X2, X1, X4
	VPCMPGTD   X3, X2, X5
	VPAND      X5, X4, X4
	VPMOVSXDQ  X4, Y4
	VPXOR      Y0, Y0, Y0
	VPGATHERDQ Y4, (SI)(X2*8), Y0
	VMOVDQU    Y0, (DI)
	ADDQ       $16, BX
	ADDQ       $32, DI
	SUBQ       $4, CX
	JNZ        loop256
	VZEROUPPER
	RET
