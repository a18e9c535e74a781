#include "textflag.h"

// func scanSetAVX2(tags *uint32, stamps *uint64, ways int, want uint32) (match, empty uint64, lru int)
//
// ways is a multiple of 8, at most 64. Each step covers eight ways: one
// vector of tags, two of stamps. Stamps are sign-biased (x ^ 1<<63) so
// VPCMPGTQ's signed compare orders them as unsigned values.
TEXT ·scanSetAVX2(SB), NOSPLIT, $0-56
	MOVQ	tags+0(FP), SI
	MOVQ	ways+16(FP), BX
	MOVL	want+24(FP), AX
	VMOVQ	AX, X0
	VPBROADCASTD	X0, Y0
	VPXOR	Y1, Y1, Y1
	XORQ	R8, R8 // match mask
	XORQ	R9, R9 // empty mask
	XORQ	CX, CX // way

tagloop:
	VMOVDQU	(SI)(CX*4), Y2
	VPCMPEQD	Y0, Y2, Y3
	VMOVMSKPS	Y3, AX
	SHLQ	CX, AX
	ORQ	AX, R8
	VPCMPEQD	Y1, Y2, Y3
	VMOVMSKPS	Y3, DX
	SHLQ	CX, DX
	ORQ	DX, R9
	ADDQ	$8, CX
	CMPQ	CX, BX
	JLT	tagloop

	MOVQ	R8, match+32(FP)
	MOVQ	R9, empty+40(FP)
	MOVQ	$-1, lru+48(FP)
	MOVQ	stamps+8(FP), DI
	TESTQ	DI, DI
	JZ	done
	ORQ	R8, R9
	JNZ	done // a hit, or a free way: no victim to choose

	// Minimum: Y5 and Y8 keep the smallest biased stamp seen in each
	// lane of ways 8k..8k+3 and 8k+4..8k+7, two independent chains.
	MOVQ	$0x8000000000000000, AX
	VMOVQ	AX, X4
	VPBROADCASTQ	X4, Y4
	VPXOR	(DI), Y4, Y5
	VPXOR	32(DI), Y4, Y8
	MOVQ	$8, CX
	CMPQ	CX, BX
	JGE	fold

minloop:
	VPXOR	(DI)(CX*8), Y4, Y6
	VPXOR	32(DI)(CX*8), Y4, Y9
	VPCMPGTQ	Y6, Y5, Y7
	VPCMPGTQ	Y9, Y8, Y10
	VPBLENDVB	Y7, Y6, Y5, Y5
	VPBLENDVB	Y10, Y9, Y8, Y8
	ADDQ	$8, CX
	CMPQ	CX, BX
	JLT	minloop

	// Fold both chains and the four lanes so every lane holds the
	// minimum, then unbias.
fold:
	VPCMPGTQ	Y8, Y5, Y7
	VPBLENDVB	Y7, Y8, Y5, Y5
	VPERMQ	$0x4E, Y5, Y6
	VPCMPGTQ	Y6, Y5, Y7
	VPBLENDVB	Y7, Y6, Y5, Y5
	VPSHUFD	$0x4E, Y5, Y6
	VPCMPGTQ	Y6, Y5, Y7
	VPBLENDVB	Y7, Y6, Y5, Y5
	VPXOR	Y4, Y5, Y5

	// The victim is the lowest way whose stamp equals the minimum.
	XORQ	R10, R10
	XORQ	CX, CX

eqloop:
	VPCMPEQQ	(DI)(CX*8), Y5, Y6
	VPCMPEQQ	32(DI)(CX*8), Y5, Y7
	VMOVMSKPD	Y6, AX
	VMOVMSKPD	Y7, DX
	SHLQ	$4, DX
	ORQ	DX, AX
	SHLQ	CX, AX
	ORQ	AX, R10
	ADDQ	$8, CX
	CMPQ	CX, BX
	JLT	eqloop
	BSFQ	R10, AX
	MOVQ	AX, lru+48(FP)

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	sub+4(FP), CX
	CPUID
	MOVL	AX, a+8(FP)
	MOVL	BX, b+12(FP)
	MOVL	CX, c+16(FP)
	MOVL	DX, d+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL	$0, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	RET
