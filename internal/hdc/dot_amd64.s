#include "textflag.h"

// func dotAVX2(a, b *int32, n int) int64
//
// n must be a multiple of 16. VPMULDQ multiplies the low (even) int32 of
// each 64-bit lane into an exact int64 product; shifting both operands right
// by 32 brings the odd elements into the low halves for a second VPMULDQ.
// Four int64 lane accumulators add the products modulo 2^64, as the scalar
// reference does.
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	SHRQ $4, CX
	JZ   reduce

loop:
	VMOVDQU (SI), Y4
	VMOVDQU (DI), Y5
	VMOVDQU 32(SI), Y6
	VMOVDQU 32(DI), Y7
	VPMULDQ Y4, Y5, Y8
	VPADDQ  Y8, Y0, Y0
	VPSRLQ  $32, Y4, Y4
	VPSRLQ  $32, Y5, Y5
	VPMULDQ Y4, Y5, Y4
	VPADDQ  Y4, Y1, Y1
	VPMULDQ Y6, Y7, Y8
	VPADDQ  Y8, Y2, Y2
	VPSRLQ  $32, Y6, Y6
	VPSRLQ  $32, Y7, Y7
	VPMULDQ Y6, Y7, Y6
	VPADDQ  Y6, Y3, Y3
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop

reduce:
	VPADDQ       Y1, Y0, Y0
	VPADDQ       Y3, Y2, Y2
	VPADDQ       Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, AX
	VZEROUPPER
	MOVQ         AX, ret+24(FP)
	RET

// func dot16AVX2(a, b *int32, n, block int) int64
//
// n must be a multiple of 16 and block positive. The caller guarantees that
// every element of a and b lies in int16 and that block products of the
// largest magnitudes fit a 32-bit lane (see laneBlock). VPMADDWD on the
// int32 rows, with a's high halves masked to zero, leaves each 32-bit lane
// exactly lo(a)·lo(b) + 0·hi(b) = a·b. Y0 takes elements 0-7 and Y1 elements
// 8-15 of each 16, so a lane of either adds one product per iteration; after
// at most block iterations each accumulator is widened into the int64 sums
// on its own, never added to the other first.
TEXT ·dot16AVX2(SB), NOSPLIT, $0-40
	MOVQ     a+0(FP), SI
	MOVQ     b+8(FP), DI
	MOVQ     n+16(FP), CX
	MOVQ     block+24(FP), R8
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $16, Y15, Y15
	VPXOR    Y4, Y4, Y4
	SHRQ     $4, CX
	JZ       reduce16

outer16:
	MOVQ    R8, DX
	CMPQ    DX, CX
	CMOVQGT CX, DX
	SUBQ    DX, CX
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1

inner16:
	VPAND    (SI), Y15, Y2
	VPMADDWD (DI), Y2, Y2
	VPADDD   Y2, Y0, Y0
	VPAND    32(SI), Y15, Y3
	VPMADDWD 32(DI), Y3, Y3
	VPADDD   Y3, Y1, Y1
	ADDQ     $64, SI
	ADDQ     $64, DI
	DECQ     DX
	JNZ      inner16

	VPMOVSXDQ    X0, Y2
	VEXTRACTI128 $1, Y0, X0
	VPMOVSXDQ    X0, Y3
	VPADDQ       Y2, Y4, Y4
	VPADDQ       Y3, Y4, Y4
	VPMOVSXDQ    X1, Y2
	VEXTRACTI128 $1, Y1, X1
	VPMOVSXDQ    X1, Y3
	VPADDQ       Y2, Y4, Y4
	VPADDQ       Y3, Y4, Y4
	TESTQ        CX, CX
	JNZ          outer16

reduce16:
	VEXTRACTI128 $1, Y4, X1
	VPADDQ       X1, X4, X4
	VPSHUFD      $0x4e, X4, X1
	VPADDQ       X1, X4, X4
	VMOVQ        X4, AX
	VZEROUPPER
	MOVQ         AX, ret+32(FP)
	RET

// func maxAbsAVX2(a *int32, n int) uint32
//
// Returns the largest |a[i]| over the first n elements, n a multiple of 16.
// VPABSD leaves MinInt32 as 0x80000000, which the unsigned maximum reads as
// its magnitude 2^31.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-20
	MOVQ  a+0(FP), SI
	MOVQ  n+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	SHRQ  $4, CX
	JZ    reducemax

loopmax:
	VPABSD  (SI), Y2
	VPABSD  32(SI), Y3
	VPMAXUD Y2, Y0, Y0
	VPMAXUD Y3, Y1, Y1
	ADDQ    $64, SI
	DECQ    CX
	JNZ     loopmax

reducemax:
	VPMAXUD      Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPMAXUD      X1, X0, X0
	VMOVD        X0, AX
	VZEROUPPER
	MOVL         AX, ret+16(FP)
	RET

// func widenAVX2(dst *int32, src *int8, n int)
//
// Sign-extends the first n int8 elements of src into dst; n must be a
// multiple of 16.
TEXT ·widenAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX
	JZ   donewiden

loopwiden:
	VPMOVSXBD (SI), Y0
	VPMOVSXBD 8(SI), Y1
	VMOVDQU   Y0, (DI)
	VMOVDQU   Y1, 32(DI)
	ADDQ      $16, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       loopwiden

donewiden:
	VZEROUPPER
	RET

// func addWidenAVX2(dst *int32, src *int8, n int)
//
// Adds the first n int8 elements of src, sign-extended, into dst modulo
// 2^32; n must be a multiple of 16.
TEXT ·addWidenAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX
	JZ   doneadd

loopadd:
	VPMOVSXBD (SI), Y0
	VPMOVSXBD 8(SI), Y1
	VPADDD    (DI), Y0, Y0
	VPADDD    32(DI), Y1, Y1
	VMOVDQU   Y0, (DI)
	VMOVDQU   Y1, 32(DI)
	ADDQ      $16, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       loopadd

doneadd:
	VZEROUPPER
	RET

// func addAVX2(dst, src *int32, n int)
//
// Adds the first n elements of src into dst modulo 2^32; n must be a
// multiple of 16.
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX
	JZ   done32

loop32:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPADDD  (DI), Y0, Y0
	VPADDD  32(DI), Y1, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop32

done32:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
