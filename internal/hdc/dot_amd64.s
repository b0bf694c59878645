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
