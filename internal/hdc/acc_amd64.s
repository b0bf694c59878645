#include "go_asm.h"
#include "textflag.h"

// The bundle kernels count a column of four words (256 lanes, one YMM
// register per row) down every staged row with Acc.count's Harley-Seal tree
// and read the counts out in the same pass. All eight counter planes stay in
// registers, Y0 (weight 1) to Y7 (weight 128), so a bundle holds at most 255
// rows. Register use:
//
//	AX   column base: row 0, word 4·column
//	BX   row stride in bytes
//	R8   3 · stride
//	R10  8 · stride
//	R13  8-row blocks, R14 tail rows (n mod 8)
//	R11  columns left
//	DI   output of the current column
//	R12  the caller's scratch: transposed counts or threshold masks
//	SI   rows 0-3 of the current block, R9 rows 4-7, CX a loop counter
//	Y0-Y7 counter planes, Y8-Y14 temporaries, Y15 a readout constant

// Delta-swap masks, the 64-bit patterns of transposePlanes in every quadword.
DATA accM32<>+0(SB)/8, $0x00000000FFFFFFFF
DATA accM32<>+8(SB)/8, $0x00000000FFFFFFFF
DATA accM32<>+16(SB)/8, $0x00000000FFFFFFFF
DATA accM32<>+24(SB)/8, $0x00000000FFFFFFFF
GLOBL accM32<>(SB), RODATA|NOPTR, $32

DATA accM16<>+0(SB)/8, $0x0000FFFF0000FFFF
DATA accM16<>+8(SB)/8, $0x0000FFFF0000FFFF
DATA accM16<>+16(SB)/8, $0x0000FFFF0000FFFF
DATA accM16<>+24(SB)/8, $0x0000FFFF0000FFFF
GLOBL accM16<>(SB), RODATA|NOPTR, $32

DATA accM8<>+0(SB)/8, $0x00FF00FF00FF00FF
DATA accM8<>+8(SB)/8, $0x00FF00FF00FF00FF
DATA accM8<>+16(SB)/8, $0x00FF00FF00FF00FF
DATA accM8<>+24(SB)/8, $0x00FF00FF00FF00FF
GLOBL accM8<>(SB), RODATA|NOPTR, $32

DATA accB28<>+0(SB)/8, $0x00000000F0F0F0F0
DATA accB28<>+8(SB)/8, $0x00000000F0F0F0F0
DATA accB28<>+16(SB)/8, $0x00000000F0F0F0F0
DATA accB28<>+24(SB)/8, $0x00000000F0F0F0F0
GLOBL accB28<>(SB), RODATA|NOPTR, $32

DATA accB14<>+0(SB)/8, $0x0000CCCC0000CCCC
DATA accB14<>+8(SB)/8, $0x0000CCCC0000CCCC
DATA accB14<>+16(SB)/8, $0x0000CCCC0000CCCC
DATA accB14<>+24(SB)/8, $0x0000CCCC0000CCCC
GLOBL accB14<>(SB), RODATA|NOPTR, $32

DATA accB7<>+0(SB)/8, $0x00AA00AA00AA00AA
DATA accB7<>+8(SB)/8, $0x00AA00AA00AA00AA
DATA accB7<>+16(SB)/8, $0x00AA00AA00AA00AA
DATA accB7<>+24(SB)/8, $0x00AA00AA00AA00AA
GLOBL accB7<>(SB), RODATA|NOPTR, $32

// CSA_ROWS adds rows A and B to the ones plane Y0 with a full adder and
// leaves the weight-2 carry in T0.
#define CSA_ROWS(A, B, T0, T1, T2) \
	VMOVDQU A, T0; \
	VMOVDQU B, T1; \
	VPXOR   T1, T0, T2; \
	VPAND   T1, T0, T0; \
	VPAND   T2, Y0, T1; \
	VPXOR   T2, Y0, Y0; \
	VPOR    T1, T0, T0

// CSA_REGS adds A and B to plane C with a full adder and leaves the carry in
// A; B is clobbered.
#define CSA_REGS(A, B, C, T) \
	VPXOR B, A, T; \
	VPAND B, A, A; \
	VPAND T, C, B; \
	VPXOR T, C, C; \
	VPOR  B, A, A

// RIPPLE adds the weight-8 word E into the high planes Y3-Y7; E and T are
// clobbered. A count below 256 never carries out of Y7.
#define RIPPLE(E, T) \
	VPAND E, Y3, T; VPXOR E, Y3, Y3; \
	VPAND T, Y4, E; VPXOR T, Y4, Y4; \
	VPAND E, Y5, T; VPXOR E, Y5, Y5; \
	VPAND T, Y6, E; VPXOR T, Y6, Y6; \
	VPXOR E, Y7, Y7

// SWAP is transposePlanes' delta swap: x = (A>>S ^ B) & M; A ^= x<<S;
// B ^= x. With A = B it is the in-word swap v ^= x ^ x<<S.
#define SWAP(A, B, S, M, T) \
	VPSRLQ $S, A, T; \
	VPXOR  B, T, T; \
	VPAND  M, T, T; \
	VPXOR  T, B, B; \
	VPSLLQ $S, T, T; \
	VPXOR  T, A, A

// COUNT leaves the counts of the column at AX in planes Y0-Y7: the rows in
// blocks of eight through the carry-save tree, then the n mod 8 tail rows
// one half-adder chain each.
#define COUNT \
	VPXOR Y0, Y0, Y0; VPXOR Y1, Y1, Y1; VPXOR Y2, Y2, Y2; VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; VPXOR Y5, Y5, Y5; VPXOR Y6, Y6, Y6; VPXOR Y7, Y7, Y7; \
	MOVQ  AX, SI; \
	LEAQ  (AX)(BX*4), R9; \
	MOVQ  R13, CX; \
	TESTQ CX, CX; \
	JZ    tail; \
block: \
	CSA_ROWS((SI), (SI)(BX*1), Y8, Y9, Y10); \
	CSA_ROWS((SI)(BX*2), (SI)(R8*1), Y11, Y9, Y10); \
	CSA_REGS(Y8, Y11, Y1, Y9); \
	CSA_ROWS((R9), (R9)(BX*1), Y11, Y9, Y10); \
	CSA_ROWS((R9)(BX*2), (R9)(R8*1), Y12, Y9, Y10); \
	CSA_REGS(Y11, Y12, Y1, Y9); \
	CSA_REGS(Y8, Y11, Y2, Y9); \
	RIPPLE(Y8, Y9); \
	ADDQ  R10, SI; \
	ADDQ  R10, R9; \
	DECQ  CX; \
	JNZ   block; \
tail: \
	MOVQ  R14, CX; \
	TESTQ CX, CX; \
	JZ    counted; \
tailrow: \
	VMOVDQU (SI), Y8; \
	VPAND   Y8, Y0, Y9; VPXOR Y8, Y0, Y0; \
	VPAND   Y9, Y1, Y8; VPXOR Y9, Y1, Y1; \
	VPAND   Y8, Y2, Y9; VPXOR Y8, Y2, Y2; \
	RIPPLE(Y9, Y8); \
	ADDQ    BX, SI; \
	DECQ    CX; \
	JNZ     tailrow; \
counted:

// TRANSPOSE is transposePlanes on the planes Y0-Y7 of a column: afterwards
// quadword q of Yj holds the counts of lanes 64q + 8j … 64q + 8j + 7, one
// byte each. It uses Y8-Y14.
#define TRANSPOSE \
	SWAP(Y0, Y4, 32, accM32<>(SB), Y8); \
	SWAP(Y1, Y5, 32, accM32<>(SB), Y8); \
	SWAP(Y2, Y6, 32, accM32<>(SB), Y8); \
	SWAP(Y3, Y7, 32, accM32<>(SB), Y8); \
	SWAP(Y0, Y2, 16, accM16<>(SB), Y8); \
	SWAP(Y1, Y3, 16, accM16<>(SB), Y8); \
	SWAP(Y4, Y6, 16, accM16<>(SB), Y8); \
	SWAP(Y5, Y7, 16, accM16<>(SB), Y8); \
	SWAP(Y0, Y1, 8, accM8<>(SB), Y8); \
	SWAP(Y2, Y3, 8, accM8<>(SB), Y8); \
	SWAP(Y4, Y5, 8, accM8<>(SB), Y8); \
	SWAP(Y6, Y7, 8, accM8<>(SB), Y8); \
	SWAP(Y0, Y0, 28, accB28<>(SB), Y8); \
	SWAP(Y1, Y1, 28, accB28<>(SB), Y9); \
	SWAP(Y2, Y2, 28, accB28<>(SB), Y10); \
	SWAP(Y3, Y3, 28, accB28<>(SB), Y11); \
	SWAP(Y4, Y4, 28, accB28<>(SB), Y12); \
	SWAP(Y5, Y5, 28, accB28<>(SB), Y13); \
	SWAP(Y6, Y6, 28, accB28<>(SB), Y14); \
	SWAP(Y7, Y7, 28, accB28<>(SB), Y8); \
	SWAP(Y0, Y0, 14, accB14<>(SB), Y9); \
	SWAP(Y1, Y1, 14, accB14<>(SB), Y10); \
	SWAP(Y2, Y2, 14, accB14<>(SB), Y11); \
	SWAP(Y3, Y3, 14, accB14<>(SB), Y12); \
	SWAP(Y4, Y4, 14, accB14<>(SB), Y13); \
	SWAP(Y5, Y5, 14, accB14<>(SB), Y14); \
	SWAP(Y6, Y6, 14, accB14<>(SB), Y8); \
	SWAP(Y7, Y7, 14, accB14<>(SB), Y9); \
	SWAP(Y0, Y0, 7, accB7<>(SB), Y10); \
	SWAP(Y1, Y1, 7, accB7<>(SB), Y11); \
	SWAP(Y2, Y2, 7, accB7<>(SB), Y12); \
	SWAP(Y3, Y3, 7, accB7<>(SB), Y13); \
	SWAP(Y4, Y4, 7, accB7<>(SB), Y14); \
	SWAP(Y5, Y5, 7, accB7<>(SB), Y8); \
	SWAP(Y6, Y6, 7, accB7<>(SB), Y9); \
	SWAP(Y7, Y7, 7, accB7<>(SB), Y10)

// SETUP loads the arguments shared by the bundle kernels.
#define SETUP \
	MOVQ rows+0(FP), AX; \
	MOVQ nw+8(FP), BX; \
	SHLQ $3, BX; \
	LEAQ (BX)(BX*2), R8; \
	MOVQ BX, R10; \
	SHLQ $3, R10; \
	MOVQ n+16(FP), R13; \
	MOVQ R13, R14; \
	SHRQ $3, R13; \
	ANDQ $7, R14; \
	MOVQ cols+24(FP), R11

// OUT widens the eight counts at byte offset S of the scratch to int32,
// writes 2·count − n to byte offset D of the output, and uses T.
#define OUT(S, D, T) \
	VPMOVZXBD S(R12), T; \
	VPADDD    T, T, T; \
	VPSUBD    Y15, T, T; \
	VMOVDQU   T, D(DI)

// func bipolarAVX2(rows *uint64, nw, n, cols int, dst *int32, scratch *[8][4]uint64)
//
// Writes 2·count − n for the 256·cols lanes of the first cols columns. The
// transposed counts go through the scratch so VPMOVZXBD can widen eight at
// a time.
TEXT ·bipolarAVX2(SB), NOSPLIT, $0-48
	SETUP
	MOVQ dst+32(FP), DI
	MOVQ scratch+40(FP), R12
	MOVQ n+16(FP), CX
	VMOVQ CX, X15
	VPBROADCASTD X15, Y15

column:
	COUNT

	TRANSPOSE

	VMOVDQU Y0, 0(R12)
	VMOVDQU Y1, 32(R12)
	VMOVDQU Y2, 64(R12)
	VMOVDQU Y3, 96(R12)
	VMOVDQU Y4, 128(R12)
	VMOVDQU Y5, 160(R12)
	VMOVDQU Y6, 192(R12)
	VMOVDQU Y7, 224(R12)

	// Register j, quadword q: scratch byte 32j + 8q, lanes 64q + 8j.
	OUT(0, 0, Y8)
	OUT(32, 32, Y9)
	OUT(64, 64, Y10)
	OUT(96, 96, Y11)
	OUT(128, 128, Y12)
	OUT(160, 160, Y13)
	OUT(192, 192, Y14)
	OUT(224, 224, Y8)
	OUT(8, 256, Y9)
	OUT(40, 288, Y10)
	OUT(72, 320, Y11)
	OUT(104, 352, Y12)
	OUT(136, 384, Y13)
	OUT(168, 416, Y14)
	OUT(200, 448, Y8)
	OUT(232, 480, Y9)
	OUT(16, 512, Y10)
	OUT(48, 544, Y11)
	OUT(80, 576, Y12)
	OUT(112, 608, Y13)
	OUT(144, 640, Y14)
	OUT(176, 672, Y8)
	OUT(208, 704, Y9)
	OUT(240, 736, Y10)
	OUT(24, 768, Y11)
	OUT(56, 800, Y12)
	OUT(88, 832, Y13)
	OUT(120, 864, Y14)
	OUT(152, 896, Y8)
	OUT(184, 928, Y9)
	OUT(216, 960, Y10)
	OUT(248, 992, Y11)

	ADDQ $32, AX
	ADDQ $1024, DI
	DECQ R11
	JNZ  column
	VZEROUPPER
	RET

// BYTES2 writes 2·count − n over the bytes of register R, with n in every
// byte of Y15. Bytes wrap modulo 256, which is exact for n ≤ 127.
#define BYTES2(R) \
	VPADDB R, R, R; \
	VPSUBB Y15, R, R

// QUADS writes quadword q of A, B, C and D, in that order, to byte offset
// 64q + O of the output, for q = 0 … 3: a 4×4 transpose of quadwords through
// Y8-Y12.
#define QUADS(A, B, C, D, O) \
	VPUNPCKLQDQ B, A, Y8; \
	VPUNPCKHQDQ B, A, Y9; \
	VPUNPCKLQDQ D, C, Y10; \
	VPUNPCKHQDQ D, C, Y11; \
	VPERM2I128  $0x20, Y10, Y8, Y12; \
	VMOVDQU     Y12, O(DI); \
	VPERM2I128  $0x20, Y11, Y9, Y12; \
	VMOVDQU     Y12, 64+O(DI); \
	VPERM2I128  $0x31, Y10, Y8, Y12; \
	VMOVDQU     Y12, 128+O(DI); \
	VPERM2I128  $0x31, Y11, Y9, Y12; \
	VMOVDQU     Y12, 192+O(DI)

// func bipolar8AVX2(rows *uint64, nw, n, cols int, dst *int8)
//
// Writes 2·count − n as int8 for the 256·cols lanes of the first cols
// columns, n ≤ 127: the transposed counts are already one byte per lane, so
// the readout is a byte add, a byte subtract and a quadword reordering.
TEXT ·bipolar8AVX2(SB), NOSPLIT, $0-40
	SETUP
	MOVQ         dst+32(FP), DI
	MOVQ         n+16(FP), CX
	VMOVQ        CX, X15
	VPBROADCASTB X15, Y15

column8:
	COUNT
	TRANSPOSE
	BYTES2(Y0)
	BYTES2(Y1)
	BYTES2(Y2)
	BYTES2(Y3)
	BYTES2(Y4)
	BYTES2(Y5)
	BYTES2(Y6)
	BYTES2(Y7)
	QUADS(Y0, Y1, Y2, Y3, 0)
	QUADS(Y4, Y5, Y6, Y7, 32)

	ADDQ $32, AX
	ADDQ $256, DI
	DECQ R11
	JNZ  column8
	VZEROUPPER
	RET

// MAJ_PLANE folds plane P into the borrow Y8 of subtracting the threshold:
// borrow = ^c&(t|borrow) | t&borrow, with t the all-ones-or-zero mask at
// byte offset M of the scratch.
#define MAJ_PLANE(P, M) \
	VPOR   M(R12), Y8, Y9; \
	VPANDN Y9, P, Y9; \
	VPAND  M(R12), Y8, Y8; \
	VPOR   Y9, Y8, Y8

// func majorityAVX2(rows *uint64, nw, n, cols int, out *uint64, thr *[8][4]uint64)
//
// Writes the majority bits of the first cols columns: MajorityInto's borrow
// compare against the threshold, whose bit k is thr[k] in every lane.
TEXT ·majorityAVX2(SB), NOSPLIT, $0-48
	SETUP
	MOVQ out+32(FP), DI
	MOVQ thr+40(FP), R12
	VPCMPEQQ Y15, Y15, Y15

column:
	COUNT

	VPXOR Y8, Y8, Y8
	MAJ_PLANE(Y0, 0)
	MAJ_PLANE(Y1, 32)
	MAJ_PLANE(Y2, 64)
	MAJ_PLANE(Y3, 96)
	MAJ_PLANE(Y4, 128)
	MAJ_PLANE(Y5, 160)
	MAJ_PLANE(Y6, 192)
	MAJ_PLANE(Y7, 224)
	VPXOR   Y15, Y8, Y8
	VMOVDQU Y8, (DI)

	ADDQ $32, AX
	ADDQ $32, DI
	DECQ R11
	JNZ  column
	VZEROUPPER
	RET

// XOR8 folds eight YMM words at byte offset DX of the row at AX into Y0-Y7.
#define XOR8(OP) \
	OP 0(AX)(DX*1), Y0, Y0; OP 32(AX)(DX*1), Y1, Y1; \
	OP 64(AX)(DX*1), Y2, Y2; OP 96(AX)(DX*1), Y3, Y3; \
	OP 128(AX)(DX*1), Y4, Y4; OP 160(AX)(DX*1), Y5, Y5; \
	OP 192(AX)(DX*1), Y6, Y6; OP 224(AX)(DX*1), Y7, Y7

// SRC loads the words pointer of the BinVec that the pointer at P points
// to, after checking that its dimensionality is R14's.
#define SRC(P) \
	MOVQ P, AX; \
	CMPQ BinVec_d(AX), R14; \
	JNE  mismatch; \
	MOVQ BinVec_words(AX), AX

// func xorAVX2(dst *uint64, srcs **BinVec, k, d, nw, rows int) bool
//
// Stages rows rows of nw words, one call for a whole bundle: row r starts
// at dst + 8·nw·r and its first nw &^ 3 words become the XOR of the same
// words of the k vectors srcs[k·r] … srcs[k·r + k − 1]. k >= 1, rows >= 1,
// nw >= 4, and d is the rows' dimensionality (64·nw). Each source is
// checked to have dimensionality d before it is read; at the first that
// does not, the kernel returns false, leaving the rows part-staged. Each
// 32-word chunk (a D=2048 row) is read from every source into Y0-Y7 before
// it is stored, so a row may alias a source.
//
//	DI  the current row, R13 its stride in bytes, R12 rows left
//	SI  the current row's first source pointer, R8 k, R14 d
//	CX  4-word units left in the row, DX their byte offset
//	R10 the next source pointer, R9 sources left
TEXT ·xorAVX2(SB), NOSPLIT, $0-49
	MOVQ dst+0(FP), DI
	MOVQ srcs+8(FP), SI
	MOVQ k+16(FP), R8
	MOVQ d+24(FP), R14
	MOVQ nw+32(FP), R13
	MOVQ rows+40(FP), R12
	SHLQ $3, R13

row:
	MOVQ R13, CX
	SHRQ $5, CX
	XORQ DX, DX
	CMPQ CX, $8
	JB   single

chunk:
	SRC((SI))
	VMOVDQU 0(AX)(DX*1), Y0
	VMOVDQU 32(AX)(DX*1), Y1
	VMOVDQU 64(AX)(DX*1), Y2
	VMOVDQU 96(AX)(DX*1), Y3
	VMOVDQU 128(AX)(DX*1), Y4
	VMOVDQU 160(AX)(DX*1), Y5
	VMOVDQU 192(AX)(DX*1), Y6
	VMOVDQU 224(AX)(DX*1), Y7
	LEAQ    8(SI), R10
	MOVQ    R8, R9
	DECQ    R9
	JZ      storechunk

srcchunk:
	SRC((R10))
	XOR8(VPXOR)
	ADDQ $8, R10
	DECQ R9
	JNZ  srcchunk

storechunk:
	VMOVDQU Y0, 0(DI)(DX*1)
	VMOVDQU Y1, 32(DI)(DX*1)
	VMOVDQU Y2, 64(DI)(DX*1)
	VMOVDQU Y3, 96(DI)(DX*1)
	VMOVDQU Y4, 128(DI)(DX*1)
	VMOVDQU Y5, 160(DI)(DX*1)
	VMOVDQU Y6, 192(DI)(DX*1)
	VMOVDQU Y7, 224(DI)(DX*1)
	ADDQ    $256, DX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     chunk

single:
	TESTQ CX, CX
	JZ    nextrow

one:
	SRC((SI))
	VMOVDQU (AX)(DX*1), Y0
	LEAQ    8(SI), R10
	MOVQ    R8, R9
	DECQ    R9
	JZ      storeone

srcone:
	SRC((R10))
	VPXOR (AX)(DX*1), Y0, Y0
	ADDQ  $8, R10
	DECQ  R9
	JNZ   srcone

storeone:
	VMOVDQU Y0, (DI)(DX*1)
	ADDQ    $32, DX
	DECQ    CX
	JNZ     one

nextrow:
	ADDQ R13, DI
	LEAQ (SI)(R8*8), SI
	DECQ R12
	JNZ  row
	VZEROUPPER
	MOVB $1, ret+48(FP)
	RET

mismatch:
	VZEROUPPER
	MOVB $0, ret+48(FP)
	RET
