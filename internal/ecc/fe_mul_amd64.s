//go:build amd64

#include "textflag.h"

// P-256 field multiplication and squaring, and the group-order
// multiplier, with MULX and the ADCX/ADOX dual carry chains: low-word
// adds ride the carry flag and high-word adds the overflow flag, so a
// row's MULX products retire back-to-back instead of serializing on
// one flag.
//
// The field kernels reduce with p's special form. Because
// p = 2^256 − 2^224 + 2^192 + 2^96 − 1, its Montgomery constant n0 is 1
// (u = t0) and its low limbs are (2^64 − 1, 2^32 − 1, 0). A reduction
// step t = (t + u·p) >> 64 therefore needs one multiplication:
//
//	t0 + u·(2^64 − 1)    = u·2^64       t0 drops; u carries into t1
//	u + u·(2^32 − 1)     = u·2^32       t1 += u<<32, t2 += u>>32
//	u·0xffffffff00000001 = (hi, lo)     t3 += lo, t4 += hi (one MULX)
//
// The field kernels form the full 512-bit product and reduce its low
// half with four such steps (P256_REDUCE_STEP), so the three-MULX
// generic step is gone from them. The final conditional subtraction
// matches the portable code: subtract the modulus, keep the difference
// when the carry word is set or the subtraction did not borrow. Every
// kernel returns the canonical value (< m), so results are
// bit-identical to the portable code.

// P256_REDUCE_STEP is one special-form step on the four-word window
// (t0 t1 t2 t3): (t + u·p) >> 64 with u = t0. The window's new top word
// lands in t0's register, so four steps rotate the window back to where
// it started. The top word cannot carry out (hi(u·p3) < 2^64 − 1), and
// the window stays below 2^256. Clobbers AX, BX, DX.
#define P256_REDUCE_STEP(t0, t1, t2, t3) \
	MOVQ  $0xffffffff00000001, DX; \
	MULXQ t0, AX, BX;              \
	MOVQ  t0, DX;                  \
	SHLQ  $32, DX;                 \
	SHRQ  $32, t0;                 \
	ADDQ  DX, t1;                  \
	ADCQ  t0, t2;                  \
	ADCQ  AX, t3;                  \
	ADCQ  $0, BX;                  \
	MOVQ  BX, t0

// P256_REDUCE_STORE finishes a 512-bit product T = (R8 … R15): four
// reduction steps on the low half, then the high half added back —
// (T_lo + U·p)/2^256 ≤ p and T_hi < p for canonical operands, so one
// conditional subtraction of p leaves the canonical value, stored to z.
#define P256_REDUCE_STORE \
	P256_REDUCE_STEP(R8, R9, R10, R11);  \
	P256_REDUCE_STEP(R9, R10, R11, R8);  \
	P256_REDUCE_STEP(R10, R11, R8, R9);  \
	P256_REDUCE_STEP(R11, R8, R9, R10);  \
	ADDQ    R12, R8;                     \
	ADCQ    R13, R9;                     \
	ADCQ    R14, R10;                    \
	ADCQ    R15, R11;                    \
	MOVQ    $0, BX;                      \
	ADCQ    $0, BX;                      \
	MOVQ    R8, R12;                     \
	MOVQ    R9, R13;                     \
	MOVQ    R10, R14;                    \
	MOVQ    R11, R15;                    \
	SUBQ    $-1, R12;                    \
	MOVQ    $0x00000000ffffffff, AX;     \
	SBBQ    AX, R13;                     \
	SBBQ    $0, R14;                     \
	MOVQ    $0xffffffff00000001, AX;     \
	SBBQ    AX, R15;                     \
	SBBQ    $0, BX;                      \
	CMOVQCS R8, R12;                     \
	CMOVQCS R9, R13;                     \
	CMOVQCS R10, R14;                    \
	CMOVQCS R11, R15;                    \
	MOVQ    z+0(FP), DX;                 \
	MOVQ    R12, 0(DX);                  \
	MOVQ    R13, 8(DX);                  \
	MOVQ    R14, 16(DX);                 \
	MOVQ    R15, 24(DX)

// func p256MulADX(z, x, y *[4]uint64)
//
// Operand scanning into the eight-word product T = (R8 … R15): row i
// adds x[i]·y at word i, low halves on the ADCX (carry) chain and high
// halves on the ADOX (overflow) chain, so the row's four MULX retire
// back-to-back. P256_REDUCE_STORE then reduces it.
//
// Register plan: SI x pointer, DI y pointer (y limbs multiplied from
// memory), R8..R15 the product, DX the MULX multiplicand (x[i], then
// p3), AX BX scratch.
TEXT ·p256MulADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	// row 0: T = x[0]·y
	MOVQ  0(SI), DX
	MULXQ 0(DI), R8, R9
	MULXQ 8(DI), AX, R10
	ADDQ  AX, R9
	MULXQ 16(DI), AX, R11
	ADCQ  AX, R10
	MULXQ 24(DI), AX, R12
	ADCQ  AX, R11
	ADCQ  $0, R12

	// row 1: T += x[1]·y·2^64
	MOVQ  8(SI), DX
	XORQ  R13, R13
	MULXQ 0(DI), AX, BX
	ADCXQ AX, R9
	ADOXQ BX, R10
	MULXQ 8(DI), AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MULXQ 16(DI), AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ 24(DI), AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MOVQ  $0, AX
	ADCXQ AX, R13

	// row 2: T += x[2]·y·2^128
	MOVQ  16(SI), DX
	XORQ  R14, R14
	MULXQ 0(DI), AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MULXQ 8(DI), AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ 16(DI), AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MULXQ 24(DI), AX, BX
	ADCXQ AX, R13
	ADOXQ BX, R14
	MOVQ  $0, AX
	ADCXQ AX, R14

	// row 3: T += x[3]·y·2^192
	MOVQ  24(SI), DX
	XORQ  R15, R15
	MULXQ 0(DI), AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ 8(DI), AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MULXQ 16(DI), AX, BX
	ADCXQ AX, R13
	ADOXQ BX, R14
	MULXQ 24(DI), AX, BX
	ADCXQ AX, R14
	ADOXQ BX, R15
	MOVQ  $0, AX
	ADCXQ AX, R15

	P256_REDUCE_STORE
	RET

// func p256SqrADX(z, x *[4]uint64)
//
// Schoolbook squaring: the six cross products a_i·a_j (i < j), doubled,
// plus the four squares a_i² — ten MULX against the multiplier's
// sixteen — into the eight-word T = (R8 … R15), which
// P256_REDUCE_STORE then reduces.
//
// Register plan: SI x pointer (limbs multiplied from memory), R8..R15
// the product T = (t0 … t7), DX the MULX multiplicand, AX BX scratch.
TEXT ·p256SqrADX(SB), NOSPLIT, $0-16
	MOVQ x+8(FP), SI

	// a0·(a1, a2, a3) into t1..t4
	MOVQ  0(SI), DX
	MULXQ 8(SI), R9, R10
	MULXQ 16(SI), AX, R11
	ADDQ  AX, R10
	MULXQ 24(SI), AX, R12
	ADCQ  AX, R11
	ADCQ  $0, R12

	// a1·(a2, a3) into t3..t5
	MOVQ  8(SI), DX
	XORQ  R13, R13
	MULXQ 16(SI), AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ 24(SI), AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MOVQ  $0, AX
	ADCXQ AX, R13

	// a2·a3 into t5..t6
	MOVQ  16(SI), DX
	MULXQ 24(SI), AX, R14
	ADDQ  AX, R13
	ADCQ  $0, R14

	// double the cross products into t1..t7
	XORQ R15, R15
	ADDQ R9, R9
	ADCQ R10, R10
	ADCQ R11, R11
	ADCQ R12, R12
	ADCQ R13, R13
	ADCQ R14, R14
	ADCQ $0, R15

	// add the squares a_i² (MULX and MOVQ leave the carry chain alone)
	MOVQ  0(SI), DX
	MULXQ DX, R8, AX
	ADDQ  AX, R9
	MOVQ  8(SI), DX
	MULXQ DX, AX, BX
	ADCQ  AX, R10
	ADCQ  BX, R11
	MOVQ  16(SI), DX
	MULXQ DX, AX, BX
	ADCQ  AX, R12
	ADCQ  BX, R13
	MOVQ  24(SI), DX
	MULXQ DX, AX, BX
	ADCQ  AX, R14
	ADCQ  BX, R15

	P256_REDUCE_STORE
	RET

// func ordMulADX(z, x, y *[4]uint64)
//
// Fully-unrolled 4-limb CIOS Montgomery multiplication modulo the group
// order q, which has no special form: each round's reduction
// multiplies u = t0·n0 by all four limbs of q.
//
// Register plan:
//
//	SI           x pointer
//	CX DI R14 R15  y limbs (loaded once; reused as the subtraction
//	               scratch after the rounds, when y is dead)
//	R8..R13      the six-word accumulator t, rotating one register
//	             per round — after a round's reduction the old t0
//	             register holds exactly 0 (u is chosen so the low
//	             word cancels) and becomes the next round's carry
//	             spill word, so no register moves are needed:
//	               round 1: t = (R8  R9  R10 R11 R12), spill R13
//	               round 2: t = (R9  R10 R11 R12 R13), spill R8
//	               round 3: t = (R10 R11 R12 R13 R8 ), spill R9
//	               round 4: t = (R11 R12 R13 R8  R9 ), spill R10
//	             leaving t = (R12 R13 R8 R9), carry word R10.
//	DX           MULX implicit multiplicand (x limb, then u)
//	AX BX        MULX product scratch / zero for carry folding
TEXT ·ordMulADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ 0(DX), CX
	MOVQ 8(DX), DI
	MOVQ 16(DX), R14
	MOVQ 24(DX), R15
	XORQ R8, R8
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11
	XORQ R12, R12
	XORQ R13, R13

	// ---- round 1: t += x[0]·y ----
	MOVQ  0(SI), DX
	XORQ  AX, AX
	MULXQ CX, AX, BX
	ADCXQ AX, R8
	ADOXQ BX, R9
	MULXQ DI, AX, BX
	ADCXQ AX, R9
	ADOXQ BX, R10
	MULXQ R14, AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MULXQ R15, AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MOVQ  $0, AX
	ADCXQ AX, R12
	ADOXQ AX, R13
	ADCXQ AX, R13

	// reduce: u = t0·n0'; t = (t + u·q) >> 64
	MOVQ  $0xccd1c8aaee00bc4f, DX
	IMULQ R8, DX
	XORQ  AX, AX
	MOVQ  $0xf3b9cac2fc632551, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R8
	ADOXQ BX, R9
	MOVQ  $0xbce6faada7179e84, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R9
	ADOXQ BX, R10
	MOVQ  $-1, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MOVQ  $0xffffffff00000000, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MOVQ  $0, AX
	ADCXQ AX, R12
	ADOXQ AX, R13
	ADCXQ AX, R13

	// ---- round 2: t += x[1]·y ----
	MOVQ  8(SI), DX
	XORQ  AX, AX
	MULXQ CX, AX, BX
	ADCXQ AX, R9
	ADOXQ BX, R10
	MULXQ DI, AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MULXQ R14, AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ R15, AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MOVQ  $0, AX
	ADCXQ AX, R13
	ADOXQ AX, R8
	ADCXQ AX, R8

	MOVQ  $0xccd1c8aaee00bc4f, DX
	IMULQ R9, DX
	XORQ  AX, AX
	MOVQ  $0xf3b9cac2fc632551, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R9
	ADOXQ BX, R10
	MOVQ  $0xbce6faada7179e84, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MOVQ  $-1, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MOVQ  $0xffffffff00000000, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MOVQ  $0, AX
	ADCXQ AX, R13
	ADOXQ AX, R8
	ADCXQ AX, R8

	// ---- round 3: t += x[2]·y ----
	MOVQ  16(SI), DX
	XORQ  AX, AX
	MULXQ CX, AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MULXQ DI, AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ R14, AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MULXQ R15, AX, BX
	ADCXQ AX, R13
	ADOXQ BX, R8
	MOVQ  $0, AX
	ADCXQ AX, R8
	ADOXQ AX, R9
	ADCXQ AX, R9

	MOVQ  $0xccd1c8aaee00bc4f, DX
	IMULQ R10, DX
	XORQ  AX, AX
	MOVQ  $0xf3b9cac2fc632551, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MOVQ  $0xbce6faada7179e84, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MOVQ  $-1, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MOVQ  $0xffffffff00000000, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R13
	ADOXQ BX, R8
	MOVQ  $0, AX
	ADCXQ AX, R8
	ADOXQ AX, R9
	ADCXQ AX, R9

	// ---- round 4: t += x[3]·y ----
	MOVQ  24(SI), DX
	XORQ  AX, AX
	MULXQ CX, AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ DI, AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MULXQ R14, AX, BX
	ADCXQ AX, R13
	ADOXQ BX, R8
	MULXQ R15, AX, BX
	ADCXQ AX, R8
	ADOXQ BX, R9
	MOVQ  $0, AX
	ADCXQ AX, R9
	ADOXQ AX, R10
	ADCXQ AX, R10

	MOVQ  $0xccd1c8aaee00bc4f, DX
	IMULQ R11, DX
	XORQ  AX, AX
	MOVQ  $0xf3b9cac2fc632551, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MOVQ  $0xbce6faada7179e84, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MOVQ  $-1, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R13
	ADOXQ BX, R8
	MOVQ  $0xffffffff00000000, BX
	MULXQ BX, AX, BX
	ADCXQ AX, R8
	ADOXQ BX, R9
	MOVQ  $0, AX
	ADCXQ AX, R9
	ADOXQ AX, R10
	ADCXQ AX, R10

	// t = (R12 R13 R8 R9), carry word R10.
	MOVQ R12, CX
	MOVQ R13, DI
	MOVQ R8, R14
	MOVQ R9, R15
	MOVQ $0xf3b9cac2fc632551, AX
	SUBQ AX, CX
	MOVQ $0xbce6faada7179e84, AX
	SBBQ AX, DI
	MOVQ $-1, AX
	SBBQ AX, R14
	MOVQ $0xffffffff00000000, AX
	SBBQ AX, R15
	SBBQ $0, R10

	CMOVQCS R12, CX
	CMOVQCS R13, DI
	CMOVQCS R8, R14
	CMOVQCS R9, R15
	MOVQ    z+0(FP), DX
	MOVQ    CX, 0(DX)
	MOVQ    DI, 8(DX)
	MOVQ    R14, 16(DX)
	MOVQ    R15, 24(DX)
	RET

// func cpuSupportsADX() bool
TEXT ·cpuSupportsADX(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  noadx
	MOVL $7, AX
	MOVL $0, CX
	CPUID

	// BMI2 is EBX bit 8 (MULX), ADX is EBX bit 19 (ADCX/ADOX).
	ANDL $0x00080100, BX
	CMPL BX, $0x00080100
	JNE  noadx
	MOVB $1, ret+0(FP)
	RET

noadx:
	MOVB $0, ret+0(FP)
	RET
