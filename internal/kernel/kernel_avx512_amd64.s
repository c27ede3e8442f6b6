// AVX-512 kernels over GF(2^61-1), eight 64-bit lanes per zmm register.
//
// Same contract as kernel_amd64.s: every routine is pinned bit-identical to
// its pure-Go reference in scalar.go by the differential tests — all lane
// values are canonical representatives in [0, 2^61-1), so exact mod-p
// algebra implies exact bit equality.
//
// Two modmul flavors exist:
//
//   MODMULC512 / MODMUL512   four 32x32 VPMULUDQ limb products, the AVX2
//                            scheme widened to 8 lanes (AVX-512F only).
//   MODMUL512I               AVX512_IFMA: split operands into 52+9-bit
//                            limbs (a = aL + 2^52·aH) and assemble the
//                            122-bit product from seven VPMADD52{L,H}UQ
//                            accumulations:
//                              r = lo52(aL·bL)                      < 2^52
//                              m = hi52(aL·bL)+lo52(aL·bH)+lo52(aH·bL) < 2^54
//                              h = hi52(aL·bH)+hi52(aH·bL)+aH·bH    < 2^19
//                            value = r + 2^52·m + 2^104·h, and with
//                            2^61 ≡ 1: 2^52·m ≡ 2^52·(m mod 2^9) + (m>>9),
//                            2^104·h ≡ 2^43·h; the recombined sum is
//                            < 2^63, one Mersenne fold away from [0, 2p).
//
// polyEvalRowsIFMA evaluates a·x^i products lazily: a row of degree k-1 <= 7
// adds its k-1 coefficient·power products into one set of limb sums and
// reduces once. For canonical operands split as above, each product adds
// < 2^52 to r, < 3·2^52 to m and < 2^18+2^10 to h, so with at most 7 of them
//   r < 2^55,   m < 21·2^52 < 2^57,   h < 2^21.
// The 2^43·h term of MODMUL512I would then overflow, so h folds once more:
// 2^104·h ≡ 2^43·(h mod 2^18) + (h>>18). With
// 2^52·m ≡ 2^52·(m mod 2^9) + (m>>9) as before, the sum
//   r + 2^52·(m mod 2^9) + (m>>9) + 2^43·(h mod 2^18) + (h>>18) + a0
//   < 2^55 + 2^61 + 2^48 + 2^61 + 8 + 2^61 < 2^63,
// and one Mersenne fold leaves at most p+3, which the conditional subtract
// makes canonical.
//
// syndromeFoldIFMA steps each update's product chain q ← q·a with
// MODMUL512I's limb algebra and no conditional subtract, so chains carry
// half-reduced q below 2^61+4: the recombined sum is below 2^63, and one
// fold leaves at most p+3. Such a q can have a 10-bit high limb
// qH = q>>52 <= 2^9, so
//   r < 2^52,   m < 3·2^52,   h < 2^9 + 2^9 + 2^9·(2^9-1) < 2^19,
// and r + 2^52·(m mod 2^9) + (m>>9) + 2^43·h < 2^52 + 2^61 + 2^45 + 2^62
// < 2^63 still holds. Each syndrome j has a lane accumulator, acc[j], that
// starts as (synd[j], 0, ..., 0). A four-chain step adds its four q to it,
// acc + 4·(2^61+3) < 2^64 for acc <= 2^61+4, and folds once: the sum is
// below 5·2^61+17, so the fold leaves acc <= p+5 = 2^61+4 again. The
// one-chain group, always a call's last, adds one q unfolded, acc < 2^62+8.
// At the end of the call each lane is folded (<= p+2) and made canonical,
// the eight lanes sum below 8p < 2^64, and one fold and a conditional
// subtract give the new canonical synd[j].
//
// The conditional subtract uses an opmask compare instead of AVX2's
// float-domain blend: VPCMPUQ sets K where r >= p, and a merge-masked
// VPSUBQ subtracts p in exactly those lanes.

#include "textflag.h"

DATA modP512<>+0x00(SB)/8, $0x1FFFFFFFFFFFFFFF
GLOBL modP512<>(SB), RODATA|NOPTR, $8

DATA one512<>+0x00(SB)/8, $1
GLOBL one512<>(SB), RODATA|NOPTR, $8

DATA plus1d512<>+0x00(SB)/8, $0x3FF0000000000000
GLOBL plus1d512<>(SB), RODATA|NOPTR, $8

DATA mask52v<>+0x00(SB)/8, $0x000FFFFFFFFFFFFF
GLOBL mask52v<>(SB), RODATA|NOPTR, $8

// ZP holds the modulus in all eight lanes throughout every routine.
#define ZP Z31

// CONDSUB512(r, k): r ∈ [0, 2p) -> canonical, via opmask. Clobbers k.
#define CONDSUB512(r, k) \
	VPCMPUQ $5, ZP, r, k \
	VPSUBQ  ZP, r, k, r

// REDUCE512(x, r, t, k): canonicalize arbitrary uint64 lanes x into r.
#define REDUCE512(x, r, t, k) \
	VPANDQ ZP, x, r  \
	VPSRLQ $61, x, t \
	VPADDQ t, r, r   \
	CONDSUB512(r, k)

// MODADD512(a, b, r, k): r = a+b mod p for canonical a, b. r may alias.
#define MODADD512(a, b, r, k) \
	VPADDQ a, b, r \
	CONDSUB512(r, k)

// MODMUL_TAIL512(r, t0, t1, t2, k): shared VPMULUDQ reduction epilogue.
// On entry r = mid, t0 = hi, t1 = lo; on exit r is the canonical product.
#define MODMUL_TAIL512(r, t0, t1, t2, k) \
	VPSLLQ $3, t0, t0  \
	VPANDQ ZP, t1, t2  \
	VPADDQ t0, t2, t2  \
	VPSRLQ $61, t1, t1 \
	VPADDQ t1, t2, t2  \
	VPSLLQ $35, r, t0  \
	VPSRLQ $3, t0, t0  \
	VPADDQ t0, t2, t2  \
	VPSRLQ $29, r, r   \
	VPADDQ t2, r, r    \
	VPANDQ ZP, r, t0   \
	VPSRLQ $61, r, r   \
	VPADDQ t0, r, r    \
	CONDSUB512(r, k)

// MODMUL512(a, b, r, t0, t1, t2, k): r = a*b mod p, a and b preserved.
#define MODMUL512(a, b, r, t0, t1, t2, k) \
	VPSRLQ   $32, a, t0 \
	VPSRLQ   $32, b, t1 \
	VPMULUDQ t1, a, r   \
	VPMULUDQ b, t0, t2  \
	VPADDQ   t2, r, r   \
	VPMULUDQ t1, t0, t0 \
	VPMULUDQ b, a, t1   \
	MODMUL_TAIL512(r, t0, t1, t2, k)

// MODMULC512(a, cLo, cHi, r, t0, t1, t2, k): r = a*c mod p for a constant
// pre-split into broadcast low/high 32-bit halves.
#define MODMULC512(a, cLo, cHi, r, t0, t1, t2, k) \
	VPSRLQ   $32, a, t0  \
	VPMULUDQ cHi, a, r   \
	VPMULUDQ cLo, t0, t2 \
	VPADDQ   t2, r, r    \
	VPMULUDQ cHi, t0, t0 \
	VPMULUDQ cLo, a, t1  \
	MODMUL_TAIL512(r, t0, t1, t2, k)

// MULHIC512(v, mLo, mHi, r, t0, t1, t2): r = high 64 bits of v*m (full
// 64x64 product with carry propagation between 32-bit limb columns) — the
// Lemire bucket reduction.
#define MULHIC512(v, mLo, mHi, r, t0, t1, t2) \
	VPSRLQ   $32, v, t0  \
	VPMULUDQ mLo, v, t1  \
	VPMULUDQ mLo, t0, t2 \
	VPSRLQ   $32, t1, t1 \
	VPADDQ   t1, t2, t2  \
	VPMULUDQ mHi, v, r   \
	VPSLLQ   $32, t2, t1 \
	VPSRLQ   $32, t1, t1 \
	VPADDQ   t1, r, r    \
	VPSRLQ   $32, r, r   \
	VPMULUDQ mHi, t0, t0 \
	VPSRLQ   $32, t2, t2 \
	VPADDQ   t2, t0, t0  \
	VPADDQ   t0, r, r

// BROADCAST_SPLIT512(arg, lo, hi): broadcast the low and high 32-bit halves
// of a uint64 stack argument (pure vector domain, as in the AVX2 file).
#define BROADCAST_SPLIT512(arg, lo, hi) \
	VPBROADCASTQ arg, hi \
	VPSLLQ       $32, hi, lo \
	VPSRLQ       $32, lo, lo \
	VPSRLQ       $32, hi, hi

// MODMUL512I(aL, aH, bL, bH, r, mm, hh, t, k): IFMA52 modular product of
// pre-split operands; aL/aH/bL/bH preserved. See file header for limb
// algebra and bounds.
#define MODMUL512I(aL, aH, bL, bH, r, mm, hh, t, k) \
	VPXORQ      r, r, r       \
	VPXORQ      mm, mm, mm    \
	VPXORQ      hh, hh, hh    \
	VPMADD52LUQ bL, aL, r     \
	VPMADD52HUQ bL, aL, mm    \
	VPMADD52LUQ bH, aL, mm    \
	VPMADD52LUQ bL, aH, mm    \
	VPMADD52HUQ bH, aL, hh    \
	VPMADD52HUQ bL, aH, hh    \
	VPMADD52LUQ bH, aH, hh    \
	VPSLLQ      $55, mm, t    \
	VPSRLQ      $3, t, t      \
	VPADDQ      t, r, r       \
	VPSRLQ      $9, mm, mm    \
	VPADDQ      mm, r, r      \
	VPSLLQ      $43, hh, hh   \
	VPADDQ      hh, r, r      \
	VPANDQ      ZP, r, t      \
	VPSRLQ      $61, r, r     \
	VPADDQ      t, r, r       \
	CONDSUB512(r, k)

// func polyEvalBatchAVX512(coef []uint64, xs []uint64, out []uint64)
// Requires len(coef) >= 1, len(xs) > 0 and len(xs)%8 == 0. Transposed
// Horner, eight independent accumulator chains, VPMULUDQ flavor.
TEXT ·polyEvalBatchAVX512(SB), NOSPLIT, $0-72
	MOVQ         coef_base+0(FP), SI
	MOVQ         coef_len+8(FP), DX
	MOVQ         xs_base+24(FP), DI
	MOVQ         xs_len+32(FP), CX
	MOVQ         out_base+48(FP), R8
	VPBROADCASTQ modP512<>(SB), ZP

pointloop:
	VMOVDQU64 (DI), Z0
	REDUCE512(Z0, Z1, Z2, K1)         // Z1 = canonical points

	VPBROADCASTQ -8(SI)(DX*8), Z3     // acc = coef[k-1]
	MOVQ         DX, R10
	DECQ         R10
	JZ           store
	LEAQ         -16(SI)(DX*8), R9    // &coef[k-2]

coefloop:
	MODMUL512(Z3, Z1, Z5, Z6, Z7, Z8, K1)
	VPBROADCASTQ (R9), Z4
	MODADD512(Z5, Z4, Z3, K1)         // acc = acc*x + coef[j]
	SUBQ         $8, R9
	DECQ         R10
	JNZ          coefloop

store:
	VMOVDQU64 Z3, (R8)
	ADDQ      $64, DI
	ADDQ      $64, R8
	SUBQ      $8, CX
	JNZ       pointloop
	VZEROUPPER
	RET

// HSTEP512I(acc, aL, xL, xH, r, mm, hh, k): one IFMA Horner step of a chain,
// acc = acc·x + coef[j] with coef[j] broadcast from (R9). acc is split in
// place (aL its low limb, acc its high one); aL doubles as MODMUL512I's
// temporary, read only after the last multiply.
#define HSTEP512I(acc, aL, xL, xH, r, mm, hh, k) \
	VPANDQ     Z30, acc, aL                         \
	VPSRLQ     $52, acc, acc                        \
	MODMUL512I(aL, acc, xL, xH, r, mm, hh, aL, k)   \
	VPADDQ.BCST (R9), r, acc                        \
	CONDSUB512(acc, k)

// HLOAD512I(off, acc, xL, xH, t0, t1, k): start a chain on the eight points
// at off(DI): split the canonical points into limbs, acc = coef[k-1].
#define HLOAD512I(off, acc, xL, xH, t0, t1, k) \
	VMOVDQU64    off(DI), t0       \
	REDUCE512(t0, t1, acc, k)      \
	VPANDQ       Z30, t1, xL       \
	VPSRLQ       $52, t1, xH       \
	VPBROADCASTQ (R11), acc

// func polyEvalBatchIFMA(coef []uint64, xs []uint64, out []uint64)
// Same contract as polyEvalBatchAVX512; IFMA52 flavor. One Horner step is a
// chain of dependent multiplies, so the main loop runs four independent
// 8-point chains (32 points) per coefficient step and keeps the multiplier
// busy while each waits on its own previous step; the 8-point loop after it
// takes the remaining blocks. The point limbs are split once per block, the
// accumulator limbs once per step.
TEXT ·polyEvalBatchIFMA(SB), NOSPLIT, $0-72
	MOVQ         coef_base+0(FP), SI
	MOVQ         coef_len+8(FP), DX
	MOVQ         xs_base+24(FP), DI
	MOVQ         xs_len+32(FP), CX
	MOVQ         out_base+48(FP), R8
	VPBROADCASTQ modP512<>(SB), ZP
	VPBROADCASTQ mask52v<>(SB), Z30
	LEAQ         -8(SI)(DX*8), R11    // &coef[k-1]

quadloop:
	CMPQ CX, $32
	JB   pointloop
	HLOAD512I(0, Z0, Z2, Z3, Z4, Z5, K1)
	HLOAD512I(64, Z7, Z9, Z10, Z11, Z12, K2)
	HLOAD512I(128, Z14, Z16, Z17, Z18, Z19, K3)
	HLOAD512I(192, Z21, Z23, Z24, Z25, Z26, K4)
	MOVQ         DX, R10
	DECQ         R10
	JZ           quadstore
	LEAQ         -16(SI)(DX*8), R9    // &coef[k-2]

quadcoef:
	HSTEP512I(Z0, Z1, Z2, Z3, Z4, Z5, Z6, K1)
	HSTEP512I(Z7, Z8, Z9, Z10, Z11, Z12, Z13, K2)
	HSTEP512I(Z14, Z15, Z16, Z17, Z18, Z19, Z20, K3)
	HSTEP512I(Z21, Z22, Z23, Z24, Z25, Z26, Z27, K4)
	SUBQ $8, R9
	DECQ R10
	JNZ  quadcoef

quadstore:
	VMOVDQU64 Z0, (R8)
	VMOVDQU64 Z7, 64(R8)
	VMOVDQU64 Z14, 128(R8)
	VMOVDQU64 Z21, 192(R8)
	ADDQ      $256, DI
	ADDQ      $256, R8
	SUBQ      $32, CX
	JMP       quadloop

pointloop:
	TESTQ CX, CX
	JZ    done
	HLOAD512I(0, Z0, Z2, Z3, Z4, Z5, K1)
	MOVQ  DX, R10
	DECQ  R10
	JZ    store
	LEAQ  -16(SI)(DX*8), R9           // &coef[k-2]

coefloop:
	HSTEP512I(Z0, Z1, Z2, Z3, Z4, Z5, Z6, K1)
	SUBQ $8, R9
	DECQ R10
	JNZ  coefloop

store:
	VMOVDQU64 Z0, (R8)
	ADDQ      $64, DI
	ADDQ      $64, R8
	SUBQ      $8, CX
	JMP       pointloop

done:
	VZEROUPPER
	RET

// POWER512I(aL, aH, bL, bH, oL, oH): the limbs of the canonical product
// a·b, for the power table of polyEvalRowsIFMA. Clobbers Z14-Z17 and K1.
#define POWER512I(aL, aH, bL, bH, oL, oH) \
	MODMUL512I(aL, aH, bL, bH, Z14, Z15, Z16, Z17, K1) \
	VPANDQ Z30, Z14, oL                                \
	VPSRLQ $52, Z14, oH

// LAZYTERM512I(pL, pH, off): add the unreduced limb products of the power
// (pL, pH) and the coefficient whose limbs sit at off(CX), off+8(CX) into
// the row's sums: r (Z14), m (Z15 + Z16) and h (Z17 + Z18). Two registers
// each for m and h halve the longest dependent chain.
#define LAZYTERM512I(pL, pH, off) \
	VPMADD52LUQ.BCST off(CX), pL, Z14      \
	VPMADD52HUQ.BCST off(CX), pL, Z15      \
	VPMADD52LUQ.BCST off+8(CX), pL, Z16    \
	VPMADD52LUQ.BCST off(CX), pH, Z16      \
	VPMADD52HUQ.BCST off+8(CX), pL, Z17    \
	VPMADD52LUQ.BCST off+8(CX), pH, Z17    \
	VPMADD52HUQ.BCST off(CX), pH, Z18

// func polyEvalRowsIFMA(cs []uint64, k int, xs []uint64, out []uint64, stride int)
// Multi-row IFMA evaluation of len(cs)/16 polynomials of k coefficients,
// 2 <= k <= 8, at the points xs (len(xs) > 0 and %8 == 0): row j's value at
// xs[t] goes to out[j*stride+t]. cs holds 16 words per row: a0, then the
// 52/9-bit limbs of a1..a(k-1), all canonical. Per 8-point block the points
// are reduced and split once and the power table x..x^(k-1) (Z0-Z13, limb
// pairs) is built once, as a product tree of depth 3; each row then adds
// its k-1 coefficient·power products unreduced (see the file header for the
// bounds) and pays one recombination, where Horner pays one per step.
TEXT ·polyEvalRowsIFMA(SB), NOSPLIT, $0-88
	MOVQ         cs_base+0(FP), SI
	MOVQ         cs_len+8(FP), R12
	SHRQ         $4, R12                 // rows
	MOVQ         k+24(FP), DX
	MOVQ         xs_base+32(FP), DI
	MOVQ         xs_len+40(FP), R13
	MOVQ         out_base+56(FP), R8
	MOVQ         stride+80(FP), R11
	SHLQ         $3, R11                 // row stride in bytes
	VPBROADCASTQ modP512<>(SB), ZP
	VPBROADCASTQ mask52v<>(SB), Z30

block:
	VMOVDQU64 (DI), Z19
	REDUCE512(Z19, Z14, Z15, K1)         // canonical points
	VPANDQ    Z30, Z14, Z0               // x
	VPSRLQ    $52, Z14, Z1
	CMPQ      DX, $3
	JB        rows
	POWER512I(Z0, Z1, Z0, Z1, Z2, Z3)    // x^2
	CMPQ      DX, $4
	JB        rows
	POWER512I(Z2, Z3, Z0, Z1, Z4, Z5)    // x^3 = x^2·x
	CMPQ      DX, $5
	JB        rows
	POWER512I(Z2, Z3, Z2, Z3, Z6, Z7)    // x^4 = x^2·x^2
	CMPQ      DX, $6
	JB        rows
	POWER512I(Z6, Z7, Z0, Z1, Z8, Z9)    // x^5 = x^4·x
	CMPQ      DX, $7
	JB        rows
	POWER512I(Z6, Z7, Z2, Z3, Z10, Z11)  // x^6 = x^4·x^2
	CMPQ      DX, $8
	JB        rows
	POWER512I(Z6, Z7, Z4, Z5, Z12, Z13)  // x^7 = x^4·x^3

rows:
	MOVQ SI, CX
	MOVQ R8, BX
	MOVQ R12, R10

row:
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	LAZYTERM512I(Z0, Z1, 8)
	CMPQ   DX, $2
	JEQ    recombine
	LAZYTERM512I(Z2, Z3, 24)
	CMPQ   DX, $3
	JEQ    recombine
	LAZYTERM512I(Z4, Z5, 40)
	CMPQ   DX, $4
	JEQ    recombine
	LAZYTERM512I(Z6, Z7, 56)
	CMPQ   DX, $5
	JEQ    recombine
	LAZYTERM512I(Z8, Z9, 72)
	CMPQ   DX, $6
	JEQ    recombine
	LAZYTERM512I(Z10, Z11, 88)
	CMPQ   DX, $7
	JEQ    recombine
	LAZYTERM512I(Z12, Z13, 104)

recombine:
	VPADDQ      Z16, Z15, Z15            // m
	VPADDQ      Z18, Z17, Z17            // h
	VPSLLQ      $55, Z15, Z19            // 2^52·(m mod 2^9)
	VPSRLQ      $3, Z19, Z19
	VPADDQ      Z19, Z14, Z14
	VPSRLQ      $9, Z15, Z15             // m>>9
	VPADDQ      Z15, Z14, Z14
	VPSLLQ      $46, Z17, Z19            // 2^43·(h mod 2^18)
	VPSRLQ      $3, Z19, Z19
	VPADDQ      Z19, Z14, Z14
	VPSRLQ      $18, Z17, Z17            // h>>18
	VPADDQ      Z17, Z14, Z14
	VPADDQ.BCST (CX), Z14, Z14           // + a0; the sum is < 2^63
	VPANDQ      ZP, Z14, Z19
	VPSRLQ      $61, Z14, Z14
	VPADDQ      Z19, Z14, Z14
	CONDSUB512(Z14, K2)
	VMOVDQU64   Z14, (BX)
	ADDQ        $128, CX
	ADDQ        R11, BX
	DECQ        R10
	JNZ         row

	ADDQ $64, DI
	ADDQ $64, R8
	SUBQ $8, R13
	JNZ  block
	VZEROUPPER
	RET

// func bucketSign2AVX512(h0, h1, g0, g1, m uint64, xs []uint64, buckets []uint64, signs []float64)
// Fused pairwise count-sketch row kernel; len(xs) > 0 and %8 == 0.
// VPMULUDQ flavor.
TEXT ·bucketSign2AVX512(SB), NOSPLIT, $0-112
	MOVQ         xs_base+40(FP), DI
	MOVQ         xs_len+48(FP), CX
	MOVQ         buckets_base+64(FP), R8
	MOVQ         signs_base+88(FP), R9
	VPBROADCASTQ modP512<>(SB), ZP
	BROADCAST_SPLIT512(h1+8(FP), Z30, Z29)
	BROADCAST_SPLIT512(g1+24(FP), Z28, Z27)
	BROADCAST_SPLIT512(m+32(FP), Z26, Z25)
	VPBROADCASTQ h0+0(FP), Z24
	VPBROADCASTQ g0+16(FP), Z23
	VPBROADCASTQ one512<>(SB), Z22
	VPBROADCASTQ plus1d512<>(SB), Z21

keyloop:
	VMOVDQU64 (DI), Z0
	REDUCE512(Z0, Z1, Z2, K1)                     // Z1 = xe

	// Bucket chain: Lemire(h1*xe + h0, m).
	MODMULC512(Z1, Z30, Z29, Z2, Z3, Z4, Z5, K1)
	MODADD512(Z2, Z24, Z2, K1)
	VPSLLQ    $3, Z2, Z2                          // v<<3: Lemire on 61 bits
	MULHIC512(Z2, Z26, Z25, Z6, Z3, Z4, Z5)
	VMOVDQU64 Z6, (R8)

	// Sign chain: ±1.0 from the low bit of g1*xe + g0 (bit trick as AVX2).
	MODMULC512(Z1, Z28, Z27, Z2, Z3, Z4, Z5, K1)
	MODADD512(Z2, Z23, Z2, K1)
	VPANDQ    Z22, Z2, Z3
	VPSUBQ    Z22, Z3, Z3
	VPSLLQ    $63, Z3, Z3
	VPXORQ    Z21, Z3, Z3
	VMOVDQU64 Z3, (R9)

	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $8, CX
	JNZ  keyloop
	VZEROUPPER
	RET

// SMUL512I(q, a, aH, t, r, mm, hh): one step of a syndrome product chain,
// q ← q·a half-reduced, for q < 2^61+4 and a with its high limb aH = a>>52.
// VPMADD52 reads only bits 51:0 of its sources, so q and a serve as their
// own low limbs unmasked; t takes q's high limb (at most 2^9), then serves as
// the temporary. MODMUL512I's limb algebra with no conditional subtract:
// see the file header for the bounds.
#define SMUL512I(q, a, aH, t, r, mm, hh) \
	VPSRLQ      $52, q, t     \
	VPXORQ      r, r, r       \
	VPXORQ      mm, mm, mm    \
	VPXORQ      hh, hh, hh    \
	VPMADD52LUQ a, q, r       \
	VPMADD52HUQ a, q, mm      \
	VPMADD52LUQ aH, q, mm     \
	VPMADD52LUQ a, t, mm      \
	VPMADD52HUQ aH, q, hh     \
	VPMADD52HUQ a, t, hh      \
	VPMADD52LUQ aH, t, hh     \
	VPSLLQ      $55, mm, t    \
	VPSRLQ      $3, t, t      \
	VPADDQ      t, r, r       \
	VPSRLQ      $9, mm, mm    \
	VPADDQ      mm, r, r      \
	VPSLLQ      $43, hh, hh   \
	VPADDQ      hh, r, r      \
	VPANDQ      ZP, r, t      \
	VPSRLQ      $61, r, r     \
	VPADDQ      t, r, q

// SLOAD512I(off, k, q, a, aH): start a chain on the lanes of k at off(DI)
// and off(BX): q = d, a and its high limb; lanes outside k load as zero, a
// padding update with d = 0 whose products are all exactly 0.
#define SLOAD512I(off, k, q, a, aH) \
	VMOVDQU64.Z off(DI), k, q \
	VMOVDQU64.Z off(BX), k, a \
	VPSRLQ      $52, a, aH

// SFOLD512(x, t): x ← (x mod 2^61) + (x >> 61), the lane accumulators' fold.
#define SFOLD512(x, t) \
	VPANDQ ZP, x, t  \
	VPSRLQ $61, x, x \
	VPADDQ t, x, x

// SMASK(off, k): k = the lanes of the 8-update block that starts off updates
// into the group, from the R13 updates left: min(max(R13-off, 0), 8) ones.
#define SMASK(off, k) \
	MOVQ    R13, CX  \
	SUBQ    $off, CX \
	XORQ    AX, AX   \
	CMPQ    CX, AX   \
	CMOVQLT AX, CX   \
	MOVQ    $8, AX   \
	CMPQ    CX, AX   \
	CMOVQGT AX, CX   \
	MOVQ    $1, AX   \
	SHLQ    CX, AX   \
	DECQ    AX       \
	KMOVW   AX, k

// func syndromeFoldIFMA(synd []uint64, d []uint64, a []uint64)
// synd[j] += Σ_t d[t]·a[t]^j for j < len(synd), 1 <= len(synd) <= 24,
// 1 <= len(d) <= len(a); d below 2^61+4, a and synd canonical. Lanes are
// updates: each chain carries eight updates' products q = d·a^j and steps
// by q ← q·a. Groups of 32 updates run four chains in flight per step j; a
// last group of at most 8 runs one. Partial blocks load masked, their
// missing lanes as zero. Syndrome j's lane accumulator acc[8j:8j+8] starts
// as (synd[j], 0, ..., 0), takes each step's products lazily (see the file
// header) and is summed across its lanes once, at the end of the call. The
// accumulators live in this function's own 1.5 KiB frame, which, unlike a Go
// array, nobody zeroes first: the call's fixed cost stays small for the few
// members of a subsampled level.
TEXT ·syndromeFoldIFMA(SB), $1536-72
	MOVQ         synd_base+0(FP), SI
	MOVQ         synd_len+8(FP), R11
	MOVQ         d_base+24(FP), DI
	MOVQ         d_len+32(FP), R13
	MOVQ         a_base+48(FP), BX
	MOVQ         SP, R8                     // acc: the frame, 64 bytes a syndrome
	VPBROADCASTQ modP512<>(SB), ZP

	// acc[j] = (synd[j], 0, ..., 0): VMOVQ zeroes the rest of the register.
	MOVQ SI, DX
	MOVQ R8, R9
	MOVQ R11, R10

sinit:
	VMOVQ     (DX), X0
	VMOVDQU64 Z0, (R9)
	ADDQ      $8, DX
	ADDQ      $64, R9
	DECQ      R10
	JNZ       sinit

sgroup:
	CMPQ R13, $8
	JLE  ssingle
	SMASK(0, K1)
	SMASK(8, K2)
	SMASK(16, K3)
	SMASK(24, K4)
	SLOAD512I(0, K1, Z0, Z1, Z2)
	SLOAD512I(64, K2, Z7, Z8, Z9)
	SLOAD512I(128, K3, Z14, Z15, Z16)
	SLOAD512I(192, K4, Z21, Z22, Z23)
	MOVQ R8, R9
	MOVQ R11, R10

squadstep:
	VPADDQ    Z0, Z7, Z28
	VPADDQ    Z14, Z21, Z29
	VPADDQ    Z29, Z28, Z28
	VPADDQ    (R9), Z28, Z28
	SFOLD512(Z28, Z29)
	VMOVDQU64 Z28, (R9)
	ADDQ      $64, R9
	DECQ      R10
	JZ        squadnext
	SMUL512I(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	SMUL512I(Z7, Z8, Z9, Z10, Z11, Z12, Z13)
	SMUL512I(Z14, Z15, Z16, Z17, Z18, Z19, Z20)
	SMUL512I(Z21, Z22, Z23, Z24, Z25, Z26, Z27)
	JMP       squadstep

squadnext:
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, R13
	JG   sgroup
	JMP  ssums

ssingle:
	SMASK(0, K1)
	SLOAD512I(0, K1, Z0, Z1, Z2)
	MOVQ R8, R9
	MOVQ R11, R10

ssinglestep:
	VPADDQ    (R9), Z0, Z28
	VMOVDQU64 Z28, (R9)
	ADDQ      $64, R9
	DECQ      R10
	JZ        ssums
	SMUL512I(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	JMP       ssinglestep

	// synd[j] = the sum of acc[j]'s lanes: each lane made canonical by a
	// fold and a conditional subtract, eight of them below 2^64, then one
	// fold and a conditional subtract of the sum.
ssums:
	MOVQ $0x1FFFFFFFFFFFFFFF, DX
	MOVQ R8, R9
	MOVQ R11, R10

ssumloop:
	VMOVDQU64     (R9), Z0
	SFOLD512(Z0, Z1)
	CONDSUB512(Z0, K5)
	VEXTRACTI64X4 $1, Z0, Y1
	VPADDQ        Y1, Y0, Y0
	VEXTRACTI128  $1, Y0, X1
	VPADDQ        X1, X0, X0
	VPSHUFD       $0x4E, X0, X1
	VPADDQ        X1, X0, X0
	VMOVQ         X0, AX
	MOVQ          AX, CX
	SHRQ          $61, CX
	ANDQ          DX, AX
	ADDQ          CX, AX
	MOVQ          AX, CX
	SUBQ          DX, CX
	CMOVQCC       CX, AX
	MOVQ          AX, (SI)
	ADDQ          $8, SI
	ADDQ          $64, R9
	DECQ          R10
	JNZ           ssumloop
	VZEROUPPER
	RET
