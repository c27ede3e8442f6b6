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
//   MODMULC512I / MODMUL512I AVX512_IFMA: split operands into 52+9-bit
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

// BROADCAST_SPLIT52(arg, lo, hi, mask): broadcast a uint64 stack argument
// split into its 52-bit low and 9-bit high IFMA limbs.
#define BROADCAST_SPLIT52(arg, lo, hi, mask) \
	VPBROADCASTQ arg, hi \
	VPANDQ       mask, hi, lo \
	VPSRLQ       $52, hi, hi

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

// func polyEvalBatchIFMA(coef []uint64, xs []uint64, out []uint64)
// Same contract as polyEvalBatchAVX512; IFMA52 flavor. The point limbs are
// split once per 8-point block, the accumulator limbs once per step.
TEXT ·polyEvalBatchIFMA(SB), NOSPLIT, $0-72
	MOVQ         coef_base+0(FP), SI
	MOVQ         coef_len+8(FP), DX
	MOVQ         xs_base+24(FP), DI
	MOVQ         xs_len+32(FP), CX
	MOVQ         out_base+48(FP), R8
	VPBROADCASTQ modP512<>(SB), ZP
	VPBROADCASTQ mask52v<>(SB), Z30

pointloop:
	VMOVDQU64 (DI), Z0
	REDUCE512(Z0, Z1, Z2, K1)         // Z1 = canonical points
	VPANDQ    Z30, Z1, Z9             // xL
	VPSRLQ    $52, Z1, Z10            // xH

	VPBROADCASTQ -8(SI)(DX*8), Z3     // acc = coef[k-1]
	MOVQ         DX, R10
	DECQ         R10
	JZ           store
	LEAQ         -16(SI)(DX*8), R9    // &coef[k-2]

coefloop:
	VPANDQ       Z30, Z3, Z0          // accL
	VPSRLQ       $52, Z3, Z1          // accH
	MODMUL512I(Z0, Z1, Z9, Z10, Z5, Z6, Z7, Z8, K1)
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

// func bucketSign2IFMA(h0, h1, g0, g1, m uint64, xs []uint64, buckets []uint64, signs []float64)
// Same contract as bucketSign2AVX512; IFMA52 flavor.
TEXT ·bucketSign2IFMA(SB), NOSPLIT, $0-112
	MOVQ         xs_base+40(FP), DI
	MOVQ         xs_len+48(FP), CX
	MOVQ         buckets_base+64(FP), R8
	MOVQ         signs_base+88(FP), R9
	VPBROADCASTQ modP512<>(SB), ZP
	VPBROADCASTQ mask52v<>(SB), Z30
	BROADCAST_SPLIT52(h1+8(FP), Z29, Z28, Z30)
	BROADCAST_SPLIT52(g1+24(FP), Z27, Z26, Z30)
	BROADCAST_SPLIT512(m+32(FP), Z25, Z24)
	VPBROADCASTQ h0+0(FP), Z23
	VPBROADCASTQ g0+16(FP), Z22
	VPBROADCASTQ one512<>(SB), Z20
	VPBROADCASTQ plus1d512<>(SB), Z19

keyloop:
	VMOVDQU64 (DI), Z0
	REDUCE512(Z0, Z1, Z2, K1)                       // Z1 = xe
	VPANDQ    Z30, Z1, Z9                           // xeL
	VPSRLQ    $52, Z1, Z10                          // xeH

	// Bucket chain: Lemire(h1*xe + h0, m).
	MODMUL512I(Z9, Z10, Z29, Z28, Z4, Z5, Z6, Z7, K1)
	MODADD512(Z4, Z23, Z4, K1)
	VPSLLQ    $3, Z4, Z4
	MULHIC512(Z4, Z25, Z24, Z8, Z5, Z6, Z7)
	VMOVDQU64 Z8, (R8)

	// Sign chain: ±1.0 from the low bit of g1*xe + g0.
	MODMUL512I(Z9, Z10, Z27, Z26, Z4, Z5, Z6, Z7, K1)
	MODADD512(Z4, Z22, Z4, K1)
	VPANDQ    Z20, Z4, Z5
	VPSUBQ    Z20, Z5, Z5
	VPSLLQ    $63, Z5, Z5
	VPXORQ    Z19, Z5, Z5
	VMOVDQU64 Z5, (R9)

	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $8, CX
	JNZ  keyloop
	VZEROUPPER
	RET
