// AVX2 kernels over GF(2^61-1), four 64-bit lanes per ymm register.
//
// Every routine here is pinned bit-identical to its pure-Go reference in
// scalar.go by TestDifferential* (and transitively to internal/field by the
// per-package variant sweeps): all lane values are canonical representatives
// in [0, 2^61-1), so exact mod-p algebra implies exact bit equality.
//
// Arithmetic building blocks (AVX2 has no 64x64 multiply, so products are
// assembled from four 32x32 VPMULUDQ limb products):
//
//   CONDSUB    r ∈ [0, 2p) -> canonical: t = r-p, keep r where t is negative
//              (VBLENDVPD selects by sign bit; all operands are < 2^62, so
//              the float-domain blend never sees a spurious sign).
//   REDUCE     arbitrary uint64 -> canonical: one Mersenne fold + CONDSUB.
//   MODADD     canonical a+b -> canonical.
//   MODMUL     full 61-bit modular product a*b:
//                lo  = aLo*bLo            (< 2^64)
//                mid = aHi*bLo + aLo*bHi  (< 2^62)
//                hi  = aHi*bHi            (< 2^58)
//              value = lo + mid*2^32 + hi*2^64, and with 2^61 = 1 (mod p):
//                r = (lo&p) + (lo>>61) + ((mid<<35)>>3) + (mid>>29) + (hi<<3)
//              ((mid<<35)>>3 is (mid & (2^29-1))<<32 without a mask
//              constant), r < 2^63, then one fold + CONDSUB.
//   MODMULC    MODMUL against a pre-split broadcast constant (cLo, cHi).
//   MULHIC     plain 64x64 high word against a pre-split constant — the
//              Lemire bucket reduction floor(v*m/2^64).

#include "textflag.h"

DATA modP<>+0x00(SB)/8, $0x1FFFFFFFFFFFFFFF
GLOBL modP<>(SB), RODATA|NOPTR, $8

DATA ones256<>+0x00(SB)/8, $1
DATA ones256<>+0x08(SB)/8, $1
DATA ones256<>+0x10(SB)/8, $1
DATA ones256<>+0x18(SB)/8, $1
GLOBL ones256<>(SB), RODATA|NOPTR, $32

DATA plus1d256<>+0x00(SB)/8, $0x3FF0000000000000
DATA plus1d256<>+0x08(SB)/8, $0x3FF0000000000000
DATA plus1d256<>+0x10(SB)/8, $0x3FF0000000000000
DATA plus1d256<>+0x18(SB)/8, $0x3FF0000000000000
GLOBL plus1d256<>(SB), RODATA|NOPTR, $32

// YP holds the modulus in all four lanes throughout every routine.
#define YP Y15

// CONDSUB(r, t): r = r >= p ? r-p : r, for r < 2^62. Clobbers t.
#define CONDSUB(r, t) \
	VPSUBQ    YP, r, t \
	VBLENDVPD t, r, t, r

// REDUCE(x, r, t): canonicalize arbitrary uint64 lanes x into r. Clobbers t.
#define REDUCE(x, r, t) \
	VPAND  YP, x, r  \
	VPSRLQ $61, x, t \
	VPADDQ t, r, r   \
	CONDSUB(r, t)

// MODADD(a, b, r, t): r = a+b mod p for canonical a, b. r may alias a or b.
#define MODADD(a, b, r, t) \
	VPADDQ a, b, r \
	CONDSUB(r, t)

// MODMUL_TAIL(r, t0, t1, t2): shared reduction epilogue. On entry r = mid,
// t0 = hi, t1 = lo; on exit r is the canonical product.
#define MODMUL_TAIL(r, t0, t1, t2) \
	VPSLLQ $3, t0, t0  \
	VPAND  YP, t1, t2  \
	VPADDQ t0, t2, t2  \
	VPSRLQ $61, t1, t1 \
	VPADDQ t1, t2, t2  \
	VPSLLQ $35, r, t0  \
	VPSRLQ $3, t0, t0  \
	VPADDQ t0, t2, t2  \
	VPSRLQ $29, r, r   \
	VPADDQ t2, r, r    \
	VPAND  YP, r, t0   \
	VPSRLQ $61, r, r   \
	VPADDQ t0, r, r    \
	CONDSUB(r, t0)

// MODMUL(a, b, r, t0, t1, t2): r = a*b mod p, canonical a and b preserved.
#define MODMUL(a, b, r, t0, t1, t2) \
	VPSRLQ   $32, a, t0 \
	VPSRLQ   $32, b, t1 \
	VPMULUDQ t1, a, r   \
	VPMULUDQ b, t0, t2  \
	VPADDQ   t2, r, r   \
	VPMULUDQ t1, t0, t0 \
	VPMULUDQ b, a, t1   \
	MODMUL_TAIL(r, t0, t1, t2)

// MODMULC(a, cLo, cHi, r, t0, t1, t2): r = a*c mod p for a canonical and a
// constant pre-split into broadcast low/high 32-bit halves.
#define MODMULC(a, cLo, cHi, r, t0, t1, t2) \
	VPSRLQ   $32, a, t0  \
	VPMULUDQ cHi, a, r   \
	VPMULUDQ cLo, t0, t2 \
	VPADDQ   t2, r, r    \
	VPMULUDQ cHi, t0, t0 \
	VPMULUDQ cLo, a, t1  \
	MODMUL_TAIL(r, t0, t1, t2)

// MULHIC(v, mLo, mHi, r, t0, t1, t2): r = high 64 bits of v*m (full 64x64
// product with carry propagation between 32-bit limb columns).
#define MULHIC(v, mLo, mHi, r, t0, t1, t2) \
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

// BROADCAST_SPLIT(arg, lo, hi): broadcast the low and high 32-bit halves of
// a uint64 stack argument into two ymm registers. The split stays entirely
// in the vector domain: routing the halves through a GPR would need the
// legacy-SSE MOVQ GPR->XMM form (the Go assembler has no VEX spelling of
// it), and a legacy SSE write with dirty YMM uppers stalls for hundreds of
// cycles per transition on the Xeon classes this targets.
#define BROADCAST_SPLIT(arg, lo, hi) \
	VPBROADCASTQ arg, hi \
	VPSLLQ       $32, hi, lo \
	VPSRLQ       $32, lo, lo \
	VPSRLQ       $32, hi, hi

// func polyEvalBatchAVX2(coef []uint64, xs []uint64, out []uint64)
// Requires len(coef) >= 1, len(xs) > 0 and len(xs)%4 == 0 (the Go wrapper
// guarantees both). Transposed Horner: four independent accumulator chains
// walk the coefficients high to low, seeded with coef[k-1] (bit-identical to
// starting from 0: 0*x + c = c exactly).
TEXT ·polyEvalBatchAVX2(SB), NOSPLIT, $0-72
	MOVQ         coef_base+0(FP), SI
	MOVQ         coef_len+8(FP), DX
	MOVQ         xs_base+24(FP), DI
	MOVQ         xs_len+32(FP), CX
	MOVQ         out_base+48(FP), R8
	VPBROADCASTQ modP<>(SB), YP

pointloop:
	VMOVDQU (DI), Y0
	REDUCE(Y0, Y1, Y2)                // Y1 = canonical points

	VPBROADCASTQ -8(SI)(DX*8), Y3     // acc = coef[k-1]
	MOVQ         DX, R10
	DECQ         R10
	JZ           store
	LEAQ         -16(SI)(DX*8), R9    // &coef[k-2]

coefloop:
	MODMUL(Y3, Y1, Y5, Y6, Y7, Y8)    // Y5 = acc*x
	VPBROADCASTQ (R9), Y4
	MODADD(Y5, Y4, Y3, Y6)            // acc = acc*x + coef[j]
	SUBQ         $8, R9
	DECQ         R10
	JNZ          coefloop

store:
	VMOVDQU Y3, (R8)
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX
	JNZ     pointloop
	VZEROUPPER
	RET

// func bucketSign2AVX2(h0, h1, g0, g1, m uint64, xs []uint64, buckets []uint64, signs []float64)
// Fused pairwise count-sketch row kernel; len(xs) > 0 and %4 == 0.
TEXT ·bucketSign2AVX2(SB), NOSPLIT, $0-112
	MOVQ         xs_base+40(FP), DI
	MOVQ         xs_len+48(FP), CX
	MOVQ         buckets_base+64(FP), R8
	MOVQ         signs_base+88(FP), R9
	VPBROADCASTQ modP<>(SB), YP
	BROADCAST_SPLIT(h1+8(FP), Y14, Y13)
	BROADCAST_SPLIT(g1+24(FP), Y12, Y11)
	BROADCAST_SPLIT(m+32(FP), Y10, Y9)

keyloop:
	VMOVDQU (DI), Y0
	REDUCE(Y0, Y1, Y2)                       // Y1 = xe

	// Bucket chain: Lemire(h1*xe + h0, m).
	MODMULC(Y1, Y14, Y13, Y2, Y3, Y4, Y5)
	VPBROADCASTQ h0+0(FP), Y3
	MODADD(Y2, Y3, Y2, Y4)
	VPSLLQ       $3, Y2, Y2                  // v<<3: Lemire on a 61-bit value
	MULHIC(Y2, Y10, Y9, Y6, Y3, Y4, Y5)
	VMOVDQU      Y6, (R8)

	// Sign chain: ±1.0 from the low bit of g1*xe + g0. The float bits are
	// built directly: (bit-1)<<63 is the sign mask for bit==0, XORed onto
	// the bit pattern of +1.0.
	MODMULC(Y1, Y12, Y11, Y2, Y3, Y4, Y5)
	VPBROADCASTQ g0+16(FP), Y3
	MODADD(Y2, Y3, Y2, Y4)
	VPAND        ones256<>(SB), Y2, Y3
	VPSUBQ       ones256<>(SB), Y3, Y3
	VPSLLQ       $63, Y3, Y3
	VPXOR        plus1d256<>(SB), Y3, Y3
	VMOVDQU      Y3, (R9)

	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JNZ  keyloop
	VZEROUPPER
	RET
