// arm64 kernels over GF(2^61-1) for the NEON tier.
//
// AdvSIMD has no 64-bit lane multiply, and assembling 61-bit modular
// products from 32x32 UMULL limbs loses to MUL+UMULH, so the modmul-bound
// primitives (polyEvalBatch, bucketSign2) are hand-scheduled scalar
// assembly that processes two keys per iteration as two fully independent
// MUL/UMULH limb chains, instruction-interleaved so the second chain's
// multiplies issue in the first chain's latency shadow — parallelism the
// compiled one-key-at-a-time reference never exposes. Same bit-identity
// contract as every other variant: all arithmetic is exact mod-p algebra on
// canonical representatives.
//
// Scalar-chain building blocks (p = 2^61-1 in a register):
//   reduce:  e = (x&p) + (x>>61); if e >= p { e -= p }      (ADD x>>61 fused)
//   modmul:  lo,hi = MUL,UMULH; v = (lo&p) + (lo>>61) + hi<<3 < 2^62,
//            then one more fold + conditional subtract -> canonical
//   condsub: SUBS sets carry exactly when the subtraction does not borrow,
//            CSEL CS picks the reduced value

#include "textflag.h"

// func polyEvalBatchNEON(coef []uint64, xs []uint64, out []uint64)
// Transposed Horner, two independent accumulator chains per iteration.
// len(coef) >= 1, len(xs) > 0 and len(xs)%2 == 0.
TEXT ·polyEvalBatchNEON(SB), NOSPLIT, $0-72
	MOVD coef_base+0(FP), R0
	MOVD coef_len+8(FP), R1
	MOVD xs_base+24(FP), R2
	MOVD xs_len+32(FP), R3
	MOVD out_base+48(FP), R5
	MOVD $0x1FFFFFFFFFFFFFFF, R4

pairloop:
	LDP (R2), (R11, R16)
	// eA/eB = reduce(x)
	AND  R4, R11, R12
	AND  R4, R16, R17
	ADD  R11>>61, R12, R12
	ADD  R16>>61, R17, R17
	SUBS R4, R12, R13
	CSEL CS, R13, R12, R12
	SUBS R4, R17, R19
	CSEL CS, R19, R17, R17
	// acc = coef[k-1], both chains
	SUB  $1, R1, R6
	MOVD (R0)(R6<<3), R15
	MOVD R15, R21
	CBZ  R6, store

coefloop:
	SUB   $1, R6, R6
	MOVD  (R0)(R6<<3), R10
	// acc = acc*e mod p, chains interleaved
	MUL   R12, R15, R13
	MUL   R17, R21, R19
	UMULH R12, R15, R14
	UMULH R17, R21, R20
	AND   R4, R13, R15
	AND   R4, R19, R21
	ADD   R13>>61, R15, R15
	ADD   R19>>61, R21, R21
	ADD   R14<<3, R15, R15
	ADD   R20<<3, R21, R21
	AND   R4, R15, R13
	AND   R4, R21, R19
	ADD   R15>>61, R13, R13
	ADD   R21>>61, R19, R19
	SUBS  R4, R13, R14
	CSEL  CS, R14, R13, R15
	SUBS  R4, R19, R20
	CSEL  CS, R20, R19, R21
	// acc += coef[j] mod p
	ADD   R10, R15, R15
	ADD   R10, R21, R21
	SUBS  R4, R15, R13
	CSEL  CS, R13, R15, R15
	SUBS  R4, R21, R19
	CSEL  CS, R19, R21, R21
	CBNZ  R6, coefloop

store:
	STP  (R15, R21), (R5)
	ADD  $16, R2
	ADD  $16, R5
	SUBS $2, R3, R3
	BNE  pairloop
	RET

// func bucketSign2NEON(h0, h1, g0, g1, m uint64, xs []uint64, buckets []uint64, signs []float64)
// Fused pairwise count-sketch row kernel, two keys per iteration.
// len(xs) > 0 and len(xs)%2 == 0.
TEXT ·bucketSign2NEON(SB), NOSPLIT, $0-112
	MOVD h0+0(FP), R5
	MOVD h1+8(FP), R6
	MOVD g0+16(FP), R7
	MOVD g1+24(FP), R8
	MOVD m+32(FP), R9
	MOVD xs_base+40(FP), R0
	MOVD xs_len+48(FP), R1
	MOVD buckets_base+64(FP), R2
	MOVD signs_base+88(FP), R3
	MOVD $0x1FFFFFFFFFFFFFFF, R4
	MOVD $0x3FF0000000000000, R10

pairloop:
	LDP (R0), (R11, R16)
	// eA/eB = reduce(x)
	AND  R4, R11, R12
	AND  R4, R16, R17
	ADD  R11>>61, R12, R12
	ADD  R16>>61, R17, R17
	SUBS R4, R12, R13
	CSEL CS, R13, R12, R12
	SUBS R4, R17, R19
	CSEL CS, R19, R17, R17

	// Bucket chain: Lemire(h1*e + h0, m).
	MUL   R6, R12, R13
	MUL   R6, R17, R19
	UMULH R6, R12, R14
	UMULH R6, R17, R20
	AND   R4, R13, R15
	AND   R4, R19, R21
	ADD   R13>>61, R15, R15
	ADD   R19>>61, R21, R21
	ADD   R14<<3, R15, R15
	ADD   R20<<3, R21, R21
	AND   R4, R15, R13
	AND   R4, R21, R19
	ADD   R15>>61, R13, R13
	ADD   R21>>61, R19, R19
	SUBS  R4, R13, R14
	CSEL  CS, R14, R13, R15
	SUBS  R4, R19, R20
	CSEL  CS, R20, R19, R21
	ADD   R5, R15, R15
	ADD   R5, R21, R21
	SUBS  R4, R15, R13
	CSEL  CS, R13, R15, R15
	SUBS  R4, R21, R19
	CSEL  CS, R19, R21, R21
	LSL   $3, R15, R13
	LSL   $3, R21, R19
	UMULH R9, R13, R14
	UMULH R9, R19, R20
	STP   (R14, R20), (R2)

	// Sign chain: ±1.0 from the low bit of g1*e + g0.
	MUL   R8, R12, R13
	MUL   R8, R17, R19
	UMULH R8, R12, R14
	UMULH R8, R17, R20
	AND   R4, R13, R15
	AND   R4, R19, R21
	ADD   R13>>61, R15, R15
	ADD   R19>>61, R21, R21
	ADD   R14<<3, R15, R15
	ADD   R20<<3, R21, R21
	AND   R4, R15, R13
	AND   R4, R21, R19
	ADD   R15>>61, R13, R13
	ADD   R21>>61, R19, R19
	SUBS  R4, R13, R14
	CSEL  CS, R14, R13, R15
	SUBS  R4, R19, R20
	CSEL  CS, R20, R19, R21
	ADD   R7, R15, R15
	ADD   R7, R21, R21
	SUBS  R4, R15, R13
	CSEL  CS, R13, R15, R15
	SUBS  R4, R21, R19
	CSEL  CS, R19, R21, R21
	AND   $1, R15, R13
	AND   $1, R21, R19
	SUB   $1, R13, R13
	SUB   $1, R19, R19
	EOR   R13<<63, R10, R13
	EOR   R19<<63, R10, R19
	STP   (R13, R19), (R3)

	ADD  $16, R0
	ADD  $16, R2
	ADD  $16, R3
	SUBS $2, R1, R1
	BNE  pairloop
	RET
