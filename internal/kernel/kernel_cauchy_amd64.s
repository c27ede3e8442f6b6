// AVX-512 Cauchy kernel: out[t] = math.Tan(math.Pi*(u[t]-0.5)), eight lanes
// per zmm register, bit-identical to the pure-Go reference in scalar.go.
//
// The lanes run math.tan's own operation sequence below its 2^29 reduction
// threshold, the branch every input in [0, 1] takes (|x| <= π/2): one IEEE
// operation for each of the reference's, in its order and without fusing:
//
//   x  = π·(u - ½);  ax = |x|
//   j  = trunc(ax·(4/π)), rounded up to even;  y = float64(j)
//   z  = ((ax - y·PI4A) - y·PI4B) - y·PI4C;  zz = z·z
//   r  = z + z·((zz·((P0·zz + P1)·zz + P2)) / ((((zz + Q1)·zz + Q2)·zz + Q3)·zz + Q4))
//   y  = zz > 1e-14 ? r : z;  y = j&2 ? -1/y : y;  result = y with x's sign
//
// IEEE multiplication and addition are commutative bit for bit, so only the
// association above is load-bearing. The amd64 compiler never fuses x*y+z, so
// math.tan is unfused there and no FMA may appear here. x = ±0 needs no
// select of its own: j = 0, z = x and zz = 0, so the sequence returns x.

#include "textflag.h"

DATA cauchyHalf<>+0x00(SB)/8, $0x3fe0000000000000  // 0.5
GLOBL cauchyHalf<>(SB), RODATA|NOPTR, $8
DATA cauchyPi<>+0x00(SB)/8, $0x400921fb54442d18    // math.Pi
GLOBL cauchyPi<>(SB), RODATA|NOPTR, $8
DATA cauchySign<>+0x00(SB)/8, $0x8000000000000000  // sign bit
GLOBL cauchySign<>(SB), RODATA|NOPTR, $8
DATA cauchy4Pi<>+0x00(SB)/8, $0x3ff45f306dc9c883   // 4/math.Pi
GLOBL cauchy4Pi<>(SB), RODATA|NOPTR, $8
DATA cauchyOne<>+0x00(SB)/8, $1
GLOBL cauchyOne<>(SB), RODATA|NOPTR, $8
DATA cauchyTwo<>+0x00(SB)/8, $2
GLOBL cauchyTwo<>(SB), RODATA|NOPTR, $8
DATA cauchyPI4A<>+0x00(SB)/8, $0x3fe921fb40000000  // π/4 in three parts
GLOBL cauchyPI4A<>(SB), RODATA|NOPTR, $8
DATA cauchyPI4B<>+0x00(SB)/8, $0x3e64442d00000000
GLOBL cauchyPI4B<>(SB), RODATA|NOPTR, $8
DATA cauchyPI4C<>+0x00(SB)/8, $0x3ce8469898cc5170
GLOBL cauchyPI4C<>(SB), RODATA|NOPTR, $8
DATA cauchyP0<>+0x00(SB)/8, $0xc0c992d8d24f3f38    // math._tanP
GLOBL cauchyP0<>(SB), RODATA|NOPTR, $8
DATA cauchyP1<>+0x00(SB)/8, $0x413199eca5fc9ddd
GLOBL cauchyP1<>(SB), RODATA|NOPTR, $8
DATA cauchyP2<>+0x00(SB)/8, $0xc1711fead3299176
GLOBL cauchyP2<>(SB), RODATA|NOPTR, $8
DATA cauchyQ1<>+0x00(SB)/8, $0x40cab8a5eeb36572    // math._tanQ[1:]
GLOBL cauchyQ1<>(SB), RODATA|NOPTR, $8
DATA cauchyQ2<>+0x00(SB)/8, $0xc13427bc582abc96
GLOBL cauchyQ2<>(SB), RODATA|NOPTR, $8
DATA cauchyQ3<>+0x00(SB)/8, $0x4177d98fc2ead8ef
GLOBL cauchyQ3<>(SB), RODATA|NOPTR, $8
DATA cauchyQ4<>+0x00(SB)/8, $0xc189afe03cbe5a31
GLOBL cauchyQ4<>(SB), RODATA|NOPTR, $8
DATA cauchyTiny<>+0x00(SB)/8, $0x3d06849b86a12b9b  // 1e-14
GLOBL cauchyTiny<>(SB), RODATA|NOPTR, $8
DATA cauchyMinus1<>+0x00(SB)/8, $0xbff0000000000000 // -1.0
GLOBL cauchyMinus1<>(SB), RODATA|NOPTR, $8

// func cauchyAVX512(u []float64, out []float64)
// Requires len(u) > 0, len(u)%8 == 0 and len(out) >= len(u); out may be u.
TEXT ·cauchyAVX512(SB), NOSPLIT, $0-48
	MOVQ u_base+0(FP), SI
	MOVQ u_len+8(FP), CX
	MOVQ out_base+24(FP), DI

	VBROADCASTSD cauchyHalf<>(SB), Z14
	VBROADCASTSD cauchyPi<>(SB), Z15
	VPBROADCASTQ cauchySign<>(SB), Z16
	VBROADCASTSD cauchy4Pi<>(SB), Z17
	VPBROADCASTQ cauchyOne<>(SB), Z18
	VPBROADCASTQ cauchyTwo<>(SB), Z19
	VBROADCASTSD cauchyPI4A<>(SB), Z20
	VBROADCASTSD cauchyPI4B<>(SB), Z21
	VBROADCASTSD cauchyPI4C<>(SB), Z22
	VBROADCASTSD cauchyP0<>(SB), Z23
	VBROADCASTSD cauchyP1<>(SB), Z24
	VBROADCASTSD cauchyP2<>(SB), Z25
	VBROADCASTSD cauchyQ1<>(SB), Z26
	VBROADCASTSD cauchyQ2<>(SB), Z27
	VBROADCASTSD cauchyQ3<>(SB), Z28
	VBROADCASTSD cauchyQ4<>(SB), Z29
	VBROADCASTSD cauchyTiny<>(SB), Z30
	VBROADCASTSD cauchyMinus1<>(SB), Z31

loop:
	VMOVUPD    (SI), Z0
	VSUBPD     Z14, Z0, Z0       // u - 0.5
	VMULPD     Z15, Z0, Z0       // x = π·(u - 0.5)
	VPANDNQ    Z0, Z16, Z1       // ax = |x|

	VMULPD     Z17, Z1, Z2
	VCVTTPD2QQ Z2, Z2            // j = trunc(ax·(4/π))
	VPADDQ     Z18, Z2, Z2
	VPANDNQ    Z2, Z18, Z2       // j odd: j++ ((j+1) &^ 1)
	VCVTQQ2PD  Z2, Z3            // y = float64(j)

	VMULPD     Z20, Z3, Z4
	VSUBPD     Z4, Z1, Z4        // ax - y·PI4A
	VMULPD     Z21, Z3, Z5
	VSUBPD     Z5, Z4, Z4        // ... - y·PI4B
	VMULPD     Z22, Z3, Z5
	VSUBPD     Z5, Z4, Z4        // z = ... - y·PI4C
	VMULPD     Z4, Z4, Z5        // zz = z·z

	VMULPD     Z23, Z5, Z6       // P0·zz
	VADDPD     Z24, Z6, Z6
	VMULPD     Z5, Z6, Z6
	VADDPD     Z25, Z6, Z6
	VMULPD     Z5, Z6, Z6        // num = zz·((P0·zz + P1)·zz + P2)

	VADDPD     Z26, Z5, Z7       // zz + Q1
	VMULPD     Z5, Z7, Z7
	VADDPD     Z27, Z7, Z7
	VMULPD     Z5, Z7, Z7
	VADDPD     Z28, Z7, Z7
	VMULPD     Z5, Z7, Z7
	VADDPD     Z29, Z7, Z7       // den

	VDIVPD     Z7, Z6, Z6        // num / den
	VMULPD     Z6, Z4, Z6
	VADDPD     Z6, Z4, Z6        // r = z + z·(num/den)

	VCMPPD     $0x1e, Z30, Z5, K1 // zz > 1e-14 (ordered, quiet)
	VMOVAPD    Z6, K1, Z4         // y = zz > 1e-14 ? r : z
	VPTESTMQ   Z19, Z2, K2        // j&2
	VDIVPD     Z4, Z31, K2, Z4    // y = -1/y where j&2
	VPTERNLOGQ $0x78, Z16, Z0, Z4 // y ^= x & sign

	VMOVUPD Z4, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JNZ     loop
	VZEROUPPER
	RET
