package kernel

import "testing"

// TestSyndromeFoldIFMALaneBound drives the IFMA syndrome kernel to the edge
// of its lane bounds, which random and all-(p-1) inputs never reach: the
// kernel takes deltas below 2^61+4, as its chains carry after a step, so a
// four-chain step can leave an accumulator lane at p+3, and the one-chain
// group after it then at 2^62+5, past 2p. Eight such lanes sum past 2^64
// unless each lane is folded before its conditional subtract.
func TestSyndromeFoldIFMALaneBound(t *testing.T) {
	if !avx512Table.ifma {
		t.Skip("no AVX-512 IFMA on this CPU")
	}
	q, a := make([]uint64, 40), make([]uint64, 40)
	for l := range 8 {
		// 3(p+4) + (p-9) = 2^63 - 1: the four-chain step folds it to p+3.
		q[l], q[8+l], q[16+l], q[24+l], q[32+l] = modulus+4, modulus+4, modulus+4, modulus-9, modulus+4
	}
	var want uint64
	for _, v := range q {
		want = modAdd(want, reduce(v))
	}
	synd := []uint64{0}
	syndromeFoldIFMA(synd, q, a)
	if synd[0] != want {
		t.Fatalf("synd[0] = %#x, want %#x", synd[0], want)
	}
}
