package field

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestPowCacheMatchesPow: the windowed exponentiation is exactly the ladder
// Pow for every exponent shape — the window boundaries (15|16, 2^16-1|2^16),
// exponents past 32 bits and the full 64, random ones, and the boundary cases
// 0 and 1 — in ascending order (the table grows window by window), descending
// order (built once at full size) and shuffled.
func TestPowCacheMatchesPow(t *testing.T) {
	r := rand.New(rand.NewPCG(71, 72))
	for trial := 0; trial < 50; trial++ {
		base := New(r.Uint64())
		exps := []uint64{0, 1, 2, 3, 15, 16, 17, 63, 64, 65, 255, 256, 4095, 4096,
			1<<16 - 1, 1 << 16, 1 << 20, 1<<32 + 5, r.Uint64() >> 40, r.Uint64(), 1<<64 - 1}
		orders := []struct {
			name    string
			arrange func()
		}{
			{"ascending", func() { slices.Sort(exps) }},
			{"descending", func() { slices.Sort(exps); slices.Reverse(exps) }},
			{"shuffled", func() { r.Shuffle(len(exps), func(a, b int) { exps[a], exps[b] = exps[b], exps[a] }) }},
		}
		for _, o := range orders {
			o.arrange()
			pc := NewPowCache(base)
			for _, e := range exps {
				if got, want := pc.Pow(e), Pow(base, e); got != want {
					t.Fatalf("base %d, %s: PowCache.Pow(%d) = %d, want %d", base, o.name, e, got, want)
				}
			}
		}
	}
	pc := NewPowCache(0)
	if pc.Pow(0) != 1 || pc.Pow(5) != 0 || pc.Pow(1<<40) != 0 {
		t.Fatalf("zero base: Pow(0)=%d Pow(5)=%d, want 1, 0", pc.Pow(0), pc.Pow(5))
	}
}

// TestPowCacheLazyAndSized: the constructor builds nothing, and the table
// covers the exponents asked for and no more — four windows (512 B) for
// stream indices below 2^16.
func TestPowCacheLazyAndSized(t *testing.T) {
	pc := NewPowCache(New(0x123456789ABCDEF))
	if pc.win != nil {
		t.Fatal("NewPowCache built a table")
	}
	if got := testing.AllocsPerRun(10, func() { NewPowCache(7) }); got > 1 {
		t.Fatalf("NewPowCache allocates %v objects, want the cache alone", got)
	}
	for _, c := range []struct {
		e       uint64
		windows int
	}{{0, 1}, {15, 1}, {16, 2}, {4095, 3}, {1<<16 - 1, 4}, {3, 4}, {1 << 16, 5}, {1<<64 - 1, 16}} {
		pc.Pow(c.e)
		if len(pc.win) != 16*c.windows {
			t.Fatalf("after Pow(%d): %d windows, want %d", c.e, len(pc.win)/16, c.windows)
		}
	}
	if got := testing.AllocsPerRun(10, func() { pc.Pow(1<<64 - 1) }); got != 0 {
		t.Fatalf("Pow on a grown table allocates %v times", got)
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: the ladder and the windowed table the fingerprint
// sketches use. (BenchmarkMul — the unit of work of every hash kernel — lives in
// field_test.go.)
// ---------------------------------------------------------------------------

// nextExponent steps a xorshift generator and returns a 16-bit stream index.
// Exponents must not repeat: over a counter or a short cycle the branch
// predictor learns any data-dependent loop over the exponent's bits (the
// square table this cache replaced read 6 ns over a counter, 15 ns here).
func nextExponent(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x >> 48
}

func BenchmarkPowLadder(b *testing.B) {
	base := New(0x123456789ABCDEF)
	b.ReportAllocs()
	var sink Elem
	x := uint64(88172645463325252)
	for i := 0; i < b.N; i++ {
		sink += Pow(base, nextExponent(&x))
	}
	_ = sink
}

func BenchmarkPowCache(b *testing.B) {
	pc := NewPowCache(New(0x123456789ABCDEF))
	b.ReportAllocs()
	var sink Elem
	x := uint64(88172645463325252)
	for i := 0; i < b.N; i++ {
		sink += pc.Pow(nextExponent(&x))
	}
	_ = sink
}
