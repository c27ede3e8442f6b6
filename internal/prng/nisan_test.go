package prng

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/field"
)

// expandReference materializes all blocks of the generator by the recursive
// definition G_j(x) = G_{j-1}(x) || G_{j-1}(h_j(x)), independently of the
// random-access implementation.
func expandReference(g *Nisan) []uint64 {
	var rec func(x field.Elem, level int) []uint64
	rec = func(x field.Elem, level int) []uint64 {
		if level == 0 {
			return []uint64{uint64(x)}
		}
		left := rec(x, level-1)
		hx := field.Add(field.Mul(g.ha[level-1], x), g.hb[level-1])
		right := rec(hx, level-1)
		return append(left, right...)
	}
	return rec(g.x0, g.depth)
}

func TestBlockMatchesRecursiveDefinition(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	g := New(61*32, r) // depth 5
	want := expandReference(g)
	if uint64(len(want)) != g.Blocks() {
		t.Fatalf("reference produced %d blocks, generator says %d", len(want), g.Blocks())
	}
	for b := uint64(0); b < g.Blocks(); b++ {
		if got := g.Block(b); got != want[b] {
			t.Fatalf("Block(%d) = %d, reference %d", b, got, want[b])
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := New(1<<12, rand.New(rand.NewPCG(2, 2)))
	for b := uint64(0); b < 16; b++ {
		if g.Block(b) != g.Block(b) {
			t.Fatal("Block must be deterministic")
		}
	}
}

func TestSeedGrowthIsLogarithmic(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	small := New(1<<10, r)
	big := New(1<<30, r)
	// Output grew by 2^20x; depth (and seed) may only grow additively by ~20
	// levels, i.e. well under a 6x factor from the 2^10 baseline.
	if big.SeedBits() > 6*small.SeedBits() {
		t.Errorf("seed grew too fast: %d -> %d bits", small.SeedBits(), big.SeedBits())
	}
	// Seed of a generator for 2^30 bits must stay well under the output.
	if big.SeedBits() > 64*64 {
		t.Errorf("seed %d bits too large for O(log^2) scaling", big.SeedBits())
	}
}

func TestBitBalance(t *testing.T) {
	g := New(1<<16, rand.New(rand.NewPCG(4, 4)))
	ones := 0
	const total = 1 << 14
	for i := uint64(0); i < total; i++ {
		if g.Bit(i) {
			ones++
		}
	}
	if math.Abs(float64(ones)-total/2) > 6*math.Sqrt(total/4) {
		t.Errorf("bit balance off: %d ones of %d", ones, total)
	}
}

func TestBlocksLookRandomPairwise(t *testing.T) {
	// Adjacent blocks should not be correlated: compare XOR popcount stats.
	g := New(1<<16, rand.New(rand.NewPCG(5, 5)))
	var totalDiff int
	const pairs = 512
	for b := uint64(0); b < pairs; b++ {
		x := g.Block(2 * b)
		y := g.Block(2*b + 1)
		totalDiff += popcount(x ^ y)
	}
	mean := float64(pairs) * BlockBits / 2
	if math.Abs(float64(totalDiff)-mean) > 6*math.Sqrt(mean) {
		t.Errorf("adjacent blocks correlated: %d differing bits, want ~%.0f", totalDiff, mean)
	}
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestFloat64AtRange(t *testing.T) {
	g := New(1<<12, rand.New(rand.NewPCG(6, 6)))
	var sum float64
	const total = 1 << 10
	for b := uint64(0); b < total; b++ {
		f := g.Float64At(b)
		if f <= 0 || f > 1 {
			t.Fatalf("Float64At out of range: %g", f)
		}
		sum += f
	}
	if math.Abs(sum/total-0.5) > 0.05 {
		t.Errorf("Float64At mean %.3f far from 0.5", sum/total)
	}
}

func TestDepthZero(t *testing.T) {
	g := New(1, rand.New(rand.NewPCG(7, 7)))
	if g.Blocks() != 1 {
		t.Fatalf("Blocks() = %d, want 1", g.Blocks())
	}
	if g.Block(0) != g.Block(5) {
		t.Error("single-block generator must wrap all indices to block 0")
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	g1 := New(1<<12, rand.New(rand.NewPCG(8, 8)))
	g2 := New(1<<12, rand.New(rand.NewPCG(9, 9)))
	same := 0
	for b := uint64(0); b < 32; b++ {
		if g1.Block(b) == g2.Block(b) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("independent generators agree on %d of 32 blocks", same)
	}
}

func TestBlockBatchZeroAlloc(t *testing.T) {
	g := New(1<<24, rand.New(rand.NewPCG(10, 10)))
	idx := make([]uint64, 64)
	dst := make([]uint64, 64)
	for i := range idx {
		idx[i] = uint64(i) * 37
	}
	g.BlockBatch(dst, idx) // builds the window tables
	if got := testing.AllocsPerRun(10, func() { g.BlockBatch(dst, idx) }); got != 0 {
		t.Errorf("BlockBatch allocates %v times per call, want 0", got)
	}
}

func BenchmarkBlock(b *testing.B) {
	g := New(1<<30, rand.New(rand.NewPCG(1, 1)))
	for i := 0; i < b.N; i++ {
		g.Block(uint64(i))
	}
}

// BenchmarkBlockBatchRun measures the L0 fast path's access pattern: runs of
// 16 consecutive blocks at a random base per "update". Compare against
// BenchmarkBlockScalarRun, the same work through scalar Block calls.
func BenchmarkBlockBatchRun(b *testing.B) {
	g := New(1<<30, rand.New(rand.NewPCG(1, 1)))
	idx := make([]uint64, 16)
	dst := make([]uint64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 0x9E3779B97F4A7C15 >> 34 << 4
		for t := range idx {
			idx[t] = base + uint64(t)
		}
		g.BlockBatch(dst, idx)
	}
	b.ReportMetric(float64(b.N*16)/b.Elapsed().Seconds(), "blocks/s")
}

func BenchmarkBlockScalarRun(b *testing.B) {
	g := New(1<<30, rand.New(rand.NewPCG(1, 1)))
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 0x9E3779B97F4A7C15 >> 34 << 4
		for t := uint64(0); t < 16; t++ {
			sink += g.Block(base + t)
		}
	}
	_ = sink
	b.ReportMetric(float64(b.N*16)/b.Elapsed().Seconds(), "blocks/s")
}
