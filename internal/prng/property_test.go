package prng

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// TestPropertyBlockStableUnderGrowth: generators for different output sizes
// but identical seed draws produce different parameters, but a SINGLE
// generator must return identical blocks on repeated queries in any order —
// random access is pure.
func TestPropertyRandomAccessPure(t *testing.T) {
	f := func(seed uint64, queries []uint16) bool {
		g := New(1<<14, rand.New(rand.NewPCG(seed, seed^0xABCD)))
		first := map[uint64]uint64{}
		for _, q := range queries {
			b := uint64(q) % g.Blocks()
			v := g.Block(b)
			if prev, seen := first[b]; seen && prev != v {
				return false
			}
			first[b] = v
		}
		// Re-query everything in reverse order.
		for _, q := range queries {
			b := uint64(q) % g.Blocks()
			if g.Block(b) != first[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBlockInField: every block is a valid 61-bit field value.
func TestPropertyBlockInField(t *testing.T) {
	f := func(seed uint64, b uint32) bool {
		g := New(1<<20, rand.New(rand.NewPCG(seed, 3)))
		return g.Block(uint64(b)) < 1<<61
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBitConsistentWithBlock: Bit(i) must equal the corresponding
// bit of Block(i/61).
func TestPropertyBitConsistentWithBlock(t *testing.T) {
	f := func(seed uint64, i uint16) bool {
		g := New(1<<12, rand.New(rand.NewPCG(seed, 9)))
		idx := uint64(i)
		want := g.Block(idx/BlockBits)>>(idx%BlockBits)&1 == 1
		return g.Bit(idx) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBlockBatchMatchesBlock: the window-table batch path must
// agree with scalar Block for every index sequence — sorted, reversed,
// duplicated or arbitrary — across generator depths (including depth 0 and
// indices beyond Blocks(), which wrap exactly like Block).
func TestPropertyBlockBatchMatchesBlock(t *testing.T) {
	f := func(seed uint64, bitsOut uint32, raw []uint16) bool {
		g := New(1+uint64(bitsOut%(1<<22)), rand.New(rand.NewPCG(seed, seed^0x5555)))
		idx := make([]uint64, len(raw))
		for i, q := range raw {
			idx[i] = uint64(q) * uint64(q) // spread beyond Blocks() to test wrap
		}
		dst := make([]uint64, len(idx))
		g.BlockBatch(dst, idx)
		for i, b := range idx {
			if dst[i] != g.Block(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyThresholdMatchesFloat64At: for any block value, the integer
// threshold compare agrees with the float membership test except on the
// <= 1-in-2^53 boundary cases where float rounding flips the comparison —
// those may only disagree when the two sides are within one ULP.
func TestPropertyThresholdMatchesFloat64At(t *testing.T) {
	f := func(seed uint64, qRaw uint32, b uint32) bool {
		g := New(1<<16, rand.New(rand.NewPCG(seed, 0xBEEF)))
		q := float64(qRaw) / float64(1<<32)
		blk := g.Block(uint64(b))
		intIn := blk < Threshold(q)
		floatIn := g.Float64At(uint64(b)) < q
		if intIn == floatIn {
			return true
		}
		// Disagreements must sit on the rounding boundary.
		diff := (float64(blk)+1)/float64(1<<61-1) - q
		return diff < 1e-15 && diff > -1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertySeedDeterminism: same seed, same construction -> identical
// generators.
func TestPropertySeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		g1 := New(1<<12, rand.New(rand.NewPCG(seed, 42)))
		g2 := New(1<<12, rand.New(rand.NewPCG(seed, 42)))
		for b := uint64(0); b < 16; b++ {
			if g1.Block(b) != g2.Block(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
