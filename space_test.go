package streamsample

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/duplicates"
)

// The paper's space claims on the repository's one space accounting: a
// sketch's size is the bytes it serializes (SpaceBits), and below the public
// layer the bytes its AppendState writes (codec.PayloadBits).

func TestSpaceBitsIsWireSize(t *testing.T) {
	for _, tc := range sketchCases() {
		s := tc.build(1)
		tc.feed(s)
		s.Process(Update{Index: 1, Delta: 1}) // left buffered: SpaceBits folds it as MarshalBinary does
		bits := s.SpaceBits()
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := 8 * int64(len(data)); bits != want {
			t.Errorf("%s: SpaceBits = %d, want 8·len(MarshalBinary()) = %d", tc.name, bits, want)
		}
		loaded, err := Load(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := loaded.SpaceBits(); got != bits {
			t.Errorf("%s: loaded SpaceBits = %d, want %d", tc.name, got, bits)
		}
	}
}

// TestSpacePerLog2N holds every kind to its O(log² n) bound (Theorems 1–3,
// §4.4, the appendix remark): bits/log²n does not grow with n. Construction
// is cheap up to n = 2²⁰ except for the duplicate finder, which feeds an
// O(n) pigeonhole prefix. Run with -v for the table.
func TestSpacePerLog2N(t *testing.T) {
	for _, k := range []struct {
		name  string
		maxLg int
		build func(n int) Sketch
	}{
		{"lp", 20, func(n int) Sketch { return NewLpSampler(1, n, WithSeed(1)) }},
		{"l0", 20, func(n int) Sketch { return NewL0Sampler(n, WithSeed(1)) }},
		{"dup", 16, func(n int) Sketch { return NewDuplicateFinder(n, WithSeed(1)) }},
		{"hh", 20, func(n int) Sketch { return NewHeavyHitters(1, 0.1, n, WithSeed(1)) }},
		{"twopass", 20, func(n int) Sketch { return NewTwoPassL0Sampler(n, WithSeed(1)) }},
		{"fp", 20, func(n int) Sketch { return NewFpEstimator(3, n, 1, WithSeed(1)) }},
	} {
		prev := math.Inf(1)
		for _, lg := range []int{10, 13, 16, 20} {
			if lg > k.maxLg {
				break
			}
			bits := k.build(1 << lg).SpaceBits()
			perLog2 := float64(bits) / float64(lg*lg)
			t.Logf("%-8s n=2^%-2d %9d bits  %7.0f bits/log²n", k.name, lg, bits, perLog2)
			if perLog2 > prev {
				t.Errorf("%s: bits/log²n grew to %.0f at n=2^%d", k.name, perLog2, lg)
			}
			prev = perLog2
		}
	}
}

// TestSpaceClaims asserts the directions of the space comparisons E2, E3,
// E6 and E12 print.
func TestSpaceClaims(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))

	// E2: the AKO count-sketch parameter carries a log n factor that
	// Theorem 1's sampler drops, so AKO/ours grows with n.
	t.Run("AKOOverOursGrowsWithN", func(t *testing.T) {
		const eps = 0.3
		ratio := func(n int) float64 {
			ours := NewLpSampler(1.5, n, WithEps(eps), WithCopies(4), WithSeed(1))
			ako := baseline.NewAKO(1.5, n, eps, 4, r)
			return float64(codec.PayloadBits(ako)) / float64(codec.PayloadBits(ours.inner))
		}
		if small, big := ratio(1<<8), ratio(1<<16); big <= 1.2*small {
			t.Errorf("AKO/ours %.2f at n=2^8, %.2f at n=2^16: want growth by a log factor", small, big)
		}
		if baseline.NewAKO(1.5, 1<<16, eps, 4, r).M() <= baseline.NewAKO(1.5, 1<<8, eps, 4, r).M() {
			t.Error("AKO m' must grow with log n")
		}
		if NewLpSampler(1.5, 1<<16, WithEps(eps)).inner.M() != NewLpSampler(1.5, 1<<8, WithEps(eps)).inner.M() {
			t.Error("our m must not depend on n")
		}
	})

	// E3: FIS carries Θ(log n) 1-sparse detectors per level where Theorem 2
	// shares one s-sparse recoverer.
	t.Run("FISOverOurs", func(t *testing.T) {
		ratio := func(n int) float64 {
			fis := baseline.NewFISL0(n, int(math.Ceil(math.Log2(float64(n)))), r)
			return float64(codec.PayloadBits(fis)) / float64(codec.PayloadBits(NewL0Sampler(n, WithSeed(1)).inner))
		}
		prev := 1.0
		for _, n := range []int{1 << 8, 1 << 10, 1 << 16} {
			got := ratio(n)
			t.Logf("FIS/ours %.2f at n=%d", got, n)
			if got <= prev {
				t.Errorf("FIS/ours = %.2f at n=%d, want above %.2f", got, n, prev)
			}
			prev = got
		}
	})

	// E12: for large n the two-pass sampler undercuts the one-pass
	// O(log² n) structure.
	t.Run("TwoPassBelowOnePass", func(t *testing.T) {
		const n = 1 << 16
		two, one := NewTwoPassL0Sampler(n, WithSeed(1)).SpaceBits(), NewL0Sampler(n, WithSeed(1)).SpaceBits()
		if two >= one {
			t.Errorf("two-pass (%d bits) should undercut one-pass (%d bits) at n=2^16", two, one)
		}
	})

	// E5–E6: Theorem 4's recovery part grows with s, and position sampling
	// for streams of length n+s shrinks with s while the sampler does not.
	t.Run("DuplicateRegimes", func(t *testing.T) {
		short := func(s int) int64 { return codec.PayloadBits(duplicates.NewShortFinder(256, s, 0.2, r)) }
		if short(50) <= short(1) {
			t.Error("ShortFinder space must grow with s")
		}
		long := func(s, force int) int64 { return duplicates.NewLongFinder(1024, s, 0.2, force, r).SpaceBits() }
		if long(512, 2) >= long(256, 2) {
			t.Error("position-sampling space must shrink with s")
		}
		if long(512, 1) != long(8, 1) {
			t.Error("sampler space must not depend on s")
		}
	})
}

// TestPriceBoundsPayload ties each kind row's word price, the budget Load
// holds a config block to, to the state the row admits: the payload of every
// priced config fits in 64·words(c) bits.
func TestPriceBoundsPayload(t *testing.T) {
	var grid []config
	for _, n := range []uint64{2, 1 << 10, 1 << 16} {
		for _, p := range []float64{0.5, 1, 1.5} {
			for _, copies := range []uint64{0, 3} {
				grid = append(grid, config{kind: codec.KindLpSampler, n: n, p: p, copies: copies})
			}
		}
		for _, sparsity := range []uint64{0, 5} {
			grid = append(grid, config{kind: codec.KindL0Sampler, n: n, sparsity: sparsity})
		}
		grid = append(grid, config{kind: codec.KindDuplicateFinder, n: n})
		for _, p := range []float64{1, 2} {
			grid = append(grid, config{kind: codec.KindHeavyHitters, n: n, p: p, phi: 0.1})
		}
		for _, samples := range []uint64{1, 4} {
			grid = append(grid, config{kind: codec.KindFpEstimator, n: n, p: 3, samples: samples})
		}
	}
	for _, c := range grid {
		c.seed, c.seeded = 1, true
		c.canonical()
		row := kinds[c.kind]
		if err := row.validate(c); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		_, state := row.build(c, true).wire()
		if bits, price := codec.PayloadBits(state), 64*row.words(c); float64(bits) > price {
			t.Errorf("%v n=%d p=%g copies=%d sparsity=%d samples=%d: payload %d bits over the %.0f-bit price",
				c.kind, c.n, c.p, c.copies, c.sparsity, c.samples, bits, price)
		}
	}
}
