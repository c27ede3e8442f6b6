package norm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/kernel"
)

// The update loops as they stood before the SIMD-batch evaluators: one Sign /
// Float64 call per counter and key, and a CMS transform that took -log u2
// before looking at p. They are the reference the production AddFloatBatch is
// pinned to, counter bits and all.

func refCMSStable(p, u1, u2 float64) float64 {
	theta := math.Pi * (u1 - 0.5)
	w := -math.Log(u2)
	if w == 0 {
		w = 1e-300
	}
	if p == 1 {
		return math.Tan(theta)
	}
	return math.Sin(p*theta) / math.Pow(math.Cos(theta), 1/p) *
		math.Pow(math.Cos(theta*(1-p))/w, (1-p)/p)
}

func refAMSAddFloatBatch(a *AMS, indices []uint64, deltas []float64) {
	for j := range a.counters {
		cj := a.counters[j]
		for t, i := range indices {
			cj += float64(a.signs.Sign(j, i)) * deltas[t]
		}
		a.counters[j] = cj
	}
}

// refAMSEstimate is AMS.Estimate as it stood before the subtracted keys went
// through the multi-row kernel: one scalar Sign per counter and entry, and a
// fresh means slice per call.
func refAMSEstimate(a *AMS, subtract []Entry) float64 {
	means := make([]float64, a.groups)
	for gi := 0; gi < a.groups; gi++ {
		var sum float64
		for k := 0; k < a.perGroup; k++ {
			j := gi*a.perGroup + k
			c := a.counters[j]
			for _, e := range subtract {
				c -= float64(a.signs.Sign(j, e.Index)) * e.Value
			}
			sum += c * c
		}
		means[gi] = sum / float64(a.perGroup)
	}
	sort.Float64s(means)
	if a.groups%2 == 1 {
		return math.Sqrt(means[a.groups/2])
	}
	return math.Sqrt((means[a.groups/2-1] + means[a.groups/2]) / 2)
}

func refStableAt(s *Stable, j int, i uint64) float64 {
	u1 := s.seeds.Float64(j, 2*i)
	u2 := s.seeds.Float64(j, 2*i+1)
	return refCMSStable(s.p, u1, u2)
}

func refStableAddFloatBatch(s *Stable, indices []uint64, deltas []float64) {
	for j := range s.counters {
		cj := s.counters[j]
		for t, i := range indices {
			cj += refStableAt(s, j, i) * deltas[t]
		}
		s.counters[j] = cj
	}
}

// refUpdates draws indices over the whole key range (so 2i wraps, as the
// production doubling does) plus small ones, with signed non-integer deltas.
func refUpdates(n int, r *rand.Rand) ([]uint64, []float64) {
	idx := make([]uint64, n)
	del := make([]float64, n)
	for t := range idx {
		if t%2 == 0 {
			idx[t] = r.Uint64()
		} else {
			idx[t] = r.Uint64N(1 << 14)
		}
		del[t] = (r.Float64() - 0.5) * 1e3
	}
	return idx, del
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: counter %d = %v (%#x), reference %v (%#x)",
				what, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// sweepKernels runs fn under every kernel variant selectable on this machine:
// the batch paths dispatch through internal/kernel.
func sweepKernels(t *testing.T, fn func(t *testing.T)) {
	prev := kernel.Active()
	t.Cleanup(func() {
		if err := kernel.Select(prev); err != nil {
			t.Fatalf("restoring kernel variant %q: %v", prev, err)
		}
	})
	for _, name := range kernel.Variants() {
		if err := kernel.Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		t.Run(name, fn)
	}
}

func TestAMSUpdatesMatchReference(t *testing.T) {
	sweepKernels(t, func(t *testing.T) {
		mk := func() *AMS { return NewAMS(9, 6, rand.New(rand.NewPCG(81, 82))) }
		idx, del := refUpdates(2048+3, rand.New(rand.NewPCG(83, 84)))

		ref, batch := mk(), mk()
		refAMSAddFloatBatch(ref, idx, del)
		batch.AddFloatBatch(idx, del)
		sameBits(t, "AddFloatBatch", batch.counters, ref.counters)

		// A second, short batch on top of non-zero counters, against the
		// reference batch loop.
		refAMSAddFloatBatch(ref, idx[:9], del[:9])
		batch.AddFloatBatch(idx[:9], del[:9])
		sameBits(t, "second AddFloatBatch", batch.counters, ref.counters)
	})
}

func TestStableUpdatesMatchReference(t *testing.T) {
	sweepKernels(t, func(t *testing.T) {
		for _, p := range []float64{0.5, 1, 1.5, 2} {
			mk := func() *Stable { return NewStable(p, 80, rand.New(rand.NewPCG(85, 86))) }
			idx, del := refUpdates(2048+3, rand.New(rand.NewPCG(87, 88)))

			ref, batch := mk(), mk()
			refStableAddFloatBatch(ref, idx, del)
			batch.AddFloatBatch(idx, del)
			sameBits(t, "AddFloatBatch", batch.counters, ref.counters)

			refStableAddFloatBatch(ref, idx[:9], del[:9])
			batch.AddFloatBatch(idx[:9], del[:9])
			sameBits(t, "second AddFloatBatch", batch.counters, ref.counters)

			// The query side's coefficient is the same a_ji.
			for j := 0; j < 80; j += 13 {
				if got, want := batch.stableAt(j, idx[j]), refStableAt(batch, j, idx[j]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("p=%v: stableAt(%d) = %v, reference %v", p, j, got, want)
				}
			}
		}
	})
}

// shapeCounters and shapeBatches are the sketch sizes and batch lengths the
// shape tests sweep: counter counts off and on the row-group sizes (the Lp
// sampler's 54 AMS and 80/140 stable counters among them), and batches
// around the fold chunk, fed one after another onto the same counters.
var (
	shapeCounters = []int{1, 3, 54, 80, 81, 140}
	shapeBatches  = []int{0, 1, 255, 256, 257, 2051}
)

// amsShape splits a counter count into groups × perGroup.
func amsShape(counters int) (groups, perGroup int) {
	for _, g := range []int{9, 7, 5, 3} {
		if counters%g == 0 {
			return g, counters / g
		}
	}
	return 1, counters
}

// TestAMSShapesMatchReference pins the chunked, row-grouped AddFloatBatch to
// the reference per-counter loop at every counter count and batch length of
// the shape sweep, including row groups cut short by the counter count.
func TestAMSShapesMatchReference(t *testing.T) {
	sweepKernels(t, func(t *testing.T) {
		for _, counters := range shapeCounters {
			groups, perGroup := amsShape(counters)
			mk := func() *AMS { return NewAMS(groups, perGroup, rand.New(rand.NewPCG(91, uint64(counters)))) }
			ref, batch := mk(), mk()
			r := rand.New(rand.NewPCG(92, uint64(counters)))
			for _, n := range shapeBatches {
				idx, del := refUpdates(n, r)
				refAMSAddFloatBatch(ref, idx, del)
				batch.AddFloatBatch(idx, del)
				sameBits(t, fmt.Sprintf("%d counters, batch of %d", counters, n), batch.counters, ref.counters)
			}
		}
	})
}

// TestStableShapesMatchReference is the same sweep for the p-stable sketch at
// p = 1 (the Cauchy kernel's block) and on both sides of it.
func TestStableShapesMatchReference(t *testing.T) {
	sweepKernels(t, func(t *testing.T) {
		for _, p := range []float64{0.5, 1, 1.5} {
			for _, counters := range shapeCounters {
				mk := func() *Stable { return NewStable(p, counters, rand.New(rand.NewPCG(93, uint64(counters)))) }
				ref, batch := mk(), mk()
				r := rand.New(rand.NewPCG(94, uint64(counters)))
				for _, n := range shapeBatches {
					idx, del := refUpdates(n, r)
					refStableAddFloatBatch(ref, idx, del)
					batch.AddFloatBatch(idx, del)
					sameBits(t, fmt.Sprintf("p=%v, %d counters, batch of %d", p, counters, n), batch.counters, ref.counters)
				}
			}
		}
	})
}

// TestCauchyIgnoresSecondUniform: at p = 1 the transform is tan(π(u1-½)) and
// no value of u2 — the uniform Stable no longer derives — can change it; it
// equals the old transform, which took the logarithm first, bit for bit.
func TestCauchyIgnoresSecondUniform(t *testing.T) {
	r := rand.New(rand.NewPCG(89, 90))
	for i := 0; i < 10000; i++ {
		u1, u2 := 1-r.Float64(), 1-r.Float64() // (0, 1]
		want := math.Float64bits(refCMSStable(1, u1, u2))
		for _, v := range []float64{u2, 1, math.SmallestNonzeroFloat64, math.NaN()} {
			if got := math.Float64bits(cmsStable(1, u1, v)); got != want {
				t.Fatalf("cmsStable(1, %v, %v) = %#x, want %#x", u1, v, got, want)
			}
		}
		if got := math.Float64bits(cauchy(u1)); got != want {
			t.Fatalf("cauchy(%v) = %#x, want %#x", u1, got, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Batch-path benchmarks at the Lp sampler's shapes: 80 Cauchy counters, 9×6
// AMS counters, 2048-update blocks.
// ---------------------------------------------------------------------------

func BenchmarkStableAddBatch(b *testing.B) {
	s := NewStable(1, 80, rand.New(rand.NewPCG(1, 1)))
	idx, del := refUpdates(2048, rand.New(rand.NewPCG(2, 2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddFloatBatch(idx, del)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(idx)), "ns/update")
}

func BenchmarkAMSAddBatch(b *testing.B) {
	a := NewAMS(9, 6, rand.New(rand.NewPCG(1, 1)))
	idx, del := refUpdates(2048, rand.New(rand.NewPCG(2, 2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AddFloatBatch(idx, del)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(idx)), "ns/update")
}

// TestAMSEstimateMatchesReference pins Estimate, whose subtracted keys meet
// every sign row in one kernel call, to the per-entry scalar reference bit
// for bit under every variant, for ẑ sizes around the 8- and 32-key blocks
// and both group-count parities; once warm it allocates nothing.
func TestAMSEstimateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(91, 92))
	idx, del := refUpdates(3000, r)
	zhat := make([]Entry, 40)
	for k := range zhat {
		zhat[k] = Entry{Index: idx[3*k], Value: del[3*k] * (1 + 0.01*r.Float64())}
	}
	for _, shape := range [][2]int{{9, 6}, {4, 5}} {
		a := NewAMS(shape[0], shape[1], rand.New(rand.NewPCG(93, uint64(shape[0]))))
		a.AddFloatBatch(idx, del)
		sweepKernels(t, func(t *testing.T) {
			for _, m := range []int{0, 1, 7, 8, 9, 32, 33, 40} {
				got, want := a.Estimate(zhat[:m]), refAMSEstimate(a, zhat[:m])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("groups=%d |ẑ|=%d: Estimate %v, reference %v", shape[0], m, got, want)
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { a.Estimate(zhat) }); allocs != 0 {
				t.Errorf("groups=%d: Estimate allocates %v times per call, want 0", shape[0], allocs)
			}
		})
	}
}
