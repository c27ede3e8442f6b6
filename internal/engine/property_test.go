package engine

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/distinct"
	"repro/internal/duplicates"
	"repro/internal/heavyhitters"
	"repro/internal/norm"
	"repro/internal/stream"
)

// TestPropertyBatchEqualsProcess: for every sketch implementing
// stream.BatchSink, feeding a stream through FeedBatch leaves exactly the
// state of feeding it one Process call at a time. The batched hot paths
// preserve per-cell accumulation order, so the comparison is exact even for
// float-valued sketches.
func TestPropertyBatchEqualsProcess(t *testing.T) {
	type pair struct {
		name    string
		serial  stream.Sink
		batched stream.Sink
		equal   func() bool
	}
	mkPairs := func(n int, seed uint64) []pair {
		rng := func() *rand.Rand { return seeded(seed) }
		cs1, cs2 := countsketch.New(6, 5, rng()), countsketch.New(6, 5, rng())
		sp1, sp2 := core.NewL0Sampler(core.L0Config{N: n, Delta: 0.25}, rng()),
			core.NewL0Sampler(core.L0Config{N: n, Delta: 0.25}, rng())
		de1, de2 := distinct.New(n, 8, rng()), distinct.New(n, 8, rng())
		lp1, lp2 := core.NewLpSampler(core.LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.25, Copies: 6}, rng()),
			core.NewLpSampler(core.LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.25, Copies: 6}, rng())
		am1, am2 := norm.NewAMS(5, 4, rng()), norm.NewAMS(5, 4, rng())
		st1, st2 := norm.NewStable(1.3, 30, rng()), norm.NewStable(1.3, 30, rng())
		hh1, hh2 := heavyhitters.New(heavyhitters.Config{P: 1, Phi: 0.3, N: n}, rng()),
			heavyhitters.New(heavyhitters.Config{P: 1, Phi: 0.3, N: n}, rng())
		return []pair{
			{"countsketch", cs1, cs2, func() bool { return bytes.Equal(csCells(cs1), csCells(cs2)) }},
			{"l0sampler", sp1, sp2, func() bool { return bytes.Equal(l0State(sp1), l0State(sp2)) }},
			{"distinct", de1, de2, func() bool { return de1.Estimate() == de2.Estimate() }},
			{"lpsampler", lp1, lp2, func() bool {
				a, b := lp1.SampleAll(), lp2.SampleAll()
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
				return true
			}},
			{"ams", am1, am2, func() bool { return am1.Estimate(nil) == am2.Estimate(nil) }},
			{"stable", st1, st2, func() bool { return st1.Estimate(nil) == st2.Estimate(nil) }},
			{"heavyhitters", hh1, hh2, func() bool {
				a, b := hh1.HeavyHitters(), hh2.HeavyHitters()
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
				return true
			}},
		}
	}

	f := func(seed uint64, batchRaw uint8) bool {
		rr := seeded(seed)
		n := 64 + rr.IntN(100)
		batchSize := 1 + int(batchRaw)%200
		st := stream.RandomTurnstile(n, 500+rr.IntN(1500), 30, rr)
		for _, p := range mkPairs(n, seed^0xABCD) {
			st.Feed(p.serial)
			st.FeedBatch(batchSize, p.batched)
			if !p.equal() {
				t.Logf("seed %d batch %d: %s state diverged", seed, batchSize, p.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFinderBatchEqualsProcess covers the letters-as-updates path of
// the duplicates finder separately (its constructor feeds a prefix).
func TestPropertyFinderBatchEqualsProcess(t *testing.T) {
	f := func(seed uint64, batchRaw uint8) bool {
		const n = 150
		batchSize := 1 + int(batchRaw)%64
		items := stream.DuplicateItems(n, -1, seeded(seed))
		a := duplicates.NewFinder(n, 0.2, seeded(seed^1))
		b := duplicates.NewFinder(n, 0.2, seeded(seed^1))
		items.Updates().Feed(a)
		items.Updates().FeedBatch(batchSize, b)
		return a.Find() == b.Find()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestPropertyL0EngineSampleDistribution: sharded+merged L0 sampling is
// distributionally indistinguishable from serial sampling — here, exactly
// equal per trial, because merged linear state is bit-identical; the test
// additionally checks the aggregate frequencies stay near uniform over the
// support, the Theorem 2 guarantee.
func TestPropertyL0EngineSampleDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const n = 128
	support := map[int]int64{7: 5, 30: -2, 77: 1000, 120: -1}
	var st stream.Stream
	for i, v := range support {
		st = append(st, stream.Update{Index: i, Delta: v})
	}

	const trials = 150
	counts := map[int]int{}
	emitted := 0
	for trial := 0; trial < trials; trial++ {
		seed := uint64(1000 + trial)
		serial := core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, seeded(seed))
		st.Feed(serial)

		eng := New(Config{Shards: 3, BatchSize: 16},
			func(int) *core.L0Sampler { return core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, seeded(seed)) },
			func(dst, src *core.L0Sampler) error { return dst.Merge(src) })
		eng.Feed(st)
		merged, err := eng.Results()
		if err != nil {
			t.Fatalf("Results: %v", err)
		}

		wOut, wOK := serial.Sample()
		mOut, mOK := merged.Sample()
		if wOK != mOK || wOut != mOut {
			t.Fatalf("trial %d: sharded sample (%v,%v) != serial (%v,%v)", trial, mOut, mOK, wOut, wOK)
		}
		if !mOK {
			continue
		}
		if v, in := support[mOut.Index]; !in || float64(v) != mOut.Estimate {
			t.Fatalf("trial %d: sample (%d,%v) outside support %v", trial, mOut.Index, mOut.Estimate, support)
		}
		counts[mOut.Index]++
		emitted++
	}
	if emitted < trials/2 {
		t.Fatalf("only %d/%d trials emitted a sample", emitted, trials)
	}
	// Total variation distance to the uniform support distribution.
	tv := 0.0
	for i := range support {
		tv += math.Abs(float64(counts[i])/float64(emitted) - 1.0/float64(len(support)))
	}
	tv /= 2
	if tv > 0.25 {
		t.Errorf("L0 engine sample frequencies TV distance %.3f from uniform, counts %v", tv, counts)
	}
}

// TestPropertyLpEngineSampleDistribution: sharded+merged L1 sampling tracks
// the |x_i|/||x||_1 target distribution on a skewed vector.
func TestPropertyLpEngineSampleDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const n = 64
	values := map[int]int64{3: 60, 20: -30, 40: 8, 50: 2}
	var l1 float64
	var st stream.Stream
	for i, v := range values {
		st = append(st, stream.Update{Index: i, Delta: v})
		l1 += math.Abs(float64(v))
	}

	const trials = 200
	counts := map[int]int{}
	emitted := 0
	cfg := core.LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.2}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(5000 + trial)
		eng := New(Config{Shards: 4, BatchSize: 8},
			func(int) *core.LpSampler { return core.NewLpSampler(cfg, seeded(seed)) },
			func(dst, src *core.LpSampler) error { return dst.Merge(src) })
		eng.Feed(st)
		merged, err := eng.Results()
		if err != nil {
			t.Fatalf("Results: %v", err)
		}
		out, ok := merged.Sample()
		if !ok {
			continue
		}
		if _, in := values[out.Index]; !in {
			t.Fatalf("trial %d: sampled coordinate %d outside support", trial, out.Index)
		}
		counts[out.Index]++
		emitted++
	}
	if emitted < trials/2 {
		t.Fatalf("only %d/%d trials emitted a sample", emitted, trials)
	}
	tv := 0.0
	for i, v := range values {
		tv += math.Abs(float64(counts[i])/float64(emitted) - math.Abs(float64(v))/l1)
	}
	tv /= 2
	if tv > 0.25 {
		t.Errorf("L1 engine sample frequencies TV distance %.3f from target, counts %v", tv, counts)
	}
}
