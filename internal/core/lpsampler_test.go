package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/stream"
	"repro/internal/vector"
)

func TestLpSamplerPanics(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	for _, cfg := range []LpConfig{
		{P: 0, N: 10, Eps: 0.5},
		{P: 2, N: 10, Eps: 0.5},
		{P: -1, N: 10, Eps: 0.5},
		{P: 1, N: 10, Eps: 0},
		{P: 1, N: 10, Eps: 1.5},
		{P: 1, N: 0, Eps: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v must panic", cfg)
				}
			}()
			NewLpSampler(cfg, r)
		}()
	}
}

func TestLpSamplerZeroVector(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	s := NewLpSampler(LpConfig{P: 1, N: 64, Eps: 0.3, Delta: 0.2}, r)
	if _, ok := s.Sample(); ok {
		t.Fatal("sampler must fail on the zero vector")
	}
	// Cancelled stream is the zero vector too.
	s2 := NewLpSampler(LpConfig{P: 1, N: 64, Eps: 0.3, Delta: 0.2}, r)
	s2.Process(stream.Update{Index: 3, Delta: 100})
	s2.Process(stream.Update{Index: 3, Delta: -100})
	if _, ok := s2.Sample(); ok {
		t.Fatal("sampler should fail on a cancelled-to-zero vector (w.h.p.)")
	}
}

func TestLpSamplerDominantCoordinate(t *testing.T) {
	// One coordinate carries ~all Lp mass: the sampler must return it nearly
	// always and the estimate must be within eps.
	r := rand.New(rand.NewPCG(3, 3))
	for _, p := range []float64{0.5, 1, 1.5} {
		hits, total := 0, 0
		for trial := 0; trial < 25; trial++ {
			s := NewLpSampler(LpConfig{P: p, N: 128, Eps: 0.3, Delta: 0.1}, r)
			for i := 0; i < 128; i++ {
				s.Process(stream.Update{Index: i, Delta: 1})
			}
			s.Process(stream.Update{Index: 77, Delta: 1_000_000 - 1})
			out, ok := s.Sample()
			if !ok {
				continue
			}
			total++
			if out.Index == 77 {
				hits++
				if math.Abs(out.Estimate-1_000_000) > 0.3*1_000_000 {
					t.Errorf("p=%.1f: estimate %.0f outside ±30%% of 1e6", p, out.Estimate)
				}
			}
		}
		if total < 15 {
			t.Errorf("p=%.1f: only %d/25 trials produced output", p, total)
		}
		if hits < total*8/10 {
			t.Errorf("p=%.1f: dominant coordinate sampled %d/%d", p, hits, total)
		}
	}
}

func TestLpSamplerDistribution(t *testing.T) {
	// Empirical output distribution vs the exact Lp distribution on a
	// small-support vector (support 8 in n=256).
	if testing.Short() {
		t.Skip("statistical test")
	}
	r := rand.New(rand.NewPCG(4, 4))
	const n = 256
	values := map[int]int64{3: 100, 17: -200, 40: 50, 99: 400, 150: -100, 200: 25, 222: 300, 255: -50}
	var st stream.Stream
	for i, v := range values {
		st = append(st, stream.Update{Index: i, Delta: v})
	}
	truth := st.Apply(n)

	for _, p := range []float64{0.5, 1, 1.5} {
		target := truth.LpDistribution(p)
		counts := map[int]int{}
		got := 0
		const trials = 300
		for trial := 0; trial < trials; trial++ {
			s := NewLpSampler(LpConfig{P: p, N: n, Eps: 0.25, Delta: 0.15}, r)
			st.Feed(s)
			out, ok := s.Sample()
			if !ok {
				continue
			}
			counts[out.Index]++
			got++
		}
		if got < trials*6/10 {
			t.Errorf("p=%.1f: only %d/%d trials succeeded", p, got, trials)
			continue
		}
		tv := vector.EmpiricalTV(counts, target, got)
		// Budget: O(eps) distribution error + sampling noise
		// (~sum_i sqrt(p_i/got) ≈ 0.11 for 8 atoms at ~300 samples).
		if tv > 0.25 {
			t.Errorf("p=%.1f: TV distance %.3f too large (%d samples)", p, tv, got)
		}
	}
}

func TestLpSamplerEstimateAccuracy(t *testing.T) {
	// Whatever index comes out, the estimate must be within eps of x_i w.h.p.
	r := rand.New(rand.NewPCG(5, 5))
	const n = 256
	st := stream.ZipfSigned(n, 1.0, 10000, r)
	truth := st.Apply(n)
	bad, total := 0, 0
	for trial := 0; trial < 40; trial++ {
		s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.2}, r)
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			continue
		}
		total++
		truthV := float64(truth.Get(out.Index))
		if truthV == 0 {
			bad++ // sampled a zero coordinate: distribution error
			continue
		}
		if math.Abs(out.Estimate-truthV) > 0.25*math.Abs(truthV)+1e-9 {
			bad++
		}
	}
	if total < 20 {
		t.Fatalf("only %d/40 trials succeeded", total)
	}
	if bad > total/5 {
		t.Errorf("%d/%d samples had bad estimates", bad, total)
	}
}

func TestLpSamplerFailureRate(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	const n = 128
	st := stream.ZipfSigned(n, 0.8, 1000, r)
	fails := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.1}, r)
		st.Feed(s)
		if _, ok := s.Sample(); !ok {
			fails++
		}
	}
	// δ = 0.1; allow generous slack for constant-factor calibration.
	if fails > trials/4 {
		t.Errorf("failure rate %d/%d far above δ=0.1", fails, trials)
	}
}

func TestLpSamplerParameterFormulas(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	// k = 10*ceil(1/|p-1|) for p != 1.
	s := NewLpSampler(LpConfig{P: 1.5, N: 64, Eps: 0.5, Delta: 0.2}, r)
	if s.K() != 20 {
		t.Errorf("p=1.5: k = %d, want 20", s.K())
	}
	s = NewLpSampler(LpConfig{P: 0.75, N: 64, Eps: 0.5, Delta: 0.2}, r)
	if s.K() != 40 {
		t.Errorf("p=0.75: k = %d, want 40", s.K())
	}
	// m grows as eps^{-(p-1)} for p > 1...
	mLarge := NewLpSampler(LpConfig{P: 1.5, N: 64, Eps: 0.1, Delta: 0.2}, r).M()
	mSmall := NewLpSampler(LpConfig{P: 1.5, N: 64, Eps: 0.5, Delta: 0.2}, r).M()
	if mLarge <= mSmall {
		t.Errorf("m must grow as eps shrinks for p>1: %d vs %d", mLarge, mSmall)
	}
	// ...but stays O(1) in eps for p < 1.
	mA := NewLpSampler(LpConfig{P: 0.5, N: 64, Eps: 0.1, Delta: 0.2}, r).M()
	mB := NewLpSampler(LpConfig{P: 0.5, N: 64, Eps: 0.5, Delta: 0.2}, r).M()
	if mA != mB {
		t.Errorf("m must not depend on eps for p<1: %d vs %d", mA, mB)
	}
	// Repetitions shrink with eps and grow with log(1/δ).
	v1 := NewLpSampler(LpConfig{P: 1, N: 64, Eps: 0.5, Delta: 0.2}, r).Copies()
	v2 := NewLpSampler(LpConfig{P: 1, N: 64, Eps: 0.5, Delta: 0.01}, r).Copies()
	if v2 <= v1 {
		t.Errorf("copies must grow with log(1/δ): %d vs %d", v1, v2)
	}
}

func TestLpSamplerSpaceAccounting(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 8))
	small := NewLpSampler(LpConfig{P: 1.5, N: 1 << 8, Eps: 0.5, Delta: 0.2, Copies: 4}, r)
	big := NewLpSampler(LpConfig{P: 1.5, N: 1 << 16, Eps: 0.5, Delta: 0.2, Copies: 4}, r)
	smallBits, bigBits := codec.PayloadBits(small), codec.PayloadBits(big)
	if bigBits <= smallBits {
		t.Error("space must grow with log n (rows)")
	}
	// Growth from n=2^8 to n=2^16 should be roughly the rows ratio (~2x),
	// nowhere near the 256x dimension ratio: the sketch is polylog.
	if bigBits > 6*smallBits {
		t.Errorf("space grew too fast: %d -> %d", smallBits, bigBits)
	}
}

func TestLpSamplerAblationHooks(t *testing.T) {
	// A1/A2 configurations must run end-to-end.
	r := rand.New(rand.NewPCG(9, 9))
	st := stream.ZipfSigned(128, 1.0, 1000, r)
	a1 := NewLpSampler(LpConfig{P: 1.5, N: 128, Eps: 0.3, Delta: 0.2, KOverride: 2}, r)
	if a1.K() != 2 {
		t.Fatalf("KOverride ignored: k=%d", a1.K())
	}
	st.Feed(a1)
	a1.Sample() // must not panic

	a2 := NewLpSampler(LpConfig{P: 1.5, N: 128, Eps: 0.3, Delta: 0.2, DisableSTest: true}, r)
	st.Feed(a2)
	a2.Sample()
}

func BenchmarkLpSamplerProcess(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	s := NewLpSampler(LpConfig{P: 1, N: 1 << 16, Eps: 0.3, Delta: 0.2, Copies: 8}, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(stream.Update{Index: i % (1 << 16), Delta: 1})
	}
}

func BenchmarkLpSamplerSample(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 1 << 12
	s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.2, Copies: 8}, r)
	st := stream.ZipfSigned(n, 1.0, 100000, r)
	st.Feed(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

// BenchmarkLpSamplerSampleDirty measures the recovery stage itself: a
// zero-delta update resets the recovery cursor and leaves the state exactly as
// it was, so every Sample re-runs the scan and the s-test in the repetitions
// up to the first of the 8 that emits.
func BenchmarkLpSamplerSampleDirty(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 1 << 12
	s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.2, Copies: 8}, r)
	st := stream.ZipfSigned(n, 1.0, 100000, r)
	st.FeedBatch(2048, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(stream.Update{Index: 0, Delta: 0})
		s.Sample()
	}
}

func TestLpSamplerMergeMatchesSerial(t *testing.T) {
	// Same-seed Lp samplers over two stream halves merge into a sampler
	// whose recovery output matches the serial one: identical sampled
	// indices, estimates equal up to float addition reordering.
	const n = 256
	cfg := LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.25, Copies: 8}
	mk := func() *LpSampler { return NewLpSampler(cfg, rand.New(rand.NewPCG(71, 72))) }
	st := stream.RandomTurnstile(n, 4000, 50, rand.New(rand.NewPCG(73, 74)))
	whole, a, b := mk(), mk(), mk()
	st.Feed(whole)
	st[:2000].Feed(a)
	st[2000:].Feed(b)
	if err := a.Merge(b); err != nil {
		t.Fatalf("same-seed merge failed: %v", err)
	}
	wAll, mAll := whole.SampleAll(), a.SampleAll()
	if len(wAll) != len(mAll) {
		t.Fatalf("merged emitted %d samples, serial %d", len(mAll), len(wAll))
	}
	for i := range wAll {
		if wAll[i].Index != mAll[i].Index {
			t.Fatalf("sample %d: merged index %d != serial %d", i, mAll[i].Index, wAll[i].Index)
		}
		if diff := math.Abs(wAll[i].Estimate - mAll[i].Estimate); diff > 1e-6*math.Abs(wAll[i].Estimate) {
			t.Fatalf("sample %d: merged estimate %v != serial %v", i, mAll[i].Estimate, wAll[i].Estimate)
		}
	}
}

func TestLpSamplerMergeRejectsMismatch(t *testing.T) {
	cfg := LpConfig{P: 1, N: 64, Eps: 0.25, Delta: 0.25, Copies: 4}
	a := NewLpSampler(cfg, rand.New(rand.NewPCG(75, 76)))
	b := NewLpSampler(cfg, rand.New(rand.NewPCG(77, 78)))
	if err := a.Merge(b); err == nil {
		t.Fatal("expected error merging differently seeded samplers")
	}
	cfg2 := cfg
	cfg2.Copies = 6
	if err := a.Merge(NewLpSampler(cfg2, rand.New(rand.NewPCG(75, 76)))); err == nil {
		t.Fatal("expected error merging samplers of different configurations")
	}
}
