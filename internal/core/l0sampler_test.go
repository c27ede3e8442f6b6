package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/stream"
	"repro/internal/vector"
)

func TestL0SamplerZeroVector(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	s := NewL0Sampler(L0Config{N: 128, Delta: 0.2}, r)
	if _, ok := s.Sample(); ok {
		t.Fatal("L0 sampler must fail on the zero vector")
	}
}

func TestL0SamplerSmallSupportNeverFails(t *testing.T) {
	// |J| <= s: level 0 recovers x exactly, failure is impossible
	// (Theorem 2 proof: "for |J| <= s failure is not possible").
	r := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 30; trial++ {
		s := NewL0Sampler(L0Config{N: 512, Delta: 0.25}, r)
		support := 1 + trial%s.S()
		st := stream.SparseVector(512, support, 1000, r)
		truth := st.Apply(512)
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			t.Fatalf("trial %d: failed on %d-sparse vector (s=%d)", trial, support, s.S())
		}
		if truth.Get(out.Index) == 0 {
			t.Fatalf("trial %d: sampled zero coordinate %d", trial, out.Index)
		}
		if out.Estimate != float64(truth.Get(out.Index)) {
			t.Fatalf("trial %d: value %v != exact %d (zero relative error violated)",
				trial, out.Estimate, truth.Get(out.Index))
		}
	}
}

func TestL0SamplerLargeSupportSuccessRate(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	const n = 512
	fails := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		s := NewL0Sampler(L0Config{N: n, Delta: 0.1}, r)
		// Dense support: every coordinate nonzero.
		for i := 0; i < n; i++ {
			s.Process(stream.Update{Index: i, Delta: int64(1 + i%7)})
		}
		out, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		if out.Index < 0 || out.Index >= n {
			t.Fatalf("index %d out of range", out.Index)
		}
	}
	if fails > trials/5 {
		t.Errorf("failed %d/%d times, want <= δ=0.1 + slack", fails, trials)
	}
}

func TestL0SamplerUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	r := rand.New(rand.NewPCG(4, 4))
	const n = 256
	// Support of 6 coordinates with very different magnitudes: the L0
	// distribution ignores magnitudes entirely.
	values := map[int]int64{5: 1, 50: -1000000, 100: 3, 150: 77, 200: -2, 250: 999}
	var st stream.Stream
	for i, v := range values {
		st = append(st, stream.Update{Index: i, Delta: v})
	}
	truth := st.Apply(n)
	target := truth.LpDistribution(0)

	counts := map[int]int{}
	got := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		s := NewL0Sampler(L0Config{N: n, Delta: 0.2}, r)
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			continue
		}
		counts[out.Index]++
		got++
	}
	if got < trials*9/10 {
		t.Fatalf("only %d/%d trials succeeded on 6-sparse input", got, trials)
	}
	tv := vector.EmpiricalTV(counts, target, got)
	// 6 atoms at ~400 samples: sampling noise ~ 0.07; uniformity error must
	// not push beyond this by much (zero relative error claim).
	if tv > 0.12 {
		t.Errorf("TV from uniform = %.3f too large", tv)
	}
}

func TestL0SamplerMidSupportValuesExact(t *testing.T) {
	// Support > s: recovery happens at a subsampled level; returned values
	// must still be exactly x_i.
	r := rand.New(rand.NewPCG(5, 5))
	const n = 1024
	st := stream.SparseVector(n, 100, 500, r)
	truth := st.Apply(n)
	okCount := 0
	for trial := 0; trial < 20; trial++ {
		s := NewL0Sampler(L0Config{N: n, Delta: 0.2}, r)
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			continue
		}
		okCount++
		if float64(truth.Get(out.Index)) != out.Estimate {
			t.Fatalf("value %v != exact %d", out.Estimate, truth.Get(out.Index))
		}
	}
	if okCount < 14 {
		t.Errorf("only %d/20 trials succeeded", okCount)
	}
}

func TestL0SamplerAfterChurn(t *testing.T) {
	// Insert everything, delete all but 3: sampler must land on survivors.
	r := rand.New(rand.NewPCG(6, 6))
	const n = 300
	s := NewL0Sampler(L0Config{N: n, Delta: 0.1}, r)
	for i := 0; i < n; i++ {
		s.Process(stream.Update{Index: i, Delta: 9})
	}
	survivors := map[int]bool{10: true, 150: true, 299: true}
	for i := 0; i < n; i++ {
		if !survivors[i] {
			s.Process(stream.Update{Index: i, Delta: -9})
		}
	}
	out, ok := s.Sample()
	if !ok {
		t.Fatal("sampler failed on 3-sparse post-churn vector")
	}
	if !survivors[out.Index] || out.Estimate != 9 {
		t.Fatalf("sampled (%d, %v), want a survivor with value 9", out.Index, out.Estimate)
	}
}

func TestL0SamplerSpacePolylog(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	small := NewL0Sampler(L0Config{N: 1 << 8, Delta: 0.2}, r)
	big := NewL0Sampler(L0Config{N: 1 << 16, Delta: 0.2}, r)
	smallBits, bigBits := codec.PayloadBits(small), codec.PayloadBits(big)
	if bigBits <= smallBits {
		t.Error("space must grow with log n")
	}
	if bigBits > 8*smallBits {
		t.Errorf("space not polylog: %d -> %d for 256x dimension", smallBits, bigBits)
	}
	// s grows with log(1/δ).
	loose := NewL0Sampler(L0Config{N: 1 << 10, Delta: 0.4}, r)
	tight := NewL0Sampler(L0Config{N: 1 << 10, Delta: 0.01}, r)
	if tight.S() <= loose.S() {
		t.Error("s must grow with log(1/δ)")
	}
}

func TestL0SamplerConfigValidation(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 8))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for N=0")
		}
	}()
	NewL0Sampler(L0Config{N: 0, Delta: 0.2}, r)
}

func TestL0SamplerSOverride(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	s := NewL0Sampler(L0Config{N: 128, Delta: 0.2, SOverride: 17}, r)
	if s.S() != 17 {
		t.Errorf("SOverride ignored: s=%d", s.S())
	}
}

// TestL0ProcessBatchMatchesProcess pins the level-major fold to the
// definition of the sketch: level k's recoverer measures x restricted to I_k.
// The reference feeds each level's recoverer, one update at a time, exactly
// the updates whose coordinate member (read off the generator block by block)
// admits; the subjects take the stream as one ProcessBatch and through
// Process. The serialized state compares every syndrome and fingerprint of
// every level, in both level-assignment modes and across lengths that
// exercise the chunking and the recoverer's groups of four and their tails.
func TestL0ProcessBatchMatchesProcess(t *testing.T) {
	for _, nested := range []bool{false, true} {
		for _, length := range []int{1, 3, 64, 1000} {
			r := rand.New(rand.NewPCG(11, uint64(length)))
			st := stream.RandomTurnstile(777, length, 50, r)
			mk := func() *L0Sampler {
				return NewL0Sampler(L0Config{N: 777, Delta: 0.2, NestedLevels: nested},
					rand.New(rand.NewPCG(21, 22)))
			}
			ref, batched, single := mk(), mk(), mk()
			for k, rc := range ref.levels {
				for _, u := range st {
					if ref.member(k, u.Index) {
						rc.Process(u)
					}
				}
			}
			batched.ProcessBatch(st)
			for _, u := range st {
				single.Process(u)
			}
			want := stateBytes(ref)
			for name, s := range map[string]*L0Sampler{"ProcessBatch": batched, "Process": single} {
				if !bytes.Equal(stateBytes(s), want) {
					t.Fatalf("nested=%v len=%d: %s state differs from the per-level definition", nested, length, name)
				}
			}
		}
	}
}

// member reports whether coordinate i belongs to I_k, read off the generator
// bit by bit (prng.Block) at the address the sampler's layout assigns — the
// definition the window-table fold paths are held to.
func (l *L0Sampler) member(k, i int) bool {
	if k == 0 {
		return true
	}
	addr := uint64(i)
	if !l.nested {
		addr = uint64(i)*l.stride + uint64(k-1)
	}
	return l.gen.Block(addr) < l.thresholds[k]
}

// TestL0NestedMembershipIsNested: with NestedLevels the subsets must satisfy
// I_1 ⊆ I_2 ⊆ ... — the §2.1 dyadic reading — while the default mode has no
// such constraint.
func TestL0NestedMembershipIsNested(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 32))
	s := NewL0Sampler(L0Config{N: 4096, Delta: 0.2, NestedLevels: true}, r)
	for i := 0; i < 4096; i += 7 {
		for k := 1; k < s.Levels()-1; k++ {
			if s.member(k, i) && !s.member(k+1, i) {
				t.Fatalf("coordinate %d in I_%d but not I_%d", i, k, k+1)
			}
		}
	}
}

// TestL0NestedLevelSizes: E|I_k| = 2^k must hold under the dyadic threshold
// assignment; check each tested level's size within 6 standard deviations.
func TestL0NestedLevelSizes(t *testing.T) {
	r := rand.New(rand.NewPCG(33, 34))
	const n = 1 << 14
	s := NewL0Sampler(L0Config{N: n, Delta: 0.2, NestedLevels: true}, r)
	for k := 1; k < s.Levels(); k++ {
		count := 0
		for i := 0; i < n; i++ {
			if s.member(k, i) {
				count++
			}
		}
		mean := float64(uint64(1) << k)
		sd := math.Sqrt(mean * (1 - mean/n))
		if math.Abs(float64(count)-mean) > 6*sd+1 {
			t.Errorf("level %d: |I_k| = %d, want %.0f ± %.0f", k, count, mean, 6*sd)
		}
	}
}

// TestL0NestedSmallSupportNeverFails mirrors the default-mode guarantee in
// nested mode: |J| <= s is recovered exactly by level 0 with probability 1.
func TestL0NestedSmallSupportNeverFails(t *testing.T) {
	r := rand.New(rand.NewPCG(35, 36))
	for trial := 0; trial < 30; trial++ {
		s := NewL0Sampler(L0Config{N: 512, Delta: 0.25, NestedLevels: true}, r)
		support := 1 + trial%s.S()
		st := stream.SparseVector(512, support, 1000, r)
		truth := st.Apply(512)
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			t.Fatalf("trial %d: failed on %d-sparse vector", trial, support)
		}
		if truth.Get(out.Index) == 0 || out.Estimate != float64(truth.Get(out.Index)) {
			t.Fatalf("trial %d: sampled (%d, %v), want exact support element",
				trial, out.Index, out.Estimate)
		}
	}
}

// TestL0NestedUniformity: the sampling distribution under NestedLevels must
// be as uniform over the support as the default mode's (Theorem 2's
// guarantee does not depend on which of the two level constructions is
// used).
func TestL0NestedUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	r := rand.New(rand.NewPCG(37, 38))
	const n = 256
	values := map[int]int64{5: 1, 50: -1000000, 100: 3, 150: 77, 200: -2, 250: 999}
	var st stream.Stream
	for i, v := range values {
		st = append(st, stream.Update{Index: i, Delta: v})
	}
	truth := st.Apply(n)
	target := truth.LpDistribution(0)
	counts := map[int]int{}
	got := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		s := NewL0Sampler(L0Config{N: n, Delta: 0.2, NestedLevels: true}, r)
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			continue
		}
		counts[out.Index]++
		got++
	}
	if got < trials*9/10 {
		t.Fatalf("only %d/%d trials succeeded on 6-sparse input", got, trials)
	}
	tv := vector.EmpiricalTV(counts, target, got)
	if tv > 0.12 {
		t.Errorf("TV from uniform = %.3f too large", tv)
	}
}

// TestL0NestedMidSupportValuesExact: supports above s recover at subsampled
// levels; values must stay exact in nested mode too.
func TestL0NestedMidSupportValuesExact(t *testing.T) {
	r := rand.New(rand.NewPCG(39, 40))
	const n = 1024
	st := stream.SparseVector(n, 100, 500, r)
	truth := st.Apply(n)
	okCount := 0
	for trial := 0; trial < 20; trial++ {
		s := NewL0Sampler(L0Config{N: n, Delta: 0.2, NestedLevels: true}, r)
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			continue
		}
		okCount++
		if float64(truth.Get(out.Index)) != out.Estimate {
			t.Fatalf("value %v != exact %d", out.Estimate, truth.Get(out.Index))
		}
	}
	if okCount < 14 {
		t.Errorf("only %d/20 trials succeeded", okCount)
	}
}

// TestL0MergeRejectsModeMismatch: nested and i.i.d. samplers must not merge
// even when their recoverers happen to share seeds.
func TestL0MergeRejectsModeMismatch(t *testing.T) {
	a := NewL0Sampler(L0Config{N: 128, Delta: 0.2}, rand.New(rand.NewPCG(41, 42)))
	b := NewL0Sampler(L0Config{N: 128, Delta: 0.2, NestedLevels: true}, rand.New(rand.NewPCG(41, 42)))
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different level-assignment modes must fail")
	}
}

// TestL0SampleLevelRandomness pins the Sample randomness fix: the uniform
// support choice at recovery level k reads the PRG block reserved for THAT
// level (sampleBase+k) and reduces it with the width-based integer map
// ⌊block·m/2^61⌋ — so the drawn rank differs across levels instead of
// repeating one reserved block everywhere.
func TestL0SampleLevelRandomness(t *testing.T) {
	r := rand.New(rand.NewPCG(43, 44))
	s := NewL0Sampler(L0Config{N: 512, Delta: 0.2}, r)
	// 4-sparse vector: level 0 recovers; Sample must pick
	// support[⌊Block(sampleBase+0)·4/2^61⌋].
	support := []int{7, 100, 200, 300}
	for _, i := range support {
		s.Process(stream.Update{Index: i, Delta: int64(i)})
	}
	out, ok := s.Sample()
	if !ok {
		t.Fatal("sampler failed on 4-sparse vector")
	}
	blk := s.gen.Block(s.sampleBase)
	want := support[blk*4>>61] // floor(blk·4 / 2^61); blk < 2^61 so blk·4 cannot overflow
	if out.Index != want {
		t.Fatalf("Sample picked %d, want %d from level-0 reserved block", out.Index, want)
	}
	// Distinct levels read distinct reserved blocks (the pre-fix code read
	// one shared block for every level and every call).
	seen := map[uint64]bool{}
	for k := 0; k < s.Levels(); k++ {
		seen[s.gen.Block(s.sampleBase+uint64(k))] = true
	}
	if len(seen) < 2 {
		t.Fatal("per-level sample blocks collapse to one value")
	}
}

func BenchmarkL0SamplerProcess(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	s := NewL0Sampler(L0Config{N: 1 << 16, Delta: 0.2}, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(stream.Update{Index: i % (1 << 16), Delta: 1})
	}
}

// BenchmarkL0SamplerProcessBatch is the served shape of the fold: 2048-update
// frames of a uniform turnstile stream over n = 2^16, reported per update.
func BenchmarkL0SamplerProcessBatch(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	s := NewL0Sampler(L0Config{N: 1 << 16, Delta: 0.2}, r)
	st := stream.RandomTurnstile(1<<16, 64*2048, 100, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i % 64 * 2048
		s.ProcessBatch(st[lo : lo+2048])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2048), "ns/update")
}

// BenchmarkL0SamplerSample measures repeated Sample() calls on an unchanged
// sketch — a fresh multi-level decode per call before PR 4, the memoized
// cached sample after it.
func BenchmarkL0SamplerSample(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 1 << 12
	s := NewL0Sampler(L0Config{N: n, Delta: 0.2}, r)
	st := stream.SparseVector(n, 64, 100, r)
	st.Feed(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

// BenchmarkL0SamplerSampleDirty measures the real multi-level decode: a
// canceling update pair re-dirties the sampler each iteration (leaving its
// state unchanged), so Sample must re-run recovery on every level the
// touched coordinate reaches — comparable before and after the memoization.
func BenchmarkL0SamplerSampleDirty(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 1 << 12
	s := NewL0Sampler(L0Config{N: n, Delta: 0.2}, r)
	st := stream.SparseVector(n, 64, 100, r)
	st.Feed(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(stream.Update{Index: 0, Delta: 1})
		s.Process(stream.Update{Index: 0, Delta: -1})
		s.Sample()
	}
}
