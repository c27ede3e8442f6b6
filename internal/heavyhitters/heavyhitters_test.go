package heavyhitters

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/stream"
)

func TestValidityOnPlantedHeavies(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 512
	for _, p := range []float64{0.5, 1, 1.5, 2} {
		okCount := 0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			var st stream.Stream
			// background noise + planted heavies
			for i := 0; i < n; i++ {
				st = append(st, stream.Update{Index: i, Delta: int64(1 + r.IntN(3))})
			}
			st = append(st,
				stream.Update{Index: 17, Delta: 4000},
				stream.Update{Index: 330, Delta: -3500},
			)
			truth := st.Apply(n)
			s := New(Config{P: p, Phi: 0.3, N: n}, r)
			st.Feed(s)
			set := s.HeavyHitters()
			if ok, missing, forbidden := Valid(truth, p, 0.3, set); ok {
				okCount++
			} else {
				t.Logf("p=%.1f trial %d: missing=%d forbidden=%d set=%v", p, trial, missing, forbidden, set)
			}
		}
		if okCount < trials-2 {
			t.Errorf("p=%.1f: valid set only %d/%d times", p, okCount, trials)
		}
	}
}

func TestStrictTurnstileWorkload(t *testing.T) {
	// The Theorem 9 regime: strict turnstile, inserts then deletes.
	r := rand.New(rand.NewPCG(2, 2))
	const n = 256
	okCount := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		st := stream.StrictTurnstile(n, 3000, 10, r)
		// Plant one unambiguous heavy hitter.
		st = append(st, stream.Update{Index: 99, Delta: 100000})
		truth := st.Apply(n)
		s := New(Config{P: 1, Phi: 0.25, N: n}, r)
		st.Feed(s)
		set := s.HeavyHitters()
		found := false
		for _, i := range set {
			if i == 99 {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: planted heavy hitter missing from %v", trial, set)
		}
		if ok, _, _ := Valid(truth, 1, 0.25, set); ok {
			okCount++
		}
	}
	if okCount < trials-2 {
		t.Errorf("valid only %d/%d times", okCount, trials)
	}
}

func TestNoHeaviesUniformVector(t *testing.T) {
	// Uniform vector with phi above 1/n^{1/p}-ish: the all-heavy band is
	// empty, and nothing with |x_i| <= phi/2 * norm may be reported. With
	// all coordinates equal and way below phi*norm, an empty (or tiny) set
	// is the only valid answer.
	r := rand.New(rand.NewPCG(3, 3))
	const n = 400
	var st stream.Stream
	for i := 0; i < n; i++ {
		st = append(st, stream.Update{Index: i, Delta: 5})
	}
	truth := st.Apply(n)
	s := New(Config{P: 1, Phi: 0.2, N: n}, r)
	st.Feed(s)
	set := s.HeavyHitters()
	if ok, missing, forbidden := Valid(truth, 1, 0.2, set); !ok {
		t.Errorf("uniform vector: invalid set (missing=%d forbidden=%d, |set|=%d)", missing, forbidden, len(set))
	}
}

func TestMScalesWithPhi(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	coarse := New(Config{P: 1, Phi: 0.5, N: 64}, r)
	fine := New(Config{P: 1, Phi: 0.05, N: 64}, r)
	if fine.M() <= coarse.M() {
		t.Error("m must grow as phi shrinks")
	}
	// p=2 scaling is phi^{-2}.
	fine2 := New(Config{P: 2, Phi: 0.05, N: 64}, r)
	if fine2.M() <= fine.M() {
		t.Error("m must grow with p for fixed small phi")
	}
}

func TestConfigPanics(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 5))
	for _, cfg := range []Config{
		{P: 0, Phi: 0.1, N: 10},
		{P: 2.5, Phi: 0.1, N: 10},
		{P: 1, Phi: 0, N: 10},
		{P: 1, Phi: 1, N: 10},
		{P: 1, Phi: 0.1, N: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v must panic", cfg)
				}
			}()
			New(cfg, r)
		}()
	}
}

func TestValidChecker(t *testing.T) {
	st := stream.Stream{{Index: 0, Delta: 100}, {Index: 1, Delta: 1}, {Index: 2, Delta: 1}}
	truth := st.Apply(3)
	// phi=0.5: only coordinate 0 is heavy (norm1=102, threshold 51).
	if ok, _, _ := Valid(truth, 1, 0.5, []int{0}); !ok {
		t.Error("correct set rejected")
	}
	if ok, missing, _ := Valid(truth, 1, 0.5, nil); ok || missing != 1 {
		t.Error("missing heavy not detected")
	}
	if ok, _, forbidden := Valid(truth, 1, 0.5, []int{0, 1}); ok || forbidden != 1 {
		t.Error("forbidden light element not detected")
	}
}

func TestSpaceBitsScaling(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	coarse := New(Config{P: 1, Phi: 0.5, N: 1 << 10}, r)
	fine := New(Config{P: 1, Phi: 0.1, N: 1 << 10}, r)
	if codec.PayloadBits(fine) <= codec.PayloadBits(coarse) {
		t.Error("space must grow as phi^{-p}")
	}
}

func BenchmarkProcess(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	s := New(Config{P: 1, Phi: 0.1, N: 1 << 16}, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(stream.Update{Index: i % (1 << 16), Delta: 1})
	}
}

func TestMergeMatchesSerialAndRejectsMismatch(t *testing.T) {
	cfg := Config{P: 1, Phi: 0.25, N: 128}
	mk := func(seed uint64) *Sketch { return New(cfg, rand.New(rand.NewPCG(seed, seed+1))) }
	var st stream.Stream
	st = append(st, stream.Update{Index: 5, Delta: 5000})
	for i := 0; i < 128; i++ {
		st = append(st, stream.Update{Index: i, Delta: int64(1 + i%4)})
	}
	serial, a, b := mk(7), mk(7), mk(7)
	st.FeedBatch(32, serial)
	st[:64].Feed(a)
	st[64:].Feed(b)
	if err := a.Merge(b); err != nil {
		t.Fatalf("same-seed merge failed: %v", err)
	}
	got, want := a.HeavyHitters(), serial.HeavyHitters()
	if len(got) != len(want) {
		t.Fatalf("merged report %v != serial %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("merged report %v != serial %v", got, want)
		}
	}
	if err := a.Merge(mk(8)); err == nil {
		t.Fatal("expected error merging differently seeded sketches")
	}
	cfg2 := cfg
	cfg2.Phi = 0.5
	if err := a.Merge(New(cfg2, rand.New(rand.NewPCG(7, 8)))); err == nil {
		t.Fatal("expected error merging sketches of different configurations")
	}
}

// referenceHeavyHitters is the pre-PR-13 query verbatim: one scalar Estimate
// per coordinate against the threshold.
func referenceHeavyHitters(s *Sketch) []int {
	rhat := s.nrm.Estimate(nil)
	if rhat <= 0 {
		return nil
	}
	thresh := 0.75 * s.cfg.Phi * rhat
	var out []int
	for i := 0; i < s.cfg.N; i++ {
		est := s.cs.Estimate(uint64(i))
		if math.Abs(est) >= thresh {
			out = append(out, i)
		}
	}
	return out
}

// TestHeavyHittersMatchesPerKeyEstimate: on this file's fixtures — planted
// heavies over noise for every p, a strict-turnstile stream, the uniform
// vector and the zero vector — the blocked threshold scan reports exactly the
// set the per-key loop reports, in the same order.
func TestHeavyHittersMatchesPerKeyEstimate(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 700 // not a multiple of the decode block
	planted := stream.Stream{{Index: 17, Delta: 4000}, {Index: 330, Delta: -3500}, {Index: n - 1, Delta: 3900}}
	var noise, uniform stream.Stream
	for i := 0; i < n; i++ {
		noise = append(noise, stream.Update{Index: i, Delta: int64(1 + r.IntN(3))})
		uniform = append(uniform, stream.Update{Index: i, Delta: 5})
	}
	fixtures := []struct {
		name string
		st   stream.Stream
	}{
		{"planted", append(noise, planted...)},
		{"strict", append(stream.StrictTurnstile(n, 3000, 10, r), stream.Update{Index: 99, Delta: 100000})},
		{"uniform", uniform},
		{"zero", nil},
	}
	for _, f := range fixtures {
		name, st := f.name, f.st
		for _, p := range []float64{0.5, 1, 1.5, 2} {
			for _, phi := range []float64{0.3, 0.02} {
				s := New(Config{P: p, Phi: phi, N: n}, r)
				st.Feed(s)
				got, want := s.HeavyHitters(), referenceHeavyHitters(s)
				if len(got) != len(want) {
					t.Fatalf("%s p=%v phi=%v: %d reported %v, per-key loop %d %v", name, p, phi, len(got), got, len(want), want)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s p=%v phi=%v: entry %d = %d, per-key loop %d", name, p, phi, k, got[k], want[k])
					}
				}
			}
		}
	}
}
