package baseline

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stream"
)

func TestAKOSamplerBasicOperation(t *testing.T) {
	// The baseline must still sample the dominant coordinate.
	r := rand.New(rand.NewPCG(1, 1))
	const n = 128
	hits, total := 0, 0
	for trial := 0; trial < 15; trial++ {
		s := NewAKO(1, n, 0.3, 12, r)
		for i := 0; i < n; i++ {
			s.Process(stream.Update{Index: i, Delta: 1})
		}
		s.Process(stream.Update{Index: 42, Delta: 999999})
		i, est, ok := s.Sample()
		if !ok {
			continue
		}
		total++
		if i == 42 {
			hits++
			if math.Abs(est-1e6) > 0.5e6 {
				t.Errorf("estimate %.0f far from 1e6", est)
			}
		}
	}
	if total < 8 {
		t.Fatalf("only %d/15 trials produced output", total)
	}
	if hits < total*7/10 {
		t.Errorf("dominant coordinate hit %d/%d", hits, total)
	}
}

func TestAKOPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p out of range")
		}
	}()
	NewAKO(2.5, 100, 0.3, 4, rand.New(rand.NewPCG(3, 3)))
}

func TestFISL0SamplesSupport(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	const n = 256
	okCount := 0
	for trial := 0; trial < 20; trial++ {
		f := NewFISL0(n, 12, r)
		st := stream.SparseVector(n, 30, 100, r)
		truth := st.Apply(n)
		st.Feed(f)
		i, v, ok := f.Sample()
		if !ok {
			continue
		}
		okCount++
		if truth.Get(i) == 0 {
			t.Fatalf("trial %d: sampled zero coordinate", trial)
		}
		if truth.Get(i) != v {
			t.Fatalf("trial %d: value %d != exact %d", trial, v, truth.Get(i))
		}
	}
	if okCount < 14 {
		t.Errorf("FIS succeeded only %d/20 times", okCount)
	}
}

func TestBitmapOracle(t *testing.T) {
	b := NewBitmap(10)
	for _, it := range []int{3, 1, 4, 1, 5} {
		b.ProcessItem(it)
	}
	d, ok := b.Duplicate()
	if !ok || d != 1 {
		t.Fatalf("bitmap found (%d,%v), want (1,true)", d, ok)
	}
	b2 := NewBitmap(5)
	for i := 0; i < 5; i++ {
		b2.ProcessItem(i)
	}
	if _, ok := b2.Duplicate(); ok {
		t.Fatal("bitmap false positive")
	}
}

func BenchmarkAKOProcess(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	s := NewAKO(1, 1<<12, 0.3, 8, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(stream.Update{Index: i % (1 << 12), Delta: 1})
	}
}

func BenchmarkFISL0Process(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	f := NewFISL0(1<<12, 12, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(stream.Update{Index: i % (1 << 12), Delta: 1})
	}
}
