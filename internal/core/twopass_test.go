package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/stream"
	"repro/internal/vector"
)

// runTwoPass replays the stream through both passes and samples.
func runTwoPass(tp *TwoPassL0Sampler, st stream.Stream) (Sample, bool) {
	st.Feed(tp)
	tp.EndPass1()
	st.Feed(tp)
	return tp.Sample()
}

func TestTwoPassZeroVector(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	tp := NewTwoPassL0Sampler(128, 0.2, r)
	if _, ok := runTwoPass(tp, nil); ok {
		t.Fatal("two-pass sampler must fail on the zero vector")
	}
}

func TestTwoPassSmallSupport(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 20; trial++ {
		tp := NewTwoPassL0Sampler(512, 0.2, r)
		st := stream.SparseVector(512, 1+trial%8, 1000, r)
		truth := st.Apply(512)
		out, ok := runTwoPass(tp, st)
		if !ok {
			t.Fatalf("trial %d: failed on small support", trial)
		}
		if truth.Get(out.Index) == 0 || out.Estimate != float64(truth.Get(out.Index)) {
			t.Fatalf("trial %d: sample (%d,%v) not exact", trial, out.Index, out.Estimate)
		}
	}
}

func TestTwoPassLargeSupport(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	const n = 1024
	fails := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		tp := NewTwoPassL0Sampler(n, 0.15, r)
		st := stream.SparseVector(n, 300+trial*10, 100, r)
		truth := st.Apply(n)
		out, ok := runTwoPass(tp, st)
		if !ok {
			fails++
			continue
		}
		if truth.Get(out.Index) == 0 {
			t.Fatalf("trial %d: sampled zero coordinate", trial)
		}
		if out.Estimate != float64(truth.Get(out.Index)) {
			t.Fatalf("trial %d: value not exact", trial)
		}
	}
	if fails > trials/4 {
		t.Errorf("failed %d/%d times", fails, trials)
	}
}

func TestTwoPassUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	r := rand.New(rand.NewPCG(4, 4))
	const n = 256
	values := map[int]int64{5: 1, 50: -9999, 100: 3, 150: 77, 200: -2, 250: 999}
	var st stream.Stream
	for i, v := range values {
		st = append(st, stream.Update{Index: i, Delta: v})
	}
	truth := st.Apply(n)
	target := truth.LpDistribution(0)
	counts := map[int]int{}
	got := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		tp := NewTwoPassL0Sampler(n, 0.2, r)
		out, ok := runTwoPass(tp, st)
		if !ok {
			continue
		}
		got++
		counts[out.Index]++
	}
	if got < trials*8/10 {
		t.Fatalf("only %d/%d succeeded", got, trials)
	}
	if tv := vector.EmpiricalTV(counts, target, got); tv > 0.12 {
		t.Errorf("TV from uniform = %.3f too large", tv)
	}
}

func TestTwoPassMisuse(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	tp := NewTwoPassL0Sampler(64, 0.2, r)
	tp.Process(stream.Update{Index: 1, Delta: 5})
	// Sampling before EndPass1 must fail cleanly, not panic.
	if _, ok := tp.Sample(); ok {
		t.Fatal("Sample before pass 2 must report failure")
	}
}

func TestTwoPassPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTwoPassL0Sampler(0, 0.2, rand.New(rand.NewPCG(7, 7)))
}
