package duplicates

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// TestPropertyFindIsFirstPositive: Find answers the first positive entry of
// SampleAll, on permutation-plus-duplicate streams and on uniform-letter
// streams, both on a dirty finder (which resolves repetitions only until one
// yields a positive output) and on a same-seed replica whose SampleAll has
// resolved them all. Resolving lazily leaves SampleAll's outputs unchanged.
func TestPropertyFindIsFirstPositive(t *testing.T) {
	const n = 256
	skipped := 0 // answers that follow a non-positive output
	f := func(seed uint64, uniform bool) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		force := r.IntN(n)
		if uniform {
			force = -1
		}
		items := stream.DuplicateItems(n, force, r)
		mk := func() *Finder {
			f := NewFinder(n, 0.2, rand.New(rand.NewPCG(seed, 8)))
			f.ProcessItems(items)
			return f
		}
		lazy, eager := mk(), mk()
		got := lazy.Find()
		all := eager.sampler.SampleAll()
		want := Result{Kind: Fail, Index: -1}
		for i, s := range all {
			if s.Estimate > 0 {
				want = Result{Kind: Duplicate, Index: s.Index, Value: s.Estimate}
				if i > 0 {
					skipped++
				}
				break
			}
		}
		return got == want && eager.Find() == want &&
			reflect.DeepEqual(lazy.sampler.SampleAll(), all) &&
			lazy.sampler.Diagnostics() == eager.sampler.Diagnostics()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("no draw made Find pass over a non-positive output")
	}
}
