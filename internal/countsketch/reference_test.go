package countsketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/kernel"
)

// referenceDecode and referenceTop are verbatim copies of the pre-PR-13
// decoder — one scalar Estimate per key, then a closure sort over all n
// entries — kept as the oracle pinning the blocked scan bit-identical.
func referenceDecode(s *Sketch, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Estimate(uint64(i))
	}
	return out
}

func referenceTop(s *Sketch, n, m int) []TopEntry {
	ests := referenceDecode(s, n)
	entries := make([]TopEntry, 0, n)
	for i, e := range ests {
		if e != 0 {
			entries = append(entries, TopEntry{i, e})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := entries[a].Estimate, entries[b].Estimate
		if ea < 0 {
			ea = -ea
		}
		if eb < 0 {
			eb = -eb
		}
		if ea != eb {
			return ea > eb
		}
		return entries[a].Index < entries[b].Index
	})
	if len(entries) > m {
		entries = entries[:m]
	}
	return entries
}

// sweepVariants runs fn under every kernel variant selectable here (the same
// sweep as hash/kernelsweep_test.go); the scalar Estimate is not dispatched.
func sweepVariants(t *testing.T, fn func(t *testing.T)) {
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

func sameEntries(a, b []TopEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Estimate) != math.Float64bits(b[i].Estimate) {
			return false
		}
	}
	return true
}

// fillSketch feeds `support` random coordinates of [0, n) with signed integer
// weights of widely varying size, so estimates collide, tie and cancel.
func fillSketch(s *Sketch, n, support int, r *rand.Rand) {
	for k := 0; k < support; k++ {
		v := float64(1 + r.IntN(1<<uint(1+r.IntN(12))))
		if r.IntN(2) == 0 {
			v = -v
		}
		s.Add(uint64(r.IntN(n)), v)
	}
}

// TestDecodeTopMatchReference: Decode ≡ Estimate per key and Top ≡ the old
// implementation entry for entry, over n straddling the block size, small and
// oversized m, odd and even row counts (the pruning rule differs), dense and
// sparse supports, under every kernel variant.
func TestDecodeTopMatchReference(t *testing.T) {
	const B = decodeBlock
	sweepVariants(t, func(t *testing.T) {
		for _, rows := range []int{1, 2, 5, 8, 18} {
			for _, n := range []int{1, B - 1, B, B + 1, 10*B + 7} {
				for _, support := range []int{2, n/4 + 1, 3 * n} {
					r := rand.New(rand.NewPCG(uint64(rows), uint64(n*31+support)))
					s := New(4, rows, r)
					fillSketch(s, n, support, r)
					name := fmt.Sprintf("rows=%d n=%d support=%d", rows, n, support)
					dec, want := s.Decode(n), referenceDecode(s, n)
					for i := range want {
						if math.Float64bits(dec[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: Decode[%d] = %v, Estimate = %v", name, i, dec[i], want[i])
						}
					}
					for _, m := range []int{1, 3, 32, n + 5} {
						if got, want := s.Top(n, m), referenceTop(s, n, m); !sameEntries(got, want) {
							t.Fatalf("%s m=%d:\n got %v\nwant %v", name, m, got, want)
						}
					}
				}
			}
		}
	})
}

// TestTopPlantedTies plants exact magnitude ties — opposite signs, on
// neighbouring indices and across a block boundary — so that the heap's
// minimum is tied with later keys; which of the tied keys survive is decided
// by index alone.
func TestTopPlantedTies(t *testing.T) {
	const n = 3*decodeBlock + 11
	sweepVariants(t, func(t *testing.T) {
		for _, rows := range []int{7, 8} {
			// m = 4n buckets per row keeps the planted coordinates collision-free
			// in most rows, so their estimates are the planted values exactly.
			s := New(4*n, rows, rand.New(rand.NewPCG(77, uint64(rows))))
			for _, i := range []int{3, 4, decodeBlock - 1, decodeBlock, 2*decodeBlock + 5, n - 1} {
				v := 40.0
				if i%2 == 0 {
					v = -v
				}
				s.Add(uint64(i), v)
			}
			s.Add(100, 90)
			s.Add(101, -7)
			for _, m := range []int{1, 2, 3, 4, 6, 7, 8, 9} {
				got, want := s.Top(n, m), referenceTop(s, n, m)
				if !sameEntries(got, want) {
					t.Fatalf("rows=%d m=%d:\n got %v\nwant %v", rows, m, got, want)
				}
			}
			if top := s.Top(n, 3); len(top) != 3 || top[1].Index != 3 || top[2].Index != 4 {
				t.Fatalf("rows=%d: tied entries not in index order: %v", rows, top)
			}
		}
	})
}

// TestTopDecodeEdgeCases: negative and zero n or m, the all-zero sketch and
// fewer than m non-zeros all return an empty (or short) result, not a panic.
func TestTopDecodeEdgeCases(t *testing.T) {
	s := New(8, 6, rand.New(rand.NewPCG(5, 5)))
	for _, c := range [][2]int{{-1, 4}, {0, 4}, {64, 0}, {64, -3}, {-2, -2}, {64, 4}} {
		if top := s.Top(c[0], c[1]); len(top) != 0 {
			t.Errorf("zero sketch: Top(%d, %d) = %v, want empty", c[0], c[1], top)
		}
	}
	if d := s.Decode(-5); len(d) != 0 {
		t.Errorf("Decode(-5) has %d entries, want 0", len(d))
	}
	if got := s.AtLeast(-1, 1); len(got) != 0 {
		t.Errorf("AtLeast(-1) = %v, want empty", got)
	}
	s.Add(9, 5)
	s.Add(20, -2)
	if top := s.Top(64, 10); len(top) != 2 || top[0].Index != 9 || top[1].Index != 20 {
		t.Errorf("Top with 2 non-zeros = %v", top)
	}
	if top := s.Top(64, -1); len(top) != 0 {
		t.Errorf("Top(64, -1) = %v, want empty", top)
	}
	if got := s.AtLeast(64, 2); len(got) != 2 || got[0] != 9 || got[1] != 20 {
		t.Errorf("AtLeast(64, 2) = %v, want [9 20]", got)
	}
}

// TestAtLeastMatchesEstimate: the fixed-threshold scan reports exactly the
// keys whose scalar estimate reaches tau, ties included.
func TestAtLeastMatchesEstimate(t *testing.T) {
	const n = 2*decodeBlock + 3
	sweepVariants(t, func(t *testing.T) {
		for _, rows := range []int{5, 6} {
			r := rand.New(rand.NewPCG(91, uint64(rows)))
			s := New(16, rows, r)
			fillSketch(s, n, n, r)
			ests := referenceDecode(s, n)
			for _, tau := range []float64{0, 1, math.Abs(ests[7]), math.Abs(ests[n-1]), 500, 1e9} {
				var want []int
				for i, e := range ests {
					if math.Abs(e) >= tau {
						want = append(want, i)
					}
				}
				got := s.AtLeast(n, tau)
				if len(got) != len(want) {
					t.Fatalf("rows=%d tau=%v: %d keys, want %d", rows, tau, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("rows=%d tau=%v: key %d = %d, want %d", rows, tau, k, got[k], want[k])
					}
				}
			}
		}
	})
}

// TestTopWithSharedScratch: one Scratch and one result buffer serve sketches
// of different depths in turn, as the Lp sampler's repetitions use them.
func TestTopWithSharedScratch(t *testing.T) {
	var sc Scratch
	var buf []TopEntry
	for _, rows := range []int{9, 4, 12} {
		r := rand.New(rand.NewPCG(13, uint64(rows)))
		s := New(8, rows, r)
		fillSketch(s, 700, 300, r)
		buf = s.TopWith(&sc, 700, 16, buf)
		if want := referenceTop(s, 700, 16); !sameEntries(buf, want) {
			t.Fatalf("rows=%d:\n got %v\nwant %v", rows, buf, want)
		}
	}
}
