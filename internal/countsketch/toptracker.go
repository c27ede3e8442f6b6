package countsketch

import (
	"sort"

	"repro/internal/stream"
)

// TopTracker maintains, alongside a count-sketch, a small candidate set of
// likely-heavy coordinates so that Top queries need no Θ(n·rows) decode —
// the classical Charikar-Chen-Farach-Colton "heap of heavy hitters"
// companion structure.
//
// On every update the freshly touched coordinate is (re-)estimated and kept
// if it ranks among the largest candidates; the set is pruned lazily to
// bound memory at O(m) extra words. For insert-dominated streams the
// tracker returns the same top set as the full decode. Under heavy
// deletions a coordinate can become relatively heavy without being touched
// (everything else shrank); such coordinates are found by the scan decoder
// but can be missed here — callers that delete aggressively should fall
// back to Sketch.Top. The Lp sampler keeps using the exact scan (its
// guarantees quantify over all n coordinates); the tracker exists for
// latency-sensitive heavy-hitters deployments.
type TopTracker struct {
	sk         *Sketch
	m          int
	candidates map[uint64]struct{}
}

// NewTopTracker wraps an existing sketch, tracking roughly the top m.
func NewTopTracker(sk *Sketch, m int) *TopTracker {
	if m < 1 {
		m = 1
	}
	return &TopTracker{
		sk:         sk,
		m:          m,
		candidates: make(map[uint64]struct{}, 4*m),
	}
}

// Add forwards the update to the sketch and refreshes the candidate set.
func (t *TopTracker) Add(i uint64, delta float64) {
	t.sk.Add(i, delta)
	t.candidates[i] = struct{}{}
	if len(t.candidates) > 8*t.m {
		t.prune()
	}
}

// Process implements stream.Sink.
func (t *TopTracker) Process(u stream.Update) {
	t.Add(uint64(u.Index), float64(u.Delta))
}

// prune re-estimates all candidates and keeps the 2m largest magnitudes.
func (t *TopTracker) prune() {
	entries := t.estimateCandidates()
	keep := 2 * t.m
	if keep > len(entries) {
		keep = len(entries)
	}
	next := make(map[uint64]struct{}, 4*t.m)
	for _, e := range entries[:keep] {
		next[uint64(e.Index)] = struct{}{}
	}
	t.candidates = next
}

// estimateCandidates returns current candidates sorted by decreasing
// estimated magnitude, dropping zero estimates.
func (t *TopTracker) estimateCandidates() []TopEntry {
	entries := make([]TopEntry, 0, len(t.candidates))
	for i := range t.candidates {
		est := t.sk.Estimate(i)
		if est != 0 {
			entries = append(entries, TopEntry{Index: int(i), Estimate: est})
		}
	}
	sort.Slice(entries, func(a, b int) bool { return ranksBefore(entries[a], entries[b]) })
	return entries
}

// Top returns up to m tracked entries by decreasing magnitude, re-estimated
// against the current sketch state. Cost is O(m·rows), independent of n.
func (t *TopTracker) Top() []TopEntry {
	entries := t.estimateCandidates()
	if len(entries) > t.m {
		entries = entries[:t.m]
	}
	return entries
}

// SpaceBits adds the candidate set (≤ 8m words) to the sketch footprint.
func (t *TopTracker) SpaceBits() int64 {
	return t.sk.SpaceBits() + int64(8*t.m)*64
}
