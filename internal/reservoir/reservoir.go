// Package reservoir implements the classical insertion-only samplers the
// paper uses as context and building blocks:
//
//   - the reservoir L1 sampler attributed to Alan G. Waterman (§1): for
//     positive updates (i, u), replace the current sample with i with
//     probability u/s where s is the running sum — a perfect L1 sampler in
//     O(1) words;
//   - a k-item position reservoir over item streams, used by the length-
//     (n+s) duplicates algorithm at the end of §3 (sample 4⌈n/s⌉ items and
//     check whether one of them appears again).
package reservoir

import (
	"errors"
	"math/rand/v2"

	"repro/internal/stream"
)

// ErrNegativeUpdate is returned when the insertion-only L1 sampler receives
// a negative update — exactly the regime where the paper's Lp samplers are
// needed instead.
var ErrNegativeUpdate = errors.New("reservoir: negative update in insertion-only sampler")

// L1 is the perfect L1 sampler for positive update streams.
type L1 struct {
	r      *rand.Rand
	sum    float64
	sample int
	seen   bool
}

// NewL1 creates the sampler.
func NewL1(r *rand.Rand) *L1 { return &L1{r: r, sample: -1} }

// Add processes an update (i, u) with u > 0.
func (l *L1) Add(i int, u float64) error {
	if u <= 0 {
		return ErrNegativeUpdate
	}
	l.sum += u
	if !l.seen || l.r.Float64() < u/l.sum {
		l.sample = i
		l.seen = true
	}
	return nil
}

// Process implements stream.Sink; negative updates poison the sampler (it
// keeps the error for Sample to report).
func (l *L1) Process(u stream.Update) {
	if err := l.Add(u.Index, float64(u.Delta)); err != nil {
		l.seen = false
		l.sum = -1 // poisoned
	}
}

// Sample returns the current L1 sample.
func (l *L1) Sample() (int, bool) {
	if !l.seen || l.sum < 0 {
		return -1, false
	}
	return l.sample, true
}

// Items is a k-item sampler over an item stream of known length: it fixes k
// uniformly random positions up front (with replacement), remembers the
// letters landing there, and reports any letter it has remembered that
// appears again afterwards. This is the algorithm of §3's closing paragraph
// for streams of length n+s: with k = 4⌈n/s⌉ samples a duplicate is caught
// with constant probability.
type Items struct {
	positions  map[int][]int // stream position -> slots
	remembered map[int]bool  // letters currently remembered
	pos        int
	dup        int
	found      bool
	k          int
}

// NewItems creates a sampler of k positions over a stream of the given
// length.
func NewItems(k, length int, r *rand.Rand) *Items {
	s := &Items{
		positions:  make(map[int][]int, k),
		remembered: make(map[int]bool, k),
		dup:        -1,
		k:          k,
	}
	for j := 0; j < k; j++ {
		p := r.IntN(length)
		s.positions[p] = append(s.positions[p], j)
	}
	return s
}

// ProcessItem consumes the next letter of the stream.
func (s *Items) ProcessItem(letter int) {
	// A remembered letter seen again is a duplicate. Check before
	// remembering so a letter sampled at this very position does not match
	// itself.
	if s.remembered[letter] && !s.found {
		s.dup = letter
		s.found = true
	}
	if _, sampled := s.positions[s.pos]; sampled {
		s.remembered[letter] = true
	}
	s.pos++
}

// Duplicate reports the first caught duplicate.
func (s *Items) Duplicate() (int, bool) { return s.dup, s.found }

// SpaceBits accounts k remembered letters plus k sampled positions at one
// word each — the O((n/s) log n) bits of the §3 algorithm.
func (s *Items) SpaceBits() int64 { return int64(2*s.k) * 64 }
