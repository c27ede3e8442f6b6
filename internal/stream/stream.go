// Package stream defines the turnstile update-stream model of the paper
// (Notation, §1): a sequence of tuples (i, u) with i in [n], u in Z that
// implicitly defines a vector x in Z^n, plus generators for every workload
// the experiments need — general and strict turnstile streams, 0/±1 vectors,
// and the duplicate-finding item streams of §3.
package stream

import (
	"math"
	"math/rand/v2"

	"repro/internal/vector"
)

// Update is one turnstile update: add Delta to coordinate Index of x.
type Update struct {
	Index int
	Delta int64
}

// Stream is an ordered sequence of updates.
type Stream []Update

// Apply replays the stream onto a fresh zero vector of dimension n and
// returns the exact resulting vector (the experiment ground truth).
func (s Stream) Apply(n int) *vector.Dense {
	d := vector.NewDense(n)
	for _, u := range s {
		d.Update(u.Index, u.Delta)
	}
	return d
}

// Sink consumes updates; every sketch in this repository implements it.
type Sink interface {
	Process(u Update)
}

// BatchSink is the contract of sketches with a tight batched ingestion path:
// ProcessBatch(batch) must leave the sketch in exactly the state that
// repeated Process calls over the same updates in the same order would.
// Batched paths amortize hash evaluations, bounds checks and interface
// dispatch across the batch, and are what the sharded ingestion engine
// (internal/engine) drives.
type BatchSink interface {
	Sink
	ProcessBatch(batch []Update)
}

// Keys writes the update indices of batch into *buf as uint64 hash keys,
// growing the buffer on demand (never shrinking it), and returns the filled
// view. The sketches' batched hot paths share these extraction helpers so
// the grow-and-split policy lives in one place and steady-state calls
// allocate nothing.
func Keys(batch []Update, buf *[]uint64) []uint64 {
	if cap(*buf) < len(batch) {
		*buf = make([]uint64, len(batch))
	}
	keys := (*buf)[:len(batch)]
	for t, u := range batch {
		keys[t] = uint64(u.Index)
	}
	return keys
}

// FloatDeltas writes the update deltas of batch into *buf as float64,
// growing the buffer on demand, and returns the filled view.
func FloatDeltas(batch []Update, buf *[]float64) []float64 {
	if cap(*buf) < len(batch) {
		*buf = make([]float64, len(batch))
	}
	del := (*buf)[:len(batch)]
	for t, u := range batch {
		del[t] = float64(u.Delta)
	}
	return del
}

// ProcessAll delivers a batch through the sink's ProcessBatch fast path when
// it has one, falling back to one Process call per update.
func ProcessAll(s Sink, batch []Update) {
	if bs, ok := s.(BatchSink); ok {
		bs.ProcessBatch(batch)
		return
	}
	for _, u := range batch {
		s.Process(u)
	}
}

// pendingLen is how many single updates a Pending holds before they fold: two
// chunks of the norm sketches' batch fold (norm.foldChunk).
const pendingLen = 256

// Pending buffers a BatchSink's single updates so that they reach its batched
// fold pendingLen at a time. Its array is allocated by the first Add, so a
// sink that is only built, loaded, merged or queried carries none. The sink
// flushes the buffer first thing in ProcessBatch (to keep stream order) and
// before every read of the state the updates fold into; it drops the buffer
// when that state is replaced.
type Pending struct{ buf []Update }

// Add appends u, and flushes the buffer into s once it is full.
func (p *Pending) Add(u Update, s BatchSink) {
	if p.buf == nil {
		p.buf = make([]Update, 0, pendingLen)
	}
	p.buf = append(p.buf, u)
	if len(p.buf) == pendingLen {
		p.Flush(s)
	}
}

// Flush empties the buffer into s.ProcessBatch, in arrival order. The buffer
// is emptied before that call, so the ProcessBatch's own Flush finds nothing;
// an empty buffer is not written, so concurrent flushes of one are safe.
func (p *Pending) Flush(s BatchSink) {
	if len(p.buf) == 0 {
		return
	}
	b := p.buf
	p.buf = p.buf[:0]
	s.ProcessBatch(b)
}

// Drop discards the buffered updates.
func (p *Pending) Drop() { p.buf = p.buf[:0] }

// Feed replays the stream into one or more sketches.
func (s Stream) Feed(sinks ...Sink) {
	for _, u := range s {
		for _, sk := range sinks {
			sk.Process(u)
		}
	}
}

// FeedBatch replays the stream in contiguous batches of the given size,
// using each sink's ProcessBatch fast path where available.
func (s Stream) FeedBatch(batchSize int, sinks ...Sink) {
	if batchSize < 1 {
		batchSize = 1
	}
	for lo := 0; lo < len(s); lo += batchSize {
		hi := min(lo+batchSize, len(s))
		for _, sk := range sinks {
			ProcessAll(sk, s[lo:hi])
		}
	}
}

// RandomTurnstile returns a general-update stream of the given length over
// [n] with deltas uniform in [-maxAbs, maxAbs] \ {0}.
func RandomTurnstile(n, length int, maxAbs int64, r *rand.Rand) Stream {
	s := make(Stream, length)
	for i := range s {
		d := r.Int64N(2*maxAbs) - maxAbs
		if d >= 0 {
			d++
		}
		s[i] = Update{Index: r.IntN(n), Delta: d}
	}
	return s
}

// ZipfSigned returns a stream setting coordinate i (0-based) to a value of
// magnitude round(scale / (i+1)^alpha) with a random sign, delivered as a
// random-order sequence of partial updates so that sketches see genuine
// intermediate states. Coordinates whose magnitude rounds to zero are left
// untouched.
func ZipfSigned(n int, alpha float64, scale int64, r *rand.Rand) Stream {
	var s Stream
	for i := 0; i < n; i++ {
		mag := int64(math.Round(float64(scale) / math.Pow(float64(i+1), alpha)))
		if mag == 0 {
			continue
		}
		if r.IntN(2) == 0 {
			mag = -mag
		}
		// Split into two partial updates to exercise cancellation paths.
		half := mag / 2
		if half != 0 {
			s = append(s, Update{i, half})
		}
		s = append(s, Update{i, mag - half})
	}
	r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
	return s
}

// SparseVector returns a stream whose final vector has exactly `support`
// nonzero coordinates, each with magnitude in [1, maxAbs], with insert/delete
// churn: every chosen coordinate receives a spurious +delta followed later by
// its cancellation, so the final support is exact but the stream is longer.
func SparseVector(n, support int, maxAbs int64, r *rand.Rand) Stream {
	if support > n {
		support = n
	}
	perm := r.Perm(n)
	var s Stream
	for _, i := range perm[:support] {
		v := r.Int64N(maxAbs) + 1
		if r.IntN(2) == 0 {
			v = -v
		}
		s = append(s, Update{i, v})
	}
	// churn on coordinates outside the support: +v then -v
	churn := support
	if churn > n-support {
		churn = n - support
	}
	for _, i := range perm[support : support+churn] {
		v := r.Int64N(maxAbs) + 1
		s = append(s, Update{i, v})
		s = append(s, Update{i, -v})
	}
	r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
	// Shuffling may put a cancellation before its insert; that is fine, the
	// final vector is unchanged and intermediate negatives are legal in the
	// general model.
	return s
}

// ZeroPlusMinusOne returns a stream whose final vector has coordinates in
// {-1, 0, +1}: nOnes coordinates at +1, nMinus at -1, rest zero (after
// churn). This is the hard instance family of Theorem 8.
func ZeroPlusMinusOne(n, nOnes, nMinus int, r *rand.Rand) Stream {
	perm := r.Perm(n)
	var s Stream
	idx := 0
	for i := 0; i < nOnes; i++ {
		s = append(s, Update{perm[idx], 1})
		idx++
	}
	for i := 0; i < nMinus; i++ {
		s = append(s, Update{perm[idx], -1})
		idx++
	}
	r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
	return s
}

// StrictTurnstile returns a stream with interleaved inserts and deletes whose
// every prefix... (the model only constrains the final vector) — the final
// vector is guaranteed entry-wise non-negative, as required by the strict
// turnstile model of §4.4.
func StrictTurnstile(n, length int, maxAbs int64, r *rand.Rand) Stream {
	final := make([]int64, n)
	var s Stream
	// First phase: random inserts.
	for len(s) < length/2 {
		i := r.IntN(n)
		d := r.Int64N(maxAbs) + 1
		final[i] += d
		s = append(s, Update{i, d})
	}
	// Second phase: deletes never exceeding the running positive mass.
	for len(s) < length {
		i := r.IntN(n)
		if final[i] <= 0 {
			d := r.Int64N(maxAbs) + 1
			final[i] += d
			s = append(s, Update{i, d})
			continue
		}
		d := r.Int64N(final[i]) + 1
		final[i] -= d
		s = append(s, Update{i, -d})
	}
	return s
}

// Items is a stream of letters from the alphabet [n] (the duplicates-problem
// input of §3), 0-based.
type Items []int

// DuplicateItems returns a stream of n+1 items over alphabet [n] (0-based) in
// which, by pigeonhole, at least one letter repeats. The stream is a uniform
// random function image: each of the n+1 positions holds an independent
// uniform letter unless forceDup >= 0, in which case the stream is a random
// permutation of [n] plus one extra copy of forceDup (exactly one duplicate,
// the adversarial extreme where the duplicate mass is smallest).
func DuplicateItems(n int, forceDup int, r *rand.Rand) Items {
	if forceDup >= 0 {
		items := make(Items, 0, n+1)
		for _, v := range r.Perm(n) {
			items = append(items, v)
		}
		items = append(items, forceDup)
		r.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		return items
	}
	items := make(Items, n+1)
	for i := range items {
		items[i] = r.IntN(n)
	}
	return items
}

// ShortItems returns a stream of n-s items over [n]. If withDup is false the
// items are distinct (no duplicate exists and Theorem 4's algorithm must say
// NO-DUPLICATE); otherwise exactly dups letters appear twice.
func ShortItems(n, s int, withDup bool, dups int, r *rand.Rand) Items {
	length := n - s
	perm := r.Perm(n)
	if !withDup {
		return Items(perm[:length])
	}
	if dups < 1 {
		dups = 1
	}
	if dups > length/2 {
		dups = length / 2
	}
	items := make(Items, 0, length)
	distinct := length - dups
	items = append(items, perm[:distinct]...)
	for i := 0; i < dups; i++ {
		items = append(items, perm[i])
	}
	r.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	return items
}

// LongItems returns a stream of n+s items over [n] (the regime at the end of
// §3 where reservoir sampling of O(n/s) items beats the L1 sampler once
// n/s < log n).
func LongItems(n, s int, r *rand.Rand) Items {
	items := make(Items, n+s)
	for i := range items {
		items[i] = r.IntN(n)
	}
	return items
}

// Updates converts an item stream to turnstile updates (+1 per occurrence).
func (it Items) Updates() Stream {
	s := make(Stream, len(it))
	for i, v := range it {
		s[i] = Update{Index: v, Delta: 1}
	}
	return s
}

// DecrementAll returns the (i, -1) for i in [n] prefix that the duplicates
// reduction of Theorem 3 feeds before the items.
func DecrementAll(n int) Stream {
	s := make(Stream, n)
	for i := range s {
		s[i] = Update{Index: i, Delta: -1}
	}
	return s
}

// IncrementAll returns the (i, +1) for i in [n] stream — the negation of
// DecrementAll, used to compensate a doubly counted pigeonhole prefix when
// merging duplicate finders.
func IncrementAll(n int) Stream {
	s := make(Stream, n)
	for i := range s {
		s[i] = Update{Index: i, Delta: 1}
	}
	return s
}
