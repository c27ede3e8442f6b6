package countsketch

import (
	"math"
	"slices"

	"repro/internal/hash"
)

// decodeBlock is the number of consecutive keys decoded together: the key,
// bucket and sign views of one block (4 KiB each) stay in L1 across all rows.
const decodeBlock = 512

// Scratch holds the block buffers of the decode scan. The zero value is ready
// to use; buffers grow on first use and are reused afterwards. A Scratch may
// be shared by any number of sketches, but by one goroutine at a time.
type Scratch struct {
	keys []uint64
	bkt  []uint64
	sgn  []float64
	vals []float64 // block × rows, key-major: the row values of key t are vals[t*rows:(t+1)*rows]
	cnt  []uint64  // per key: how many row values are >= tau (low half), <= -tau (high half)
}

func (sc *Scratch) grow(block, rows int) {
	if len(sc.keys) < block {
		sc.keys = make([]uint64, block)
		sc.bkt = make([]uint64, block)
		sc.sgn = make([]float64, block)
		sc.cnt = make([]uint64, block)
	}
	if len(sc.vals) < block*rows {
		sc.vals = make([]float64, block*rows)
	}
}

// gather decodes the keys lo..lo+cnt-1 row-major through the fused kernel:
// sc.vals receives g_j(i)·y_{h_j(i),j} for every key and row, and sc.cnt counts,
// per key, the row values that are >= tau and those that are <= -tau.
func (s *Sketch) gather(sc *Scratch, lo, cnt int, tau float64) {
	keys, bkt, sgn, counts := sc.keys[:cnt], sc.bkt[:cnt], sc.sgn[:cnt], sc.cnt[:cnt]
	for t := range keys {
		keys[t] = uint64(lo + t)
	}
	clear(counts)
	vals := sc.vals[:cnt*s.rows]
	for j, row := range s.cells {
		hash.BucketSignBatch(s.h, s.g, j, s.buckets, keys, bkt, sgn)
		o := j
		for t, k := range bkt {
			v := sgn[t] * row[k]
			vals[o] = v
			o += s.rows
			// Negated compares, so that a NaN is counted rather than dropped.
			counts[t] += b2i(!(v < tau)) | b2i(!(v > -tau))<<32
		}
	}
}

// scan decodes [0, n) in blocks and calls visit(i, x*_i), in increasing i, for
// every key whose estimate can have magnitude >= *tau; visit may raise *tau,
// which takes effect from the next block. Keys are rejected before their
// median is taken by counting: a median of l row values that is >= tau needs
// at least ⌈l/2⌉ of them >= tau (the upper half of the sorted values, or for
// even l the upper middle one, which is no smaller than the mean of the two
// middle ones), and symmetrically for <= -tau. The rule is exact — it never
// rejects a key with |x*_i| >= tau — so a stale, smaller tau only lets more
// keys through to visit.
func (s *Sketch) scan(sc *Scratch, n int, tau *float64, visit func(i int, est float64)) {
	rows := s.rows
	need := uint64(rows+1) / 2
	sc.grow(min(n, decodeBlock), rows)
	for lo := 0; lo < n; lo += decodeBlock {
		cnt := min(decodeBlock, n-lo)
		s.gather(sc, lo, cnt, *tau)
		for t := 0; t < cnt; t++ {
			if c := sc.cnt[t]; c&(1<<32-1) >= need || c>>32 >= need {
				visit(lo+t, median(sc.vals[t*rows:(t+1)*rows]))
			}
		}
	}
}

// Decode returns the full estimate vector x* for coordinates [0, n) (empty
// for n <= 0); out[i] equals Estimate(i). Like Top and AtLeast it runs the
// blocked scan over scratch the sketch owns, so unlike Estimate these three
// must not be called concurrently on one sketch.
func (s *Sketch) Decode(n int) []float64 {
	out := make([]float64, max(n, 0))
	var all float64 // tau = 0 passes every key
	s.scan(&s.decode, n, &all, func(i int, est float64) { out[i] = est })
	return out
}

// TopEntry is one coordinate of a sparse approximation.
type TopEntry struct {
	Index    int
	Estimate float64
}

// ranksBefore is the order of Top: decreasing |x*_i|, then increasing index.
func ranksBefore(a, b TopEntry) bool {
	ea, eb := math.Abs(a.Estimate), math.Abs(b.Estimate)
	if ea != eb {
		return ea > eb
	}
	return a.Index < b.Index
}

// siftDown restores the heap whose root is the entry ranking last.
func siftDown(h []TopEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ranksBefore(h[c], h[c+1]) {
			c++
		}
		if !ranksBefore(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Top returns the entries of the best m-sparse approximation xhat of the
// decoded vector: the m coordinates of largest |x*_i| (all of them if fewer
// than m are nonzero; none for n <= 0 or m <= 0), sorted by decreasing
// magnitude, ties by increasing index.
func (s *Sketch) Top(n, m int) []TopEntry {
	return s.TopWith(&s.decode, n, m, nil)
}

// TopWith is Top over caller-owned scratch, appending to dst[:0]: a caller
// that queries many sketches in turn (the Lp sampler's repetitions) shares
// one Scratch and one result buffer between them.
//
// Once m entries are held, in a heap whose root ranks last, the scan's tau is
// the root's magnitude: a key below it cannot enter, and one equal to it is
// examined, since it enters when its index is the smaller.
func (s *Sketch) TopWith(sc *Scratch, n, m int, dst []TopEntry) []TopEntry {
	top := dst[:0]
	if m <= 0 {
		return top
	}
	var tau float64
	s.scan(sc, n, &tau, func(i int, est float64) {
		e := TopEntry{i, est}
		switch {
		case est == 0:
		case len(top) < m:
			top = append(top, e)
			if len(top) == m {
				for r := m/2 - 1; r >= 0; r-- {
					siftDown(top, r)
				}
				tau = math.Abs(top[0].Estimate)
			}
		case ranksBefore(e, top[0]):
			top[0] = e
			siftDown(top, 0)
			tau = math.Abs(top[0].Estimate)
		}
	})
	slices.SortFunc(top, func(a, b TopEntry) int {
		switch {
		case ranksBefore(a, b):
			return -1
		case ranksBefore(b, a):
			return 1
		}
		return 0
	})
	return top
}

// AtLeast returns, in increasing order, every i in [0, n) with |x*_i| >= tau:
// the fixed-threshold form of the scan behind Top.
func (s *Sketch) AtLeast(n int, tau float64) []int {
	var out []int
	s.scan(&s.decode, n, &tau, func(i int, est float64) {
		if math.Abs(est) >= tau {
			out = append(out, i)
		}
	})
	return out
}

// b2i is 1 for true; the compiler lowers it to a flag-set, not a branch.
func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
