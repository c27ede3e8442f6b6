package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/stream"
)

// The generators below are the benchmark's own: the load must not change
// when internal/stream changes, so nothing here imports its generators, and
// gen_test.go pins a digest of each workload's first updates.

// rng derives one PCG stream per (seed, purpose), so that workloads and the
// parts of one workload draw independent, repeatable randomness.
func rng(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// turnstile is a general-update stream: uniform coordinates, deltas uniform
// in [-100, 100] \ {0}.
func turnstile(n, length int, r *rand.Rand) []stream.Update {
	s := make([]stream.Update, length)
	for i := range s {
		d := r.Int64N(200) - 100
		if d >= 0 {
			d++
		}
		s[i] = stream.Update{Index: r.IntN(n), Delta: d}
	}
	return s
}

// signedZipf is a stream of partial updates whose coordinates follow a Zipf
// law of exponent alpha over a seed-chosen relabelling of [n]; each
// coordinate has a fixed sign, so the final vector is heavy-tailed and its
// entries grow throughout the stream.
func signedZipf(n int, alpha float64, length int, r *rand.Rand) []stream.Update {
	label := r.Perm(n)
	sign := make([]int64, n)
	for i := range sign {
		sign[i] = 2*r.Int64N(2) - 1
	}
	z := rand.NewZipf(r, alpha, 1, uint64(n-1))
	s := make([]stream.Update, length)
	for i := range s {
		c := label[z.Uint64()]
		s[i] = stream.Update{Index: c, Delta: sign[c] * (1 + r.Int64N(4))}
	}
	return s
}

// permutationWithDuplicate is n+1 letters over [n]: every letter once and
// one seed-chosen letter twice, in random order. It is the case of Theorem 3
// in which the duplicate carries the least mass.
func permutationWithDuplicate(n int, r *rand.Rand) []int {
	items := append(r.Perm(n), r.IntN(n))
	r.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	return items
}

// uniformLetters is n+1 independent uniform letters over [n], so about a
// third of the alphabet repeats.
func uniformLetters(n int, r *rand.Rand) []int {
	items := make([]int, n+1)
	for i := range items {
		items[i] = r.IntN(n)
	}
	return items
}

// lettersAsUpdates is the letters-as-(+1)-updates view of an item stream.
func lettersAsUpdates(items []int) []stream.Update {
	s := make([]stream.Update, len(items))
	for i, it := range items {
		s[i] = stream.Update{Index: it, Delta: 1}
	}
	return s
}

// frames cuts a stream into consecutive ingest calls of at most size updates.
func frames(s []stream.Update, size int) [][]stream.Update {
	out := make([][]stream.Update, 0, (len(s)+size-1)/size)
	for lo := 0; lo < len(s); lo += size {
		out = append(out, s[lo:min(lo+size, len(s))])
	}
	return out
}

// digest is the FNV-1a of the first limit updates of the frames, 16
// little-endian bytes per update.
func digest(fs [][]stream.Update, limit int) uint64 {
	h := fnv.New64a()
	var rec [16]byte
	for _, f := range fs {
		for _, u := range f {
			if limit == 0 {
				return h.Sum64()
			}
			binary.LittleEndian.PutUint64(rec[:8], uint64(u.Index))
			binary.LittleEndian.PutUint64(rec[8:], uint64(u.Delta))
			h.Write(rec[:])
			limit--
		}
	}
	return h.Sum64()
}

// apply adds the frames to the dense vector x, times times.
func apply(x []int64, fs [][]stream.Update, times int64) {
	for _, f := range fs {
		for _, u := range f {
			x[u.Index] += u.Delta * times
		}
	}
}

// asUpdates turns a dense vector into one update per nonzero coordinate: by
// linearity a sketch fed these holds the same state as one fed the stream.
func asUpdates(x []int64) []stream.Update {
	var s []stream.Update
	for i, v := range x {
		if v != 0 {
			s = append(s, stream.Update{Index: i, Delta: v})
		}
	}
	return s
}
