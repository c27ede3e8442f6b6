package sparse

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// add applies x_i += delta through Process.
func (rc *Recoverer) add(i int, delta int64) { rc.Process(stream.Update{Index: i, Delta: delta}) }

// TestPropertyLinearityOfMeasurements: feeding A then B equals feeding the
// coordinate-wise sum; recovery sees only the net vector.
func TestPropertyLinearityOfMeasurements(t *testing.T) {
	f := func(seed uint64, raw []int16) bool {
		const n = 64
		mk := func() *Recoverer { return New(n, 6, rand.New(rand.NewPCG(seed, 5))) }
		split, direct := mk(), mk()
		net := map[int]int64{}
		for k, v := range raw {
			if v == 0 {
				continue
			}
			i := k % n
			// split: two half updates; direct: one.
			split.add(i, int64(v)/2)
			split.add(i, int64(v)-int64(v)/2)
			direct.add(i, int64(v))
			net[i] += int64(v)
		}
		for i, v := range net {
			if v == 0 {
				delete(net, i)
			}
		}
		recS, okS := split.Recover()
		recD, okD := direct.Recover()
		if okS != okD {
			return false
		}
		if !okS {
			return true // both DENSE: consistent
		}
		if len(recS) != len(recD) {
			return false
		}
		for i, v := range recS {
			if recD[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRecoverInverseOfSparseStreams: recovery is a left inverse of
// measurement on every <= s-sparse integer vector.
func TestPropertyRecoverInverseOfSparseStreams(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rand.New(rand.NewPCG(seed, seed|1))
		n := 32 + rr.IntN(400)
		s := 1 + rr.IntN(8)
		e := rr.IntN(s + 1)
		rc := New(n, s, rr)
		st := stream.SparseVector(n, e, 1<<30, rr)
		truth := st.Apply(n)
		st.Feed(rc)
		rec, ok := rc.Recover()
		if !ok || len(rec) != truth.L0() {
			return false
		}
		for i, v := range rec {
			if truth.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTransposedBatchMatchesScalar: ProcessBatch's syndrome fold must
// leave bit-identical state (all syndromes AND the fingerprint, via the
// serialized state) to one-at-a-time Process calls — batches of one, which
// take the scalar two-chain tail — for every batch length and every
// index/delta mix, including negative deltas and repeats. Random batches come
// from quick.Check; a sweep then feeds batch lengths on both sides of the
// kernel's cut-over (6), its 32-update group and ProcessBatch's short and
// 64-update blocks, whole and split at those lengths, at s = 10 (the L0
// sampler's 20 syndromes) and s = 17 (34 syndromes, past the IFMA kernel's
// 24, where the scalar groups take over).
func TestPropertyTransposedBatchMatchesScalar(t *testing.T) {
	matches := func(seed uint64, n, s int, batch []stream.Update, step int) bool {
		mk := func() *Recoverer { return New(n, s, rand.New(rand.NewPCG(seed, 23))) }
		batched, scalar := mk(), mk()
		for lo := 0; lo < len(batch); lo += step {
			batched.ProcessBatch(batch[lo:min(lo+step, len(batch))])
		}
		for _, u := range batch {
			scalar.Process(u)
		}
		return bytes.Equal(stateBytes(batched), stateBytes(scalar))
	}
	f := func(seed uint64, raw []int16, sRaw uint8) bool {
		n := 64 + int(seed%1000)
		var batch []stream.Update
		for k, v := range raw {
			if v != 0 {
				batch = append(batch, stream.Update{Index: k % n, Delta: int64(v)})
			}
		}
		return matches(seed, n, 1+int(sRaw)%12, batch, max(len(batch), 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	r := rand.New(rand.NewPCG(29, 31))
	for _, m := range []int{1, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 700} {
		batch := make([]stream.Update, m)
		for k := range batch {
			batch[k] = stream.Update{Index: r.IntN(1 << 16), Delta: r.Int64N(1<<40) - 1<<39}
		}
		for _, s := range []int{10, 17} {
			for _, step := range []int{m, 5, 6, 8, 9, 32, 33, 65, 129} {
				if !matches(uint64(m), 1<<16, s, batch, step) {
					t.Fatalf("s=%d: %d updates in batches of %d differ from Process one at a time", s, m, step)
				}
			}
		}
	}
}

// TestPropertyExportImportIdentity: restoring a serialized state reproduces
// identical recovery on a fresh same-seed instance.
func TestPropertyExportImportIdentity(t *testing.T) {
	f := func(seed uint64, raw []int16) bool {
		const n = 64
		mk := func() *Recoverer { return New(n, 5, rand.New(rand.NewPCG(seed, 77))) }
		src := mk()
		for k, v := range raw {
			if v != 0 {
				src.add(k%n, int64(v))
			}
		}
		dst := mk()
		if err := restoreState(dst, stateBytes(src)); err != nil {
			return false
		}
		recA, okA := src.Recover()
		recB, okB := dst.Recover()
		if okA != okB || len(recA) != len(recB) {
			return false
		}
		for i, v := range recA {
			if recB[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAliasResistance: an adversary trying to alias a dense vector
// into a sparse-looking one is caught: we build a vector as (s-sparse
// candidate) + (random dense perturbation) and recovery must never return a
// wrong vector — either the true net vector (if it happens to be <= s
// sparse) or DENSE.
func TestPropertyAliasResistance(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rand.New(rand.NewPCG(seed, 0xFEED))
		const n = 128
		const s = 4
		rc := New(n, s, rr)
		truth := make(map[int]int64)
		// sparse part
		for j := 0; j < s; j++ {
			i := rr.IntN(n)
			d := rr.Int64N(100) + 1
			rc.add(i, d)
			truth[i] += d
		}
		// dense perturbation
		spread := 2*s + rr.IntN(20)
		for j := 0; j < spread; j++ {
			i := rr.IntN(n)
			d := rr.Int64N(9) - 4
			if d == 0 {
				d = 5
			}
			rc.add(i, d)
			truth[i] += d
		}
		for i, v := range truth {
			if v == 0 {
				delete(truth, i)
			}
		}
		rec, ok := rc.Recover()
		if !ok {
			return len(truth) > s || len(truth) == 0 || true // DENSE is always safe
		}
		// If it answered, the answer must be exactly the net vector.
		if len(rec) != len(truth) {
			return false
		}
		for i, v := range truth {
			if rec[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
