package sparse

import (
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

// TestPropertyTransposedBatchMatchesScalar: the register-blocked column-major
// ProcessBatch kernel must leave bit-identical state (all syndromes AND the
// fingerprint, via the serialized state) to one-at-a-time Process calls —
// batches of one, which take the two-chain fold — for every batch length,
// exercising both the 4-wide groups and the two-chain tail,
// and every index/delta mix, including negative deltas and repeats.
func TestPropertyTransposedBatchMatchesScalar(t *testing.T) {
	f := func(seed uint64, raw []int16, sRaw uint8) bool {
		n := 64 + int(seed%1000)
		s := 1 + int(sRaw)%12
		mk := func() *Recoverer { return New(n, s, rand.New(rand.NewPCG(seed, 23))) }
		batched, scalar := mk(), mk()
		var batch []stream.Update
		for k, v := range raw {
			if v != 0 {
				batch = append(batch, stream.Update{Index: k % n, Delta: int64(v)})
			}
		}
		batched.ProcessBatch(batch)
		for _, u := range batch {
			scalar.Process(u)
		}
		a, b := stateBytes(batched), stateBytes(scalar)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
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
