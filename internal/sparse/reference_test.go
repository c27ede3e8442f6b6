package sparse

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/stream"
)

// referenceRecover is a verbatim copy of the pre-PR-4 decoder — full-scan
// Horner Chien search, Gaussian value solve, per-entry Pow verification —
// kept as the oracle pinning the rebuilt pipeline bit-identical on every
// corpus vector.
func referenceRecover(rc *Recoverer) (map[int]int64, bool) {
	if rc.IsZero() {
		return map[int]int64{}, true
	}
	loc := field.BerlekampMassey(rc.synd)
	e := loc.Degree()
	if e < 1 || e > rc.s {
		return nil, false
	}
	rev := loc.Reverse()
	positions := make([]int, 0, e)
	for i := 0; i < rc.n; i++ {
		if rev.Eval(field.New(uint64(i)+1)) == 0 {
			positions = append(positions, i)
			if len(positions) > e {
				break
			}
		}
	}
	if len(positions) != e {
		return nil, false
	}
	mat := make([][]field.Elem, e)
	y := make([]field.Elem, e)
	for j := 0; j < e; j++ {
		mat[j] = make([]field.Elem, e)
		for t, pos := range positions {
			mat[j][t] = field.Pow(field.New(uint64(pos)+1), uint64(j))
		}
		y[j] = rc.synd[j]
	}
	vals, ok := field.SolveLinear(mat, y)
	if !ok {
		return nil, false
	}
	for j := 0; j < len(rc.synd); j++ {
		var sj field.Elem
		for t, pos := range positions {
			sj = field.Add(sj, field.Mul(vals[t], field.Pow(field.New(uint64(pos)+1), uint64(j))))
		}
		if sj != rc.synd[j] {
			return nil, false
		}
	}
	var f field.Elem
	for t, pos := range positions {
		f = field.Add(f, field.Mul(vals[t], rc.rhoPow.Pow(uint64(pos))))
	}
	if f != rc.fp {
		return nil, false
	}
	out := make(map[int]int64, e)
	for t, pos := range positions {
		v := vals[t].ToInt64()
		if v == 0 {
			return nil, false
		}
		out[pos] = v
	}
	return out, true
}

func sameDecode(a map[int]int64, aok bool, b map[int]int64, bok bool) bool {
	if aok != bok {
		return false
	}
	if !aok {
		return true
	}
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// TestPropertyRecoverMatchesReferenceDecoder: the rebuilt decode pipeline
// (root finding, structured Vandermonde solve, shared-power-chain
// verification, memoization) must agree with the
// pre-PR-4 decoder — verdict and every recovered entry — across sparse,
// exactly-at-budget, over-budget and dense vectors.
func TestPropertyRecoverMatchesReferenceDecoder(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rand.New(rand.NewPCG(seed, 0x5EC0))
		n := 32 + rr.IntN(800)
		s := 1 + rr.IntN(10)
		// Sweep the sparsity through and past the budget: e in [0, 3s].
		e := rr.IntN(3*s + 1)
		rc := New(n, s, rr)
		stream.SparseVector(n, e, 1<<20, rr).Feed(rc)
		got, gok := rc.Recover()
		want, wok := referenceRecover(rc)
		if !sameDecode(got, gok, want, wok) {
			t.Logf("n=%d s=%d e=%d: new (%v,%v) vs reference (%v,%v)", n, s, e, got, gok, want, wok)
			return false
		}
		// The memoized second query must return the identical result.
		again, aok := rc.Recover()
		return sameDecode(got, gok, again, aok)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestRecoverMemoization: repeated queries on an unchanged sketch reuse the
// cached decode (zero allocations); any mutation — Add, ProcessBatch, Merge,
// RestoreState — invalidates it and the next query reflects the new state.
func TestRecoverMemoization(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	rc := New(256, 4, r)
	rc.add(10, 5)
	rc.add(20, -3)
	rec, ok := rc.Recover()
	if !ok || len(rec) != 2 || rec[10] != 5 || rec[20] != -3 {
		t.Fatalf("decode failed: %v %v", rec, ok)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, ok := rc.Recover(); !ok {
			t.Error("cached decode lost")
		}
	}); allocs != 0 {
		t.Errorf("cached Recover allocates %v times per call, want 0", allocs)
	}
	// Add invalidates: the next decode must see the new coordinate.
	rc.add(30, 7)
	rec, ok = rc.Recover()
	if !ok || len(rec) != 3 || rec[30] != 7 {
		t.Fatalf("post-Add decode stale: %v %v", rec, ok)
	}
	// Removing a coordinate via a canceling update also re-decodes.
	rc.add(10, -5)
	rec, ok = rc.Recover()
	if !ok || len(rec) != 2 || rec[10] != 0 {
		t.Fatalf("post-cancel decode stale: %v %v", rec, ok)
	}
	// ProcessBatch invalidates.
	rc.ProcessBatch([]stream.Update{{Index: 40, Delta: 1}})
	if rec, ok = rc.Recover(); !ok || rec[40] != 1 {
		t.Fatalf("post-batch decode stale: %v %v", rec, ok)
	}
	// Merge invalidates the receiver.
	r2 := rand.New(rand.NewPCG(7, 8))
	other := New(256, 4, r2)
	other.add(50, 2)
	other.Recover()
	if err := rc.Merge(other); err != nil {
		t.Fatal(err)
	}
	if rec, ok = rc.Recover(); !ok || rec[50] != 2 {
		t.Fatalf("post-merge decode stale: %v %v", rec, ok)
	}
	// RestoreState invalidates: a same-seed replica restoring this state must
	// decode it, not its own stale cache.
	r3 := rand.New(rand.NewPCG(7, 8))
	replica := New(256, 4, r3)
	replica.add(99, 1)
	if rec, ok = replica.Recover(); !ok || rec[99] != 1 {
		t.Fatal("replica decode failed")
	}
	if err := restoreState(replica, stateBytes(rc)); err != nil {
		t.Fatal(err)
	}
	if rec, ok = replica.Recover(); !ok || rec[99] != 0 || rec[50] != 2 {
		t.Fatalf("post-restore decode stale: %v %v", rec, ok)
	}
}

// TestDecodeMatchesReferenceScan: on 10 000 random states — sparse within
// the budget, just over it, dense, and sparse vectors with one syndrome then
// corrupted (a locator that does not split) or one coordinate past n (one
// that splits with a root outside [1, n]) — over dimensions from n = 1 up,
// the decode returns the verdict and the map of referenceRecover's full
// Horner scan of [n].
func TestDecodeMatchesReferenceScan(t *testing.T) {
	r := rand.New(rand.NewPCG(91, 92))
	states := 10_000
	if testing.Short() {
		states = 1_000
	}
	sparse, dense := 0, 0
	for trial := 0; trial < states; trial++ {
		s := 1 + r.IntN(10)
		n := 1 + r.IntN(64*s*s+2048)
		rc := New(n, s, r)
		var e int
		switch trial % 4 {
		case 0: // within the budget
			e = r.IntN(s + 1)
		case 1: // just over it
			e = s + 1 + r.IntN(2)
		case 2: // dense
			e = 3*s + r.IntN(200)
		case 3: // sparse, then one measurement off or one coordinate past n
			e = 1 + r.IntN(s)
		}
		stream.SparseVector(n, e, 1<<20, r).Feed(rc)
		if trial%8 == 3 {
			j := r.IntN(len(rc.synd))
			rc.synd[j] = field.Add(rc.synd[j], field.New(r.Uint64()|1))
		} else if trial%8 == 7 {
			rc.add(n+r.IntN(1<<20), 1+int64(r.IntN(1000)))
		}
		want, wok := referenceRecover(rc)
		if wok {
			sparse++
		} else {
			dense++
		}
		got, gok := rc.Recover()
		if !sameDecode(got, gok, want, wok) {
			t.Fatalf("trial %d (n=%d s=%d e=%d): decode (%v,%v), reference (%v,%v)", trial, n, s, e, got, gok, want, wok)
		}
	}
	if sparse < states/5 || dense < states/5 {
		t.Fatalf("corpus is lopsided: %d sparse, %d dense verdicts", sparse, dense)
	}
}
