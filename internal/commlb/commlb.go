// Package commlb makes the paper's §4 lower-bound machinery executable. A
// lower bound cannot be "run", but each reduction can: we implement the
// two-player protocols whose messages are the counter states of this
// repository's own sketches, verify end-to-end that the reductions solve
// augmented indexing / universal relation / duplicates exactly as the proofs
// claim, and measure message sizes against the Θ(log² n)-type bounds.
//
// Conventions. All protocols run in the joint-random-source (public-coin)
// model of Lemma 6: both players construct the same sketch object (shared
// randomness is free), Alice feeds her input and "sends" the linear counter
// state — the bytes the sketch's AppendState writes, counted by
// codec.PayloadBits — and Bob continues feeding his input into the same
// linear sketch, exploiting linearity, then queries.
package commlb

import (
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/distinct"
	"repro/internal/duplicates"
	"repro/internal/hash"
	"repro/internal/heavyhitters"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// Result is the outcome of one protocol run.
type Result struct {
	// OK reports whether the protocol produced an output (not whether it is
	// correct — the caller checks correctness against the instance).
	OK bool
	// Output is the protocol's answer: a differing index for UR, the digit
	// z_i for augmented indexing, a duplicate letter for Theorem 7.
	Output int
	// MessageBits is the total communication: sketch counter state plus
	// explicit bookkeeping words, summed over all rounds.
	MessageBits int64
	// Round2Bits is the second message's share of MessageBits for
	// multi-round protocols (zero for one-round protocols).
	Round2Bits int64
}

// ---------------------------------------------------------------------------
// Problem instances
// ---------------------------------------------------------------------------

// AIInstance is an augmented-indexing instance (Lemma 6): Alice holds
// Z ∈ [2^T]^S; Bob holds the index I (0-based) and Z[0..I-1], and must output
// Z[I].
type AIInstance struct {
	S, T int
	Z    []int
	I    int
}

// RandomAI draws a uniform instance.
func RandomAI(s, t int, r *rand.Rand) AIInstance {
	z := make([]int, s)
	for j := range z {
		z[j] = r.IntN(1 << t)
	}
	return AIInstance{S: s, T: t, Z: z, I: r.IntN(s)}
}

// URInstance is a universal-relation instance (§4.1): binary strings X ≠ Y;
// the receiver must output an index where they differ.
type URInstance struct {
	X, Y []int // entries in {0,1}
}

// RandomUR draws strings of length n at Hamming distance exactly d >= 1.
func RandomUR(n, d int, r *rand.Rand) URInstance {
	x := make([]int, n)
	y := make([]int, n)
	for i := range x {
		x[i] = r.IntN(2)
		y[i] = x[i]
	}
	for _, i := range r.Perm(n)[:d] {
		y[i] = 1 - x[i]
	}
	return URInstance{X: x, Y: y}
}

// Differs reports whether index i is a valid answer.
func (u URInstance) Differs(i int) bool {
	return i >= 0 && i < len(u.X) && u.X[i] != u.Y[i]
}

// RandomizeUR applies the Lemma 7 symmetrization: a shared uniform
// permutation π of the coordinates and a shared random bit-flip mask. The
// transformed instance has the same set of differing indices up to π, so a
// protocol solving it yields a uniformly distributed differing index of the
// original after mapping back through perm.
func RandomizeUR(u URInstance, r *rand.Rand) (transformed URInstance, perm []int) {
	n := len(u.X)
	perm = r.Perm(n)
	x := make([]int, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		flip := r.IntN(2)
		x[perm[i]] = u.X[i] ^ flip
		y[perm[i]] = u.Y[i] ^ flip
	}
	return URInstance{X: x, Y: y}, perm
}

// ---------------------------------------------------------------------------
// Proposition 5: one-round UR protocol via the L0 sampler
// ---------------------------------------------------------------------------

// OneRoundUR solves UR^n with a single message: Alice feeds x into a shared
// L0 sampler, ships the counter state, Bob subtracts y and samples a support
// element of x - y — an index where the strings differ (Proposition 5,
// R¹_δ(UR^n) = O(log² n log 1/δ)).
func OneRoundUR(inst URInstance, delta float64, r *rand.Rand) Result {
	n := len(inst.X)
	sampler := core.NewL0Sampler(core.L0Config{N: n, Delta: delta}, r)
	// Alice's phase.
	for i, v := range inst.X {
		if v != 0 {
			sampler.Process(stream.Update{Index: i, Delta: int64(v)})
		}
	}
	msg := codec.PayloadBits(sampler)
	// Bob's phase on the same linear sketch.
	for i, v := range inst.Y {
		if v != 0 {
			sampler.Process(stream.Update{Index: i, Delta: -int64(v)})
		}
	}
	out, ok := sampler.Sample()
	if !ok {
		return Result{OK: false, Output: -1, MessageBits: msg}
	}
	return Result{OK: true, Output: out.Index, MessageBits: msg}
}

// TwoRoundUR solves UR^n in two rounds (the R²_δ(UR^n) = O(log n log 1/δ)
// half of Proposition 5): the first round "finds such a set" — Alice ships a
// rough L0 estimator of x, Bob subtracts y and learns the Hamming distance
// d up to a constant factor — and the second round "concentrates on a single
// such set": Bob subsamples coordinates at rate Θ(s/d) so that 1..s
// differences survive, ships one s-sparse recoverer of his restricted y,
// and Alice (the last receiver) adds her restricted x and reads off a
// differing index exactly.
//
// Message sizes: round 1 is the estimator's fingerprints, round 2 is one
// sparse recoverer — the second round is O(log(1/δ)) words, realizing the
// one-log-factor drop from the one-round protocol. (Compressing round 1 to
// the full O(log n log log n) bits of [17] would need the loglog-bit cells
// of that estimator, which internal/distinct keeps as whole words.)
func TwoRoundUR(inst URInstance, delta float64, r *rand.Rand) Result {
	n := len(inst.X)
	est := distinct.New(n, 12, r)
	// Alice's phase: feed x, ship the fingerprints.
	for i, v := range inst.X {
		if v != 0 {
			est.Process(stream.Update{Index: i, Delta: int64(v)})
		}
	}
	msg1 := codec.PayloadBits(est)
	// Bob: subtract y on the shared linear sketch, estimate d = |x-y|_0.
	for i, v := range inst.Y {
		if v != 0 {
			est.Process(stream.Update{Index: i, Delta: -int64(v)})
		}
	}
	dhat := est.Estimate()
	if dhat == 0 {
		// Estimator says x = y; under the UR promise this is a (low
		// probability) estimator failure.
		return Result{OK: false, Output: -1, MessageBits: msg1}
	}
	s := int(math.Ceil(4 * math.Log2(1/delta)))
	if s < 4 {
		s = 4
	}
	q := 1.0
	if dhat > int64(s)/2 {
		q = float64(s) / (2 * float64(dhat))
	}
	// Shared randomness for the level: both players derive the same
	// membership hash and recoverer seeds from the joint source.
	member := hash.NewFlatFamily(1, 2, r)
	rec := sparse.New(n, s, r)
	for i, v := range inst.Y {
		if v != 0 && member.Float64(0, uint64(i)) < q {
			rec.Process(stream.Update{Index: i, Delta: -int64(v)})
		}
	}
	msg2 := codec.PayloadBits(rec) + 64 // counters + the level q
	// Alice: add her restricted x and decode.
	for i, v := range inst.X {
		if v != 0 && member.Float64(0, uint64(i)) < q {
			rec.Process(stream.Update{Index: i, Delta: int64(v)})
		}
	}
	recovered, ok := rec.Recover()
	if !ok || len(recovered) == 0 {
		return Result{OK: false, Output: -1, MessageBits: msg1 + msg2, Round2Bits: msg2}
	}
	support := make([]int, 0, len(recovered))
	for i := range recovered {
		support = append(support, i)
	}
	sort.Ints(support)
	out := support[r.IntN(len(support))]
	return Result{OK: true, Output: out, MessageBits: msg1 + msg2, Round2Bits: msg2}
}

// ---------------------------------------------------------------------------
// Theorem 6: augmented indexing reduces to UR
// ---------------------------------------------------------------------------

// aiURDimension returns n = (2^s - 1) * 2^t.
func aiURDimension(s, t int) int { return ((1 << s) - 1) << t }

// aiVectors builds Alice's u (all blocks) and Bob's v (blocks j < i, zeros
// after): block j in [0,s) consists of 2^{s-1-j} copies of e_{z_j} ∈ R^{2^t}.
func aiVectors(inst AIInstance) (u, v []int) {
	n := aiURDimension(inst.S, inst.T)
	u = make([]int, n)
	v = make([]int, n)
	off := 0
	for j := 0; j < inst.S; j++ {
		copies := 1 << (inst.S - 1 - j)
		for c := 0; c < copies; c++ {
			pos := off + c<<inst.T + inst.Z[j]
			u[pos] = 1
			if j < inst.I {
				v[pos] = 1
			}
		}
		off += copies << inst.T
	}
	return u, v
}

// decodeAIIndex maps a differing index of (u, v) back to the digit it
// reveals and the block j it belongs to.
func decodeAIIndex(inst AIInstance, idx int) (j, z int) {
	off := 0
	for j = 0; j < inst.S; j++ {
		blockLen := (1 << (inst.S - 1 - j)) << inst.T
		if idx < off+blockLen {
			return j, (idx - off) & ((1 << inst.T) - 1)
		}
		off += blockLen
	}
	return -1, -1
}

// AIviaUR runs the Theorem 6 reduction end-to-end: build u and v, solve UR
// with the one-round L0 protocol (uniform over differing indices by
// Lemma 7), decode the digit. Since block I holds more than half of the
// differing indices, the decoded digit equals Z[I] with probability > 1/2
// conditioned on the UR protocol succeeding.
func AIviaUR(inst AIInstance, delta float64, r *rand.Rand) Result {
	u, v := aiVectors(inst)
	raw := URInstance{X: u, Y: v}
	transformed, perm := RandomizeUR(raw, r)
	res := OneRoundUR(transformed, delta, r)
	if !res.OK {
		return Result{OK: false, Output: -1, MessageBits: res.MessageBits}
	}
	// Map the sampled index back through the permutation.
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	origIdx := inv[res.Output]
	_, z := decodeAIIndex(inst, origIdx)
	return Result{OK: true, Output: z, MessageBits: res.MessageBits}
}

// ---------------------------------------------------------------------------
// Theorem 7: UR reduces to finding duplicates
// ---------------------------------------------------------------------------

// URviaDuplicates runs the Theorem 7 reduction: Alice builds
// S = {2i-1+x_i}, Bob T = {2i-y_i} (1-based letters in [2n]), a shared
// random P ⊂ [2n] of size n renames letters to ranks in [n]; Alice feeds
// S∩P into the duplicates finder, Bob completes to n+1 letters from T∩P. A
// found duplicate a ∈ S∩T reveals i = ⌈a/2⌉ - 1 (0-based) with x_i ≠ y_i.
func URviaDuplicates(inst URInstance, delta float64, r *rand.Rand) Result {
	n := len(inst.X)
	// 1-based letters over [2n].
	sSet := make([]int, n)
	tSet := make([]int, n)
	for i := 0; i < n; i++ {
		sSet[i] = 2*(i+1) - 1 + inst.X[i]
		tSet[i] = 2*(i+1) - inst.Y[i]
	}
	// Shared random P ⊂ [2n], |P| = n, with rank renaming.
	perm := r.Perm(2 * n)
	rank := make(map[int]int, n) // letter (1-based) -> rank in [0,n)
	inP := make([]bool, 2*n+1)
	pSorted := append([]int(nil), perm[:n]...)
	for _, p := range pSorted {
		inP[p+1] = true
	}
	// ranks by increasing letter value
	cnt := 0
	for letter := 1; letter <= 2*n; letter++ {
		if inP[letter] {
			rank[letter] = cnt
			cnt++
		}
	}
	finder := duplicates.NewFinder(n, delta, r)
	fed := 0
	for _, a := range sSet {
		if inP[a] {
			finder.ProcessItem(rank[a])
			fed++
		}
	}
	msg := codec.PayloadBits(finder) + 64 // counter state + |S∩P|
	// Bob: feed n+1-fed elements of T∩P.
	need := n + 1 - fed
	var bobLetters []int
	for _, a := range tSet {
		if inP[a] {
			bobLetters = append(bobLetters, a)
		}
	}
	if need < 0 || len(bobLetters) < need {
		return Result{OK: false, Output: -1, MessageBits: msg}
	}
	for _, a := range bobLetters[:need] {
		finder.ProcessItem(rank[a])
	}
	res := finder.Find()
	if res.Kind != duplicates.Duplicate {
		return Result{OK: false, Output: -1, MessageBits: msg}
	}
	// Translate rank back to the letter, then to the index i.
	letter := -1
	for l := 1; l <= 2*n; l++ {
		if inP[l] && rank[l] == res.Index {
			letter = l
			break
		}
	}
	if letter < 0 {
		return Result{OK: false, Output: -1, MessageBits: msg}
	}
	i := (letter+1)/2 - 1 // 0-based index of the revealed coordinate
	return Result{OK: true, Output: i, MessageBits: msg}
}

// ---------------------------------------------------------------------------
// Theorem 9: augmented indexing reduces to heavy hitters (strict turnstile)
// ---------------------------------------------------------------------------

// AIviaHeavyHitters runs the Theorem 9 reduction with parameters p and φ:
// Alice encodes digit j at magnitude ⌈b^{s-j}⌉ with b = (1-(2φ)^p)^{-1/p};
// Bob deletes the prefix he knows and reads z_i off the smallest reported
// heavy hitter. The protocol errs only if the heavy-hitters sketch errs.
func AIviaHeavyHitters(inst AIInstance, p, phi float64, r *rand.Rand) Result {
	if phi >= 0.5 {
		panic("commlb: Theorem 9 reduction requires phi < 1/2")
	}
	b := math.Pow(1-math.Pow(2*phi, p), -1/p)
	nPrime := inst.S << inst.T
	hh := heavyhitters.New(heavyhitters.Config{P: p, Phi: phi, N: nPrime}, r)
	// Alice: x := u.
	for j := 0; j < inst.S; j++ {
		mag := int64(math.Ceil(math.Pow(b, float64(inst.S-1-j))))
		pos := j<<inst.T + inst.Z[j]
		hh.Process(stream.Update{Index: pos, Delta: mag})
	}
	msg := codec.PayloadBits(hh)
	// Bob: x := u - v (delete the digits he already knows).
	for j := 0; j < inst.I; j++ {
		mag := int64(math.Ceil(math.Pow(b, float64(inst.S-1-j))))
		pos := j<<inst.T + inst.Z[j]
		hh.Process(stream.Update{Index: pos, Delta: -mag})
	}
	set := hh.HeavyHitters()
	if len(set) == 0 {
		return Result{OK: false, Output: -1, MessageBits: msg}
	}
	min := set[0]
	for _, v := range set {
		if v < min {
			min = v
		}
	}
	// Bob reads z off the smallest index; when the sketch errs and that
	// index falls outside block I, the digit is simply wrong — the protocol
	// cannot detect it, exactly as in the proof ("the protocol errs only if
	// the streaming algorithm makes an error").
	return Result{OK: true, Output: min & ((1 << inst.T) - 1), MessageBits: msg}
}
