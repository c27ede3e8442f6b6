package experiments

import (
	"math"

	"repro/internal/codec"
	"repro/internal/commlb"
	"repro/internal/heavyhitters"
	"repro/internal/stream"
)

// E7LowerBoundPipeline makes the §4 reductions executable: the Theorem 6
// (augmented indexing → universal relation) and Theorem 7 (UR → duplicates)
// pipelines must actually solve their source problems with the claimed
// probabilities while shipping only Θ(log² n)-bit messages, and Theorem 8's
// hard instances (0/±1 vectors) are exactly what the duplicates reduction
// produces.
func E7LowerBoundPipeline(cfg Config) Table {
	r := cfg.rng(0xE7)
	t := Table{
		ID:     "E7",
		Title:  "Lower-bound reductions, run end-to-end (Theorems 6, 7, 8; Prop. 5)",
		Claim:  "Ω(log² n) for sampling 0/±1 vectors & duplicates; reductions preserve correctness",
		Header: []string{"pipeline", "params", "trials", "answered", "correct", "msg(bits)", "msg/log²n"},
	}

	// Theorem 6: AI via one-round UR (which itself is Prop. 5's L0 message).
	for _, s := range []int{4, 5, 6} {
		trials := cfg.trials(50)
		answered, correct := 0, 0
		var msg int64
		n := ((1 << s) - 1) << s // t = s
		for trial := 0; trial < trials; trial++ {
			inst := commlb.RandomAI(s, s, r)
			res := commlb.AIviaUR(inst, 0.1, r)
			msg = res.MessageBits
			if !res.OK {
				continue
			}
			answered++
			if res.Output == inst.Z[inst.I] {
				correct++
			}
		}
		l := log2(n)
		t.Rows = append(t.Rows, []string{
			"AI→UR→L0msg", f("s=t=%d (n=%d)", s, n), f("%d", trials), pct(answered, trials),
			pct(correct, answered), f("%d", msg), f("%.0f", float64(msg)/(l*l)),
		})
	}

	// Theorem 7: UR via duplicates (messages are the Finder's counters).
	for _, n := range []int{64, 128} {
		trials := cfg.trials(40)
		answered, correct := 0, 0
		var msg int64
		for trial := 0; trial < trials; trial++ {
			inst := commlb.RandomUR(n, 1+r.IntN(n/2), r)
			res := commlb.URviaDuplicates(inst, 0.1, r)
			msg = res.MessageBits
			if !res.OK {
				continue
			}
			answered++
			if inst.Differs(res.Output) {
				correct++
			}
		}
		l := log2(n)
		t.Rows = append(t.Rows, []string{
			"UR→duplicates", f("n=%d", n), f("%d", trials), pct(answered, trials),
			pct(correct, answered), f("%d", msg), f("%.0f", float64(msg)/(l*l)),
		})
	}

	t.Notes = append(t.Notes,
		"AI correctness target: >1/2 of answers (block i holds a majority of differing indices)",
		"UR→duplicates answers at a constant rate (P[|S∩P|+|T∩P|≥n+1] > 1/8) and must never mis-answer",
		"msg/log²n roughly flat across n ⇒ the matching upper bounds are tight, as Theorem 8 proves")
	return t
}

// E8HeavyHitters reproduces §4.4: the count-sketch heavy hitters structure
// produces valid sets in Θ(φ^{-p} log² n) bits, and the Theorem 9 protocol
// decodes augmented indexing through it in the strict turnstile model.
func E8HeavyHitters(cfg Config) Table {
	r := cfg.rng(0xE8)
	t := Table{
		ID:     "E8",
		Title:  "Lp heavy hitters: validity and space (§4.4, Theorem 9)",
		Claim:  "count-sketch gives O(φ^{-p} log² n) bits for all p∈(0,2]; Ω(φ^{-p} log² n) necessary",
		Header: []string{"mode", "p", "phi", "trials", "valid/correct", "space(bits)", "bits/(φ^{-p}log²n)"},
	}
	const n = 1024
	for _, p := range []float64{0.5, 1, 2} {
		for _, phi := range []float64{0.3, 0.15} {
			trials := cfg.trials(15)
			valid := 0
			var space int64
			for trial := 0; trial < trials; trial++ {
				st := stream.StrictTurnstile(n, 4000, 10, r)
				st = append(st, stream.Update{Index: r.IntN(n), Delta: 60000})
				truth := st.Apply(n)
				hh := heavyhitters.New(heavyhitters.Config{P: p, Phi: phi, N: n}, r)
				st.Feed(hh)
				if trial == 0 {
					space = codec.PayloadBits(hh)
				}
				if ok, _, _ := heavyhitters.Valid(truth, p, phi, hh.HeavyHitters()); ok {
					valid++
				}
			}
			l := log2(n)
			norm := math.Pow(phi, -p) * l * l
			t.Rows = append(t.Rows, []string{
				"validity", f("%.1f", p), f("%.2f", phi), f("%d", trials), pct(valid, trials),
				f("%d", space), f("%.0f", float64(space)/norm),
			})
		}
	}
	// Theorem 9 protocol.
	for _, s := range []int{5, 7} {
		trials := cfg.trials(30)
		correct := 0
		var msg int64
		for trial := 0; trial < trials; trial++ {
			inst := commlb.RandomAI(s, 4, r)
			res := commlb.AIviaHeavyHitters(inst, 1, 0.25, r)
			msg = res.MessageBits
			if res.OK && res.Output == inst.Z[inst.I] {
				correct++
			}
		}
		t.Rows = append(t.Rows, []string{
			"AI→HH (Thm 9)", "1.0", "0.25", f("%d", trials), pct(correct, trials),
			f("%d", msg), "-",
		})
	}
	t.Notes = append(t.Notes,
		"valid = contains every |x_i| ≥ φ‖x‖_p, excludes every |x_i| ≤ (φ/2)‖x‖_p",
		"bits/(φ^{-p}log²n) roughly constant across p and φ ⇒ upper bound matches Theorem 9's lower bound")
	return t
}
