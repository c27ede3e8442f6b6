package experiments

import (
	"math"

	"repro/internal/codec"
	"repro/internal/commlb"
	"repro/internal/countsketch"
	"repro/internal/norm"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// E9CountSketchTail reproduces Lemma 1: the count-sketch pointwise error is
// bounded by Err^m_2(x)/√m w.h.p., and the best m-sparse approximation of
// the output has tail within a factor 10 of Err^m_2(x).
func E9CountSketchTail(cfg Config) Table {
	r := cfg.rng(0xE9)
	const n = 2048
	t := Table{
		ID:     "E9",
		Title:  "Count-sketch tail guarantee (Lemma 1)",
		Claim:  "|x_i - x*_i| ≤ Err^m_2(x)/√m for all i w.h.p.; Err ≤ ‖x-x̂‖₂ ≤ 10·Err",
		Header: []string{"m", "trials", "pointwise ok", "worst err·√m/Err", "tail ratio ‖x-x̂‖/Err", "space(bits)"},
	}
	st := stream.ZipfSigned(n, 0.9, 1_000_000, r)
	truth := st.Apply(n)
	for _, m := range []int{4, 16, 64} {
		trials := cfg.trials(10)
		rows := int(log2(n)) + 4
		errM2 := truth.ErrM2(m)
		okCount := 0
		worst := 0.0
		var tailRatio float64
		var space int64
		for trial := 0; trial < trials; trial++ {
			cs := countsketch.New(m, rows, r)
			st.Feed(cs)
			if trial == 0 {
				space = codec.PayloadBits(cs)
			}
			worstTrial := 0.0
			for i := 0; i < n; i++ {
				d := math.Abs(float64(truth.Get(i)) - cs.Estimate(uint64(i)))
				if d > worstTrial {
					worstTrial = d
				}
			}
			ratio := worstTrial * math.Sqrt(float64(m)) / errM2
			if ratio <= 1 {
				okCount++
			}
			if ratio > worst {
				worst = ratio
			}
			// tail of best m-sparse approximation of the output
			top := cs.Top(n, m)
			xhat := make([]float64, n)
			for _, e := range top {
				xhat[e.Index] = e.Estimate
			}
			var dist float64
			for i := 0; i < n; i++ {
				d := float64(truth.Get(i)) - xhat[i]
				dist += d * d
			}
			tailRatio = math.Sqrt(dist) / errM2
		}
		t.Rows = append(t.Rows, []string{
			f("%d", m), f("%d", trials), pct(okCount, trials), f("%.2f", worst),
			f("%.2f", tailRatio), f("%d", space),
		})
	}
	t.Notes = append(t.Notes,
		"worst err·√m/Err ≤ 1 certifies the Lemma 1 bound; tail ratio must sit in [1,10]")
	return t
}

// E10NormEstimation reproduces Lemma 2: a factor-2 Lp norm estimate
// (‖x‖_p ≤ r ≤ 2‖x‖_p) w.h.p. from O(log n) counters, for all p in (0,2].
func E10NormEstimation(cfg Config) Table {
	r := cfg.rng(0xEA)
	const n = 512
	t := Table{
		ID:     "E10",
		Title:  "Lp norm estimation, factor 2 w.h.p. (Lemma 2)",
		Claim:  "for p∈(0,2]: r computed from O(log n) counters with ‖x‖_p ≤ r ≤ 2‖x‖_p w.h.p.",
		Header: []string{"p", "estimator", "counters", "trials", "in [‖x‖,2‖x‖]", "median r/‖x‖"},
	}
	st := stream.ZipfSigned(n, 0.8, 10000, r)
	truth := st.Apply(n)
	cases := []struct {
		p        float64
		counters int
	}{
		{0.5, 200}, {1, 100}, {1.5, 100}, {2, 0},
	}
	for _, c := range cases {
		trials := cfg.trials(40)
		lp := truth.NormP(c.p)
		hits := 0
		var ratios []float64
		name := "p-stable"
		counters := c.counters
		for trial := 0; trial < trials; trial++ {
			var est norm.Estimator
			if c.p == 2 {
				est = norm.NewAMS(11, 6, r)
				name = "AMS"
				counters = 66
			} else {
				est = norm.NewStable(c.p, c.counters, r)
			}
			st.FeedBatch(2048, est)
			rEst := est.UpperEstimate(nil)
			if rEst >= lp && rEst <= 2*lp {
				hits++
			}
			ratios = append(ratios, rEst/lp)
		}
		t.Rows = append(t.Rows, []string{
			f("%.1f", c.p), name, f("%d", counters), f("%d", trials),
			pct(hits, trials), f("%.2f", quantile(ratios, 0.5)),
		})
	}
	t.Notes = append(t.Notes,
		"UpperEstimate = 4/3 × median estimator, centring the factor-2 window",
		"smaller p needs more counters: heavier-tailed stable laws disperse the sample median")
	return t
}

// E11URAndSparse reproduces Proposition 5 (one-round UR in O(log² n log 1/δ)
// bits) and Lemma 5 (exact s-sparse recovery, DENSE detection w.h.p.).
func E11URAndSparse(cfg Config) Table {
	r := cfg.rng(0xEB)
	t := Table{
		ID:     "E11",
		Title:  "Universal relation protocol (Prop. 5) and sparse recovery (Lemma 5)",
		Claim:  "R¹_δ(UR^n) = O(log² n log 1/δ); s-sparse recovery exact w.p. 1, DENSE w.h.p.",
		Header: []string{"component", "params", "trials", "success", "wrong", "msg/space(bits)"},
	}
	// One-round UR across n and Hamming distance.
	for _, n := range []int{256, 4096} {
		for _, d := range []int{1, n / 4} {
			trials := cfg.trials(25)
			okCount, wrong := 0, 0
			var msg int64
			for trial := 0; trial < trials; trial++ {
				inst := commlb.RandomUR(n, d, r)
				res := commlb.OneRoundUR(inst, 0.1, r)
				msg = res.MessageBits
				if !res.OK {
					continue
				}
				okCount++
				if !inst.Differs(res.Output) {
					wrong++
				}
			}
			t.Rows = append(t.Rows, []string{
				"UR 1-round", f("n=%d d=%d", n, d), f("%d", trials), pct(okCount, trials),
				f("%d", wrong), f("%d", msg),
			})
		}
	}
	// Two-round UR (Prop 5's second claim): total message drops, and the
	// second round alone is tiny.
	for _, n := range []int{256, 4096} {
		trials := cfg.trials(25)
		okCount, wrong := 0, 0
		var msg, msg2 int64
		for trial := 0; trial < trials; trial++ {
			inst := commlb.RandomUR(n, 1+trial%(n/4), r)
			res := commlb.TwoRoundUR(inst, 0.1, r)
			msg = res.MessageBits
			if res.Round2Bits > 0 {
				msg2 = res.Round2Bits
			}
			if !res.OK {
				continue
			}
			okCount++
			if !inst.Differs(res.Output) {
				wrong++
			}
		}
		t.Rows = append(t.Rows, []string{
			"UR 2-round", f("n=%d (rnd2 %db)", n, msg2), f("%d", trials), pct(okCount, trials),
			f("%d", wrong), f("%d", msg),
		})
	}
	// Sparse recovery: exactness at e <= s, DENSE above.
	const n = 1000
	for _, s := range []int{4, 16} {
		trials := cfg.trials(30)
		exact, denseOK := 0, 0
		var space int64
		for trial := 0; trial < trials; trial++ {
			rc := sparse.New(n, s, r)
			e := 1 + r.IntN(s)
			st := stream.SparseVector(n, e, 1000, r)
			truth := st.Apply(n)
			st.Feed(rc)
			if trial == 0 {
				space = codec.PayloadBits(rc)
			}
			rec, ok := rc.Recover()
			good := ok && len(rec) == truth.L0()
			if good {
				for i, v := range rec {
					if truth.Get(i) != v {
						good = false
					}
				}
			}
			if good {
				exact++
			}
			// dense case
			rc2 := sparse.New(n, s, r)
			stream.SparseVector(n, 3*s+r.IntN(n/4), 1000, r).Feed(rc2)
			if _, ok := rc2.Recover(); !ok {
				denseOK++
			}
		}
		t.Rows = append(t.Rows, []string{
			"sparse recovery", f("s=%d", s), f("%d", trials),
			f("exact %s / dense %s", pct(exact, trials), pct(denseOK, trials)), "0",
			f("%d", space),
		})
	}
	t.Notes = append(t.Notes,
		"UR message = L0-sampler counter state (public-coin model); wrong must be 0",
		"sparse recovery: exact must be 100% (probability-1 claim), DENSE detection is w.h.p.")
	return t
}
