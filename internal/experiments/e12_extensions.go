package experiments

import (
	"math"

	"repro/internal/codec"
	"repro/internal/commlb"
	"repro/internal/core"
	"repro/internal/moments"
	"repro/internal/stream"
)

// E12Extensions measures the paper's secondary results implemented beyond
// the headline theorems: the two-pass L0 sampler of the appendix remark,
// the two-round UR protocol of Proposition 5, and the F_p (p > 2) moment
// estimation application inherited from [23].
func E12Extensions(cfg Config) Table {
	r := cfg.rng(0xE12)
	t := Table{
		ID:     "E12",
		Title:  "Secondary results: two-pass L0, two-round UR, F_p moments",
		Claim:  "appendix: 2-pass L0 beats O(log² n); Prop 5: R²(UR) drops a log factor; §1: samplers drive the [23] applications",
		Header: []string{"component", "params", "trials", "success", "quality", "space/msg(bits)", "1-pass/1-round(bits)"},
	}

	// Two-pass vs one-pass L0 sampler: exactness and space.
	for _, n := range []int{1 << 10, 1 << 14} {
		trials := cfg.trials(40)
		okCount, exact := 0, 0
		var twoBits int64
		oneBits := codec.PayloadBits(core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, r))
		for trial := 0; trial < trials; trial++ {
			st := stream.SparseVector(n, 20+trial%200, 100, r)
			truth := st.Apply(n)
			tp := core.NewTwoPassL0Sampler(n, 0.2, r)
			st.Feed(tp)
			tp.EndPass1()
			st.Feed(tp)
			if trial == 0 {
				twoBits = codec.PayloadBits(tp)
			}
			out, ok := tp.Sample()
			if !ok {
				continue
			}
			okCount++
			if float64(truth.Get(out.Index)) == out.Estimate {
				exact++
			}
		}
		t.Rows = append(t.Rows, []string{
			"2-pass L0", f("n=%d", n), f("%d", trials), pct(okCount, trials),
			f("exact %s", pct(exact, okCount)), f("%d", twoBits), f("%d", oneBits),
		})
	}

	// Two-round vs one-round UR: message totals and the round-2 size.
	for _, n := range []int{1 << 10, 1 << 14} {
		trials := cfg.trials(25)
		okCount, wrong := 0, 0
		var twoMsg, rnd2, oneMsg int64
		for trial := 0; trial < trials; trial++ {
			inst := commlb.RandomUR(n, 1+trial%(n/2), r)
			res2 := commlb.TwoRoundUR(inst, 0.1, r)
			twoMsg, rnd2 = res2.MessageBits, res2.Round2Bits
			if trial == 0 {
				oneMsg = commlb.OneRoundUR(inst, 0.1, r).MessageBits
			}
			if !res2.OK {
				continue
			}
			okCount++
			if !inst.Differs(res2.Output) {
				wrong++
			}
		}
		t.Rows = append(t.Rows, []string{
			"2-round UR", f("n=%d rnd2=%db", n, rnd2), f("%d", trials), pct(okCount, trials),
			f("wrong %d", wrong), f("%d", twoMsg), f("%d", oneMsg),
		})
	}

	// F_p moments via L1 sampling.
	for _, p := range []float64{3, 4} {
		trials := cfg.trials(10)
		const n = 256
		st := stream.ZipfSigned(n, 1.2, 1000, r)
		truthVec := st.Apply(n)
		var truth float64
		for _, v := range truthVec.Coords() {
			truth += math.Pow(math.Abs(float64(v)), p)
		}
		okCount, good := 0, 0
		var space int64
		var ratios []float64
		for trial := 0; trial < trials; trial++ {
			e := moments.NewFp(p, n, 24, r)
			st.Feed(e)
			if trial == 0 {
				space = codec.PayloadBits(e)
			}
			got, ok := e.Estimate()
			if !ok {
				continue
			}
			okCount++
			ratios = append(ratios, got/truth)
			if got > truth/4 && got < truth*4 {
				good++
			}
		}
		t.Rows = append(t.Rows, []string{
			f("F_%g moments", p), f("n=%d, 24 samplers", n), f("%d", trials), pct(okCount, trials),
			f("within4x %s, med ratio %.2f", pct(good, okCount), quantile(ratios, 0.5)),
			f("%d", space), "-",
		})
	}

	t.Notes = append(t.Notes,
		"2-pass L0 space undercuts 1-pass by collapsing ⌊log n⌋ recovery levels into one committed level",
		"2-round UR: round 2 is a single s-sparse recoverer — orders of magnitude below the 1-round message",
		"F_p estimator consumes the sampler's x_i estimates (footnote 1 of the paper) via importance sampling")
	return t
}
