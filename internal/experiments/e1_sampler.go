package experiments

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/vector"
)

// E1LpSamplerAccuracy reproduces Theorem 1's guarantee: for p in (0,2) the
// sampler's output distribution is within O(ε) of the Lp distribution, the
// returned estimate has relative error <= ε w.h.p., and failures stay below
// δ after repetition.
func E1LpSamplerAccuracy(cfg Config) Table {
	r := cfg.rng(0xE1)
	const n = 256
	// Small-support vector keeps the empirical-TV sampling noise low.
	values := map[int]int64{3: 100, 17: -200, 40: 50, 99: 400, 150: -100, 200: 25, 222: 300, 255: -50}
	var st stream.Stream
	for i, v := range values {
		st = append(st, stream.Update{Index: i, Delta: v})
	}
	truth := st.Apply(n)

	t := Table{
		ID:     "E1",
		Title:  "Lp sampler accuracy (Theorem 1 / Figure 1)",
		Claim:  "ε relative error Lp sampling for p∈(0,2) in O(ε^{-max(1,p)} log² n) space; failure ≤ δ",
		Header: []string{"p", "eps", "trials", "success", "TV(dist)", "TV(floor)", "relerr p95", "fail-rate", "space(bits)"},
	}
	for _, p := range []float64{0.5, 1, 1.5} {
		for _, eps := range []float64{0.5, 0.25} {
			target := truth.LpDistribution(p)
			trials := cfg.trials(300)
			counts := map[int]int{}
			var relErrs []float64
			got, fails := 0, 0
			var space int64
			for trial := 0; trial < trials; trial++ {
				s := core.NewLpSampler(core.LpConfig{P: p, N: n, Eps: eps, Delta: 0.15}, r)
				st.Feed(s)
				if trial == 0 {
					space = codec.PayloadBits(s)
				}
				out, ok := s.Sample()
				if !ok {
					fails++
					continue
				}
				got++
				counts[out.Index]++
				if tv := truth.Get(out.Index); tv != 0 {
					relErrs = append(relErrs, math.Abs(out.Estimate-float64(tv))/math.Abs(float64(tv)))
				}
			}
			tv := vector.EmpiricalTV(counts, target, got)
			floor := tvNoiseFloor(r, target, got)
			t.Rows = append(t.Rows, []string{
				f("%.1f", p), f("%.2f", eps), f("%d", trials), pct(got, trials),
				f("%.3f", tv), f("%.3f", floor), f("%.3f", quantile(relErrs, 0.95)), pct(fails, trials),
				f("%d", space),
			})
		}
	}
	t.Notes = append(t.Notes,
		"TV(floor) = empirical TV of a PERFECT sampler at the same sample count; compare columns",
		"success = any repetition produced output; per-round success is Θ(ε) as analyzed")
	return t
}

// E2SpaceScaling reproduces the headline space claim: the Theorem 1 sampler
// needs O(ε^{-p} log² n) bits where the AKO baseline [1] needs
// O(ε^{-p} log³ n): the AKO/ours ratio grows like log n.
func E2SpaceScaling(cfg Config) Table {
	r := cfg.rng(0xE2)
	const eps = 0.25
	const p = 1.5
	const copies = 4
	t := Table{
		ID:     "E2",
		Title:  "Sampler space vs n: this paper vs AKO baseline (Theorem 1 vs [1])",
		Claim:  "O(ε^{-p} log² n) here vs O(ε^{-p} log³ n) in [1] — one log factor saved",
		Header: []string{"n", "ours(bits)", "ours/log²n", "AKO(bits)", "AKO/log³n", "AKO/ours"},
	}
	for _, lg := range []int{8, 10, 12, 14, 16, 18} {
		n := 1 << lg
		ours := codec.PayloadBits(core.NewLpSampler(core.LpConfig{P: p, N: n, Eps: eps, Delta: 0.2, Copies: copies}, r))
		ako := codec.PayloadBits(baseline.NewAKO(p, n, eps, copies, r))
		l := float64(lg)
		t.Rows = append(t.Rows, []string{
			f("2^%d", lg),
			f("%d", ours),
			f("%.0f", float64(ours)/(l*l)),
			f("%d", ako),
			f("%.0f", float64(ako)/(l*l*l)),
			f("%.1fx", float64(ako)/float64(ours)),
		})
	}
	t.Notes = append(t.Notes,
		"ours/log²n and AKO/log³n fall as n grows: cells are 64-bit words, so each measures one log factor under its bound",
		"the AKO/ours ratio grows ≈ linearly in log n: the saved log factor")
	return t
}

// E3L0Sampler reproduces Theorem 2: zero relative error L0 sampling with
// O(log² n) bits (vs the FIS baseline's O(log³ n)), uniform over the
// support, failing with probability ≤ δ.
func E3L0Sampler(cfg Config) Table {
	r := cfg.rng(0xE3)
	t := Table{
		ID:     "E3",
		Title:  "L0 sampler: uniformity, exactness, space (Theorem 2 vs [12])",
		Claim:  "zero relative error L0 sampling in O(log² n) bits; [12] needs O(log³ n)",
		Header: []string{"n", "support", "levels", "trials", "success", "TV(unif)", "TV(floor)", "value-exact", "ours(bits)", "FIS(bits)"},
	}
	for _, scen := range []struct {
		n, support int
		nested     bool
	}{
		{256, 6, false}, {1024, 100, false}, {1024, 1024, false},
		{256, 6, true}, {1024, 100, true}, {1024, 1024, true},
	} {
		trials := cfg.trials(300)
		st := stream.SparseVector(scen.n, scen.support, 1000, r)
		truth := st.Apply(scen.n)
		target := truth.LpDistribution(0)
		counts := map[int]int{}
		got, exact := 0, 0
		var oursBits, fisBits int64
		for trial := 0; trial < trials; trial++ {
			s := core.NewL0Sampler(core.L0Config{N: scen.n, Delta: 0.2, NestedLevels: scen.nested}, r)
			st.Feed(s)
			if trial == 0 {
				oursBits = codec.PayloadBits(s)
			}
			out, ok := s.Sample()
			if !ok {
				continue
			}
			got++
			counts[out.Index]++
			if float64(truth.Get(out.Index)) == out.Estimate {
				exact++
			}
		}
		reps := int(math.Ceil(log2(scen.n)))
		fis := baseline.NewFISL0(scen.n, reps, r)
		fisBits = codec.PayloadBits(fis)
		tv := vector.EmpiricalTV(counts, target, got)
		floor := tvNoiseFloor(r, target, got)
		mode := "iid"
		if scen.nested {
			mode = "nested"
		}
		t.Rows = append(t.Rows, []string{
			f("%d", scen.n), f("%d", scen.support), mode, f("%d", trials), pct(got, trials),
			f("%.3f", tv), f("%.3f", floor), pct(exact, got), f("%d", oursBits), f("%d", fisBits),
		})
	}
	t.Notes = append(t.Notes,
		"value-exact = sampled value equals x_i exactly (the 'zero relative error' claim)",
		"levels = iid (independent per-level coins, the default) or nested (§2.1 dyadic I_1 ⊆ I_2 ⊆ ...)",
		"TV(floor) = empirical TV of perfect uniform sampling at the same sample count;",
		"matching TV and floor (e.g. support 1024 at 300 samples) means the sampler is as uniform as measurable")
	return t
}
