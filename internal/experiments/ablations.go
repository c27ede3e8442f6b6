package experiments

import (
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/vector"
)

// ablationRun measures TV distance and success rate of a sampler
// configuration against the exact Lp distribution of a fixed workload.
func ablationRun(mk func() *core.LpSampler, st stream.Stream, truth *vector.Dense, p float64, trials int) (tv float64, success string, relErrP95 float64) {
	target := truth.LpDistribution(p)
	counts := map[int]int{}
	var relErrs []float64
	got := 0
	for trial := 0; trial < trials; trial++ {
		s := mk()
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			continue
		}
		got++
		counts[out.Index]++
		if tvv := truth.Get(out.Index); tvv != 0 {
			relErrs = append(relErrs, math.Abs(out.Estimate-float64(tvv))/math.Abs(float64(tvv)))
		}
	}
	return vector.EmpiricalTV(counts, target, got), pct(got, trials), quantile(relErrs, 0.95)
}

// ablationWorkload builds the shared small-support workload.
func ablationWorkload() (stream.Stream, *vector.Dense, int) {
	const n = 256
	values := map[int]int64{3: 100, 17: -200, 40: 50, 99: 400, 150: -100, 200: 25, 222: 300, 255: -50}
	var st stream.Stream
	for i, v := range values {
		st = append(st, stream.Update{Index: i, Delta: v})
	}
	return st, st.Apply(n), n
}

// A1ScalingIndependence ablates the k-wise independence of the scaling
// factors: the paper uses k = 10⌈1/|p-1|⌉ (and k = O(log 1/ε) at p = 1)
// where [1] used pairwise — one of the two ingredients that preserve the ε
// dependence (§1, "a slightly more powerful source of randomness").
func A1ScalingIndependence(cfg Config) Table {
	r := cfg.rng(0xA1)
	st, truth, n := ablationWorkload()
	t := Table{
		ID:     "A1",
		Title:  "Ablation: k-wise vs pairwise scaling factors (§1/§2)",
		Claim:  "k = 10⌈1/|p-1|⌉-wise independence backs the concentration in Lemma 3",
		Header: []string{"p", "k", "trials", "success", "TV(dist)", "relerr p95"},
	}
	const p = 1.5
	trials := cfg.trials(300)
	for _, k := range []int{2, 20} {
		tv, succ, re := ablationRun(func() *core.LpSampler {
			return core.NewLpSampler(core.LpConfig{P: p, N: n, Eps: 0.25, Delta: 0.15, KOverride: k}, r)
		}, st, truth, p, trials)
		t.Rows = append(t.Rows, []string{
			f("%.1f", p), f("%d", k), f("%d", trials), succ, f("%.3f", tv), f("%.3f", re),
		})
	}
	t.Notes = append(t.Notes,
		"k=20 is the paper's value for p=1.5; k=2 is the [1] baseline",
		"on benign workloads pairwise degrades mildly; the k-wise bound is what the proof needs")
	return t
}

// A2STest ablates the recovery-stage abort on s > βm^{1/2}r — the
// conditioning fix of Lemma 3 that the paper highlights as "subtle issues
// regarding the conditioning on the error terms which are not handled in the
// previous work".
func A2STest(cfg Config) Table {
	r := cfg.rng(0xA2)
	t := Table{
		ID:     "A2",
		Title:  "Ablation: the s > βm^{1/2}r abort (Lemma 3 conditioning fix)",
		Claim:  "aborting on heavy count-sketch tails keeps the conditional output clean (Lemma 4)",
		Header: []string{"p", "s-test", "m-factor", "trials", "success", "bad-estimates", "relerr p95"},
	}
	// Two measurements. First, Lemma 3 directly: the per-repetition abort
	// probability P[s > βm^{1/2}r] must be O(ε) — we count aborts across
	// all repetitions for a dense heavy-tailed workload and several ε.
	// Second, the off-mode comparison: disabling the test must not improve
	// estimate quality (it can only admit garbage rounds).
	const n = 256
	const p = 1.5
	st := stream.ZipfSigned(n, 0.6, 100000, r)
	truth := st.Apply(n)
	t.Header = []string{"p", "eps", "s-test", "trials", "reps", "s-aborts", "aborts/rep", "bad-estimates"}
	trials := cfg.trials(150)
	for _, eps := range []float64{0.5, 0.25, 0.1} {
		for _, disable := range []bool{false, true} {
			got, bad, reps, aborts := 0, 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				s := core.NewLpSampler(core.LpConfig{
					P: p, N: n, Eps: eps, Delta: 0.15, MFactor: 3, DisableSTest: disable,
				}, r)
				st.Feed(s)
				// SampleAll, not Sample: the columns count every
				// repetition, and Sample stops at the first emit.
				all := s.SampleAll()
				d := s.Diagnostics()
				reps += d.Emitted + d.STestAborts + d.ThresholdFails + d.Guarded
				aborts += d.STestAborts
				if len(all) == 0 {
					continue
				}
				out := all[0]
				got++
				tv := truth.Get(out.Index)
				if tv == 0 {
					bad++
					continue
				}
				if math.Abs(out.Estimate-float64(tv)) > 2*eps*math.Abs(float64(tv)) {
					bad++
				}
			}
			mode := "on"
			if disable {
				mode = "off"
			}
			rate := "-"
			if !disable && reps > 0 {
				rate = f("%.3f", float64(aborts)/float64(reps))
			}
			t.Rows = append(t.Rows, []string{
				f("%.1f", p), f("%.2f", eps), mode, f("%d", trials), f("%d", reps),
				f("%d", aborts), rate, pct(bad, got),
			})
		}
	}
	t.Notes = append(t.Notes,
		"aborts/rep empirically bounds P[s > βm^{1/2}r]; Lemma 3 proves it is O(ε) — watch it shrink with ε",
		"bad-estimates = emitted samples whose value estimate misses by >2ε or hits a zero coordinate;",
		"on this workload the abort is rare (as Lemma 3 predicts), so on/off quality agrees — the test",
		"is the safety net for the adversarial tail event the analysis conditions away")
	return t
}

// A3SketchWidth ablates the count-sketch parameter m: the paper's
// m = O(ε^{-max(0,p-1)}) against the [1]-style m' = Θ(ε^{-p} log n) — the
// log n saving comes from bounding the count-sketch error by ‖x‖_p via the
// scaling distribution rather than by ‖z‖ directly (§1, "sharper analysis").
func A3SketchWidth(cfg Config) Table {
	r := cfg.rng(0xA3)
	st, truth, n := ablationWorkload()
	t := Table{
		ID:     "A3",
		Title:  "Ablation: count-sketch width m — paper's O(ε^{p-1}⁻) vs AKO's Θ(ε^{-p} log n)",
		Claim:  "the thin sketch suffices: same sampling quality, one log n factor less space",
		Header: []string{"p", "m-policy", "m", "trials", "success", "TV(dist)", "space(bits)"},
	}
	const p = 1.5
	const eps = 0.25
	trials := cfg.trials(300)
	type policy struct {
		name string
		mf   float64
	}
	// MFactor 16 reproduces the paper's m; the inflated factor mimics the
	// AKO width ε^{-p}·log n / ε^{-(p-1)} = ε^{-1} log n ≈ 32·
	inflate := 16 * math.Pow(eps, -1) * log2(n) / 2
	for _, pol := range []policy{{"paper", 16}, {"AKO-width", inflate}} {
		var m int
		var space int64
		tv, succ, _ := ablationRun(func() *core.LpSampler {
			s := core.NewLpSampler(core.LpConfig{P: p, N: n, Eps: eps, Delta: 0.15, MFactor: pol.mf}, r)
			m = s.M()
			space = codec.PayloadBits(s)
			return s
		}, st, truth, p, trials)
		t.Rows = append(t.Rows, []string{
			f("%.1f", p), pol.name, f("%d", m), f("%d", trials), succ, f("%.3f", tv),
			f("%d", space),
		})
	}
	t.Notes = append(t.Notes,
		"both widths sample correctly; the wide sketch pays ~log n more space for nothing —",
		"exactly the paper's point: the tail bound through ‖x‖_p makes the thin sketch safe")
	return t
}
