package integration

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/distinct"
	"repro/internal/duplicates"
	"repro/internal/heavyhitters"
	"repro/internal/moments"
	"repro/internal/norm"
	"repro/internal/sparse"
)

// TestInternalMergeSentinels pins the errors.Is contract of every internal
// substrate's Merge: nil arguments wrap codec.ErrNilMerge, shape/parameter
// mismatches wrap codec.ErrConfigMismatch, and same-shape replicas from
// different randomness wrap codec.ErrSeedMismatch.
func TestInternalMergeSentinels(t *testing.T) {
	rng := func(s uint64) *rand.Rand { return rand.New(rand.NewPCG(s, s^0xABCD)) }

	check := func(name string, err error, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}

	// countsketch
	cs := countsketch.New(8, 3, rng(1))
	check("countsketch nil", cs.Merge(nil), codec.ErrNilMerge)
	check("countsketch shape", cs.Merge(countsketch.New(16, 3, rng(1))), codec.ErrConfigMismatch)
	check("countsketch seed", cs.Merge(countsketch.New(8, 3, rng(2))), codec.ErrSeedMismatch)

	// norm: AMS and Stable, including the cross-type case
	ams := norm.NewAMS(5, 4, rng(5))
	check("ams nil", ams.Merge(nil), codec.ErrNilMerge)
	check("ams shape", ams.Merge(norm.NewAMS(7, 4, rng(5))), codec.ErrConfigMismatch)
	check("ams seed", ams.Merge(norm.NewAMS(5, 4, rng(6))), codec.ErrSeedMismatch)
	st := norm.NewStable(1, 20, rng(7))
	check("stable cross-type", st.Merge(ams), codec.ErrConfigMismatch)
	check("ams cross-type", ams.Merge(st), codec.ErrConfigMismatch)
	check("stable shape", st.Merge(norm.NewStable(1.5, 20, rng(7))), codec.ErrConfigMismatch)
	check("stable seed", st.Merge(norm.NewStable(1, 20, rng(8))), codec.ErrSeedMismatch)

	// distinct
	de := distinct.New(128, 4, rng(9))
	check("distinct nil", de.Merge(nil), codec.ErrNilMerge)
	check("distinct shape", de.Merge(distinct.New(64, 4, rng(9))), codec.ErrConfigMismatch)
	check("distinct seed", de.Merge(distinct.New(128, 4, rng(10))), codec.ErrSeedMismatch)

	// sparse
	sp := sparse.New(128, 4, rng(11))
	check("sparse nil", sp.Merge(nil), codec.ErrNilMerge)
	check("sparse shape", sp.Merge(sparse.New(128, 8, rng(11))), codec.ErrConfigMismatch)
	check("sparse seed", sp.Merge(sparse.New(128, 4, rng(12))), codec.ErrSeedMismatch)

	// core L0
	l0 := core.NewL0Sampler(core.L0Config{N: 128, Delta: 0.2}, rng(13))
	check("l0 nil", l0.Merge(nil), codec.ErrNilMerge)
	check("l0 shape", l0.Merge(core.NewL0Sampler(core.L0Config{N: 64, Delta: 0.2}, rng(13))), codec.ErrConfigMismatch)
	check("l0 seed", l0.Merge(core.NewL0Sampler(core.L0Config{N: 128, Delta: 0.2}, rng(14))), codec.ErrSeedMismatch)

	// core Lp
	lpCfg := core.LpConfig{P: 1, N: 128, Eps: 0.25, Delta: 0.2}
	lp := core.NewLpSampler(lpCfg, rng(15))
	check("lp nil", lp.Merge(nil), codec.ErrNilMerge)
	otherCfg := lpCfg
	otherCfg.N = 64
	check("lp shape", lp.Merge(core.NewLpSampler(otherCfg, rng(15))), codec.ErrConfigMismatch)
	check("lp seed", lp.Merge(core.NewLpSampler(lpCfg, rng(16))), codec.ErrSeedMismatch)

	// core two-pass
	tp := core.NewTwoPassL0Sampler(128, 0.2, rng(17))
	check("twopass nil", tp.Merge(nil), codec.ErrNilMerge)
	tp2 := core.NewTwoPassL0Sampler(128, 0.2, rng(17))
	tp2.EndPass1()
	check("twopass pass", tp.Merge(tp2), codec.ErrConfigMismatch)
	check("twopass seed", tp.Merge(core.NewTwoPassL0Sampler(128, 0.2, rng(18))), codec.ErrSeedMismatch)

	// duplicates
	fi := duplicates.NewFinder(64, 0.2, rng(19))
	check("finder nil", fi.Merge(nil), codec.ErrNilMerge)
	check("finder shape", fi.Merge(duplicates.NewFinder(32, 0.2, rng(19))), codec.ErrConfigMismatch)
	check("finder seed", fi.Merge(duplicates.NewFinder(64, 0.2, rng(20))), codec.ErrSeedMismatch)
	sf := duplicates.NewShortFinder(64, 4, 0.2, rng(21))
	check("shortfinder nil", sf.Merge(nil), codec.ErrNilMerge)
	check("shortfinder shape", sf.Merge(duplicates.NewShortFinder(64, 8, 0.2, rng(21))), codec.ErrConfigMismatch)
	check("shortfinder seed", sf.Merge(duplicates.NewShortFinder(64, 4, 0.2, rng(22))), codec.ErrSeedMismatch)

	// heavyhitters
	hh := heavyhitters.New(heavyhitters.Config{P: 1, Phi: 0.2, N: 64}, rng(23))
	check("hh nil", hh.Merge(nil), codec.ErrNilMerge)
	check("hh shape", hh.Merge(heavyhitters.New(heavyhitters.Config{P: 1, Phi: 0.3, N: 64}, rng(23))), codec.ErrConfigMismatch)
	check("hh seed", hh.Merge(heavyhitters.New(heavyhitters.Config{P: 1, Phi: 0.2, N: 64}, rng(24))), codec.ErrSeedMismatch)

	// moments
	fp := moments.NewFp(3, 64, 2, rng(25))
	check("fp nil", fp.Merge(nil), codec.ErrNilMerge)
	check("fp shape", fp.Merge(moments.NewFp(3, 64, 3, rng(25))), codec.ErrConfigMismatch)
	check("fp seed", fp.Merge(moments.NewFp(3, 64, 2, rng(26))), codec.ErrSeedMismatch)
}
