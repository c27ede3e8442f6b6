package sketchd

import (
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/stream"
)

// TestSpecBuildWireGoldens pins what Spec.Build constructs for every served
// kind, with the defaults and with explicit parameters: the FNV-64a digest of
// MarshalBinary after a fixed stream. Every meta.json on disk rebuilds its
// zero-state replicas through Spec.Build, so these bytes must never move
// without a wire-format bump. The out-of-range eps row pins the fallback to
// the default (the spec is accepted and builds eps = 0.25).
func TestSpecBuildWireGoldens(t *testing.T) {
	const n = 1024
	st := stream.RandomTurnstile(n, 2000, 50, rand.New(rand.NewPCG(1, 2)))
	for _, tc := range []struct {
		name string
		spec Spec
		want uint64
	}{
		{"l0 default", Spec{Kind: "l0", N: n, Seed: 7}, 0x3dc8ecbe143bf861},
		{"l0 delta", Spec{Kind: "l0", N: n, Delta: 0.05, Seed: 7}, 0xa8c2f4367576607e},
		{"lp default", Spec{Kind: "lp", N: n, Seed: 7}, 0x9c54a3a65df8bfa7},
		{"lp explicit", Spec{Kind: "lp", N: n, P: 0.7, Eps: 0.3, Delta: 0.1, Seed: 7}, 0x58968ef96e5a96a6},
		{"lp eps out of range", Spec{Kind: "lp", N: n, Eps: 5, Seed: 7}, 0x9c54a3a65df8bfa7},
		{"hh default", Spec{Kind: "hh", N: n, Seed: 7}, 0xede6a64047a0a796},
		{"hh explicit", Spec{Kind: "hh", N: n, P: 2, Phi: 0.2, Seed: 7}, 0xeecbb8dedb84814d},
		{"hh stable", Spec{Kind: "hh", N: n, P: 1.5, Phi: 0.05, Seed: 7}, 0xd41843f6c0f77864},
	} {
		s, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.ProcessBatch(st)
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(blob)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: wire digest %#016x, golden %#016x", tc.name, got, tc.want)
		}
	}
}

// TestSpecCheckBuildsNothing: a spec is validated from its kind's row — by
// Check, and by Build before it allocates, which is how Create refuses a
// hostile spec — so a large legitimate spec checks without a single
// allocation and a refused one without building its sketch.
func TestSpecCheckBuildsNothing(t *testing.T) {
	big := Spec{Kind: "lp", N: 1 << 20, P: 1.5, Eps: 0.05, Delta: 0.1, Seed: 8}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := big.Check(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Check of a valid spec allocated %v times", allocs)
	}
	var before, after runtime.MemStats
	for _, spec := range hostileSpecs {
		runtime.ReadMemStats(&before)
		err := spec.Check()
		runtime.ReadMemStats(&after)
		if allocated := after.TotalAlloc - before.TotalAlloc; err == nil || allocated > 1<<16 {
			t.Fatalf("Check(%+v) = %v after allocating %d bytes, want a refusal that builds nothing", spec, err, allocated)
		}
	}
}
