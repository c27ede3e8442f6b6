package streamsample

import (
	"hash/fnv"
	"testing"
)

// wireSeed is the construction seed of every wire golden.
const wireSeed = 12345

func wireDigest(t *testing.T, s Sketch) uint64 {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64()
}

// twoPassPass1Wire pins a two-pass sampler checkpointed between its passes:
// sketchCases' TwoPassL0Sampler row covers the state after EndPass1.
const twoPassPass1Wire = 0x4d05af2a983d2661

// TestWireGoldens pins the bytes of every kind: the FNV-64a digest of
// MarshalBinary after each sketchCases row's fixed-seed feed, plus a two-pass
// sampler before EndPass1. The digests were recorded from the hand-written
// per-kind codecs that the kind table replaced, so a green run is the proof
// that the table writes the same config blocks and payloads byte for byte.
func TestWireGoldens(t *testing.T) {
	for _, tc := range sketchCases() {
		s := tc.build(wireSeed)
		tc.feed(s)
		if got := wireDigest(t, s); got != tc.wire {
			t.Errorf("%s: wire digest %#016x, golden %#016x", tc.name, got, tc.wire)
		}
	}
	tp := NewTwoPassL0Sampler(96, WithSeed(wireSeed))
	feedTurnstile(tp, 8, 96, 300)
	if got := wireDigest(t, tp); got != twoPassPass1Wire {
		t.Errorf("TwoPassL0Sampler before EndPass1: wire digest %#016x, golden %#016x", got, twoPassPass1Wire)
	}
}
