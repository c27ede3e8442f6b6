package main

import "testing"

// golden pins the FNV-1a of the first 4096 updates of every workload at
// seed 1. The generators draw in stream order, so the prefix does not depend
// on the scale. A change here changes the load every baseline was measured
// on: it needs a new baseline, not a new constant.
var golden = map[string]uint64{
	"l0_stream":    0xbfc8f69f1eee6298,
	"lp_stream":    0x6aaa4e0124b6e83e,
	"dup_stream":   0xdd425388426912e6,
	"engine_cs":    0xafa2f9da2932e012,
	"serve_raw":    0xbfc8f69f1eee6298,
	"serve_upload": 0x08148df59b193958,
	"serve_mixed":  0xe0b03533bc66a948,
}

func TestGoldenInputs(t *testing.T) {
	full := *testEnv
	full.scale = 1
	for _, w := range workloads {
		got := digest(w.inputs(&full).frames, 4096)
		if want := golden[w.name]; got != want {
			t.Errorf("%s: first 4096 updates digest to %#x, pinned %#x", w.name, got, want)
		}
		if small := digest(w.inputs(testEnv).frames, 4096); small != got {
			t.Errorf("%s: the test-size prefix digests to %#x, the full-size one to %#x", w.name, small, got)
		}
	}
}
