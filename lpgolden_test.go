package streamsample_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	streamsample "repro"
	"repro/internal/stream"
)

// lpGoldenDigests pins the Lp sampler's and the duplicate finder's state bit
// for bit: FNV-64a of MarshalBinary() after a fixed-seed signed-Zipf stream,
// keyed "p/n" for the sampler and "dup/n" for a DuplicateFinder fed item by
// item. The values were recorded before the norm sketches' fold moved onto
// chunked row groups and the dispatched Cauchy kernel, and must never change
// without a wire-format bump: Process, ProcessBatch at every size below and
// Observe all have to land on them, under every kernel variant.
var lpGoldenDigests = map[string]uint64{
	"0.5/1024":  0x2d18b524c6314a50,
	"1/1024":    0x6553cf7eaa9a96b3,
	"1.5/1024":  0x176bb71894785641,
	"dup/1024":  0x89379628eaed2572,
	"0.5/16384": 0x778d7c7d6c41a42a,
	"1/16384":   0x05272af709ba4061,
	"1.5/16384": 0xf679edd1eeed87ed,
	"dup/16384": 0xa1fbcae9ad536f5b,
}

// lpGoldenLen caps the stream: long enough for a 6161-update batch
// and a ragged tail, short enough that the 2^14 cases stay a few seconds.
const lpGoldenLen = 12_000

func lpGoldenStream(n int) stream.Stream {
	st := stream.ZipfSigned(n, 1.1, 1<<20, rand.New(rand.NewPCG(0x1b, uint64(n))))
	return st[:min(len(st), lpGoldenLen)]
}

func newGoldenLp(p float64, n int) *streamsample.LpSampler {
	return streamsample.NewLpSampler(p, n, streamsample.WithSeed(0x5EEDC0DE),
		streamsample.WithEps(0.25), streamsample.WithDelta(0.2))
}

func TestLpGoldenDigest(t *testing.T) {
	sizes := []int{1, 7, 255, 256, 257, 2048, 6161}
	if testing.Short() {
		sizes = []int{7, 257, 6161}
	}
	for _, n := range []int{1 << 10, 1 << 14} {
		st := lpGoldenStream(n)
		for _, p := range []float64{0.5, 1, 1.5} {
			key := fmt.Sprintf("%v/%d", p, n)
			want := lpGoldenDigests[key]
			check := func(path string, s streamsample.Sketch) {
				t.Helper()
				if got := sketchDigest(t, s); got != want {
					t.Errorf("%s via %s: digest %#016x, golden %#016x", key, path, got, want)
				}
			}

			s := newGoldenLp(p, n)
			for _, u := range st {
				s.Process(u)
			}
			check("Process", s)

			for _, size := range sizes {
				s := newGoldenLp(p, n)
				for lo := 0; lo < len(st); lo += size {
					s.ProcessBatch(st[lo:min(lo+size, len(st))])
				}
				check(fmt.Sprintf("ProcessBatch(%d)", size), s)
			}
		}

		key := fmt.Sprintf("dup/%d", n)
		d := streamsample.NewDuplicateFinder(n, streamsample.WithSeed(0x5EEDC0DE))
		for _, letter := range stream.DuplicateItems(n, 5, rand.New(rand.NewPCG(0x1c, uint64(n)))) {
			d.Observe(letter)
		}
		if got, want := sketchDigest(t, d), lpGoldenDigests[key]; got != want {
			t.Errorf("%s via Observe: digest %#016x, golden %#016x", key, got, want)
		}
	}
}
