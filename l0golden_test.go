package streamsample_test

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	streamsample "repro"
	"repro/internal/engine"
	"repro/internal/stream"
)

// l0GoldenDigests pins the L0 sampler's state bit for bit: FNV-64a of
// MarshalBinary() after the fixed-seed 200k-update turnstile stream of
// l0GoldenStream, keyed "n/iid" or "n/nested". The values were recorded at
// the commit before the update path moved onto the seed-derived window
// tables (PR 24) and must never change without a wire-format bump: every
// ingest path below — one Process per update, ProcessBatch at every chunk
// size around the kernels' group and chunk boundaries, and a 4-shard engine —
// has to land on them.
var l0GoldenDigests = map[string]uint64{
	"1/iid":        0xd4d7135b682a44ce,
	"1/nested":     0x43a895af2aae7279,
	"2/iid":        0xcc5e252abae80ec1,
	"2/nested":     0x434eb8672bd1f53b,
	"3/iid":        0xfbeaf6355ca3ced9,
	"3/nested":     0x18218f91d5ff8cda,
	"1000/iid":     0x71a6ef213149bc5d,
	"1000/nested":  0x15dc9e02a30b0230,
	"16384/iid":    0xe88aa21097ea0542,
	"16384/nested": 0xace8eb9f1f8b6ae6,
	"65536/iid":    0xaafa45b1eab957ac,
	"65536/nested": 0xd71f87f7c0e97182,
}

const l0GoldenLen = 200_000

func l0GoldenStream(n int) stream.Stream {
	return stream.RandomTurnstile(n, l0GoldenLen, 100, rand.New(rand.NewPCG(0x601d, uint64(n))))
}

func newGoldenL0(n int, nested bool) *streamsample.L0Sampler {
	opts := []streamsample.Option{streamsample.WithSeed(0x5EEDC0DE), streamsample.WithDelta(0.2)}
	if nested {
		opts = append(opts, streamsample.WithNestedLevels())
	}
	return streamsample.NewL0Sampler(n, opts...)
}

// sketchDigest is FNV-64a of a sketch's MarshalBinary bytes.
func sketchDigest(t *testing.T, s streamsample.Sketch) uint64 {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64()
}

func TestL0GoldenDigest(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129, 255, 256, 257, 2048}
	if testing.Short() {
		sizes = []int{1, 3, 4, 129, 256, 2048}
	}
	for _, n := range []int{1, 2, 3, 1000, 1 << 14, 1 << 16} {
		st := l0GoldenStream(n)
		for _, nested := range []bool{false, true} {
			key := fmt.Sprintf("%d/iid", n)
			if nested {
				key = fmt.Sprintf("%d/nested", n)
			}
			want := l0GoldenDigests[key]
			check := func(path string, s *streamsample.L0Sampler) {
				t.Helper()
				if got := sketchDigest(t, s); got != want {
					t.Errorf("%s via %s: digest %#016x, golden %#016x", key, path, got, want)
				}
			}

			s := newGoldenL0(n, nested)
			for _, u := range st {
				s.Process(u)
			}
			check("Process", s)

			for _, size := range sizes {
				s := newGoldenL0(n, nested)
				for lo := 0; lo < len(st); lo += size {
					s.ProcessBatch(st[lo:min(lo+size, len(st))])
				}
				check(fmt.Sprintf("ProcessBatch(%d)", size), s)
			}

			eng := engine.New(engine.Config{Shards: 4},
				func(int) *streamsample.L0Sampler { return newGoldenL0(n, nested) },
				func(dst, src *streamsample.L0Sampler) error { return dst.Merge(src) })
			eng.Feed(st)
			merged, err := eng.Results()
			if err != nil {
				t.Fatal(err)
			}
			check("4-shard engine", merged)
		}
	}
}
