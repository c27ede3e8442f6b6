package streamsample_test

import (
	"math/rand/v2"
	"runtime"
	"testing"

	streamsample "repro"
	"repro/internal/stream"
)

// Parent (pre-PR-24) footprint of one L0 sampler, measured by this file's
// own probes at that commit. sketchd holds hundreds of samplers per process
// and builds one per upload and per /sample through Load, so what a sampler
// retains and what constructing one allocates are serving-tier costs
// (peak_rss_mb and updates_per_s on serve_mixed / serve_upload), not
// details: the seed-derived tables of the update path must stay lazy and
// small.
var l0ParentFootprint = map[int]struct{ retained, construct, load int }{
	1 << 14: {retained: 23532, construct: 16384, load: 16576},
	1 << 16: {retained: 24893, construct: 18624, load: 18816},
}

// retainedPerSampler builds count samplers, folds one frame into each, and
// returns the live heap they hold per sampler after a full collection.
func retainedPerSampler(n, count int) int {
	frame := stream.RandomTurnstile(n, 256, 100, rand.New(rand.NewPCG(5, uint64(n))))
	keep := make([]*streamsample.L0Sampler, count)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		s := streamsample.NewL0Sampler(n, streamsample.WithSeed(9), streamsample.WithDelta(0.2))
		s.ProcessBatch(frame)
		s.Process(frame[0])
		keep[i] = s
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return int(after.HeapAlloc-before.HeapAlloc) / count
}

// allocBytesPerCall reports the bytes f allocates per call.
func allocBytesPerCall(rounds int, f func()) int {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / rounds
}

func TestL0Footprint(t *testing.T) {
	for _, n := range []int{1 << 14, 1 << 16} {
		parent := l0ParentFootprint[n]
		retained := retainedPerSampler(n, 256)
		construct := allocBytesPerCall(64, func() {
			streamsample.NewL0Sampler(n, streamsample.WithSeed(9), streamsample.WithDelta(0.2))
		})
		blob, err := streamsample.NewL0Sampler(n, streamsample.WithSeed(9), streamsample.WithDelta(0.2)).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		load := allocBytesPerCall(64, func() {
			if _, err := streamsample.Load(blob); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: retained %d B/sampler after the first fold, NewL0Sampler %d B, Load %d B", n, retained, construct, load)
		if retained > parent.retained+4096 {
			t.Errorf("n=%d: a sampler retains %d B after its first fold, parent %d B + 4 KiB", n, retained, parent.retained)
		}
		if construct > parent.construct {
			t.Errorf("n=%d: NewL0Sampler allocates %d B, parent %d B", n, construct, parent.construct)
		}
		if load > parent.load {
			t.Errorf("n=%d: Load allocates %d B, parent %d B", n, load, parent.load)
		}
	}
}
