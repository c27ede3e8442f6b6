package engine

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/countsketch"
	"repro/internal/stream"
)

// gatedSketch wraps a count-sketch replica whose batch processing blocks on a
// gate channel until it is closed — a deterministic stand-in for a stalled
// or slow shard worker. A nil gate never blocks.
type gatedSketch struct {
	*countsketch.Sketch
	gate    <-chan struct{}
	batches atomic.Int64
}

func (g *gatedSketch) Process(u stream.Update) {
	g.ProcessBatch([]stream.Update{u})
}

func (g *gatedSketch) ProcessBatch(batch []stream.Update) {
	if g.gate != nil {
		<-g.gate
	}
	g.batches.Add(1)
	g.Sketch.ProcessBatch(batch)
}

func gatedMerge(dst, src *gatedSketch) error { return dst.Sketch.Merge(src.Sketch) }

// TestFullQueueBlocksProducerAndStaysExact pins the engine's one
// backpressure policy under a real stall: with the only worker stuck inside
// its first batch, the producer gets QueueDepth more batches into the queue
// and then blocks in send — it neither runs on (unbounded buffering) nor
// drops anything, and once the worker resumes the result is cell-for-cell
// the serial one.
func TestFullQueueBlocksProducerAndStaysExact(t *testing.T) {
	const batchSize, depth = 32, 2
	st := stream.RandomTurnstile(256, 20000, 50, seeded(61)) // 625 batches

	serial := csFactory(62)(0)
	st.Feed(serial)

	gate := make(chan struct{})
	replica := &gatedSketch{Sketch: csFactory(62)(0), gate: gate}
	eng := New(Config{Shards: 1, BatchSize: batchSize, QueueDepth: depth},
		func(int) *gatedSketch { return replica }, gatedMerge)

	// One ProcessBatch call per engine batch, so every return is one
	// completed send.
	var returned atomic.Int64
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for lo := 0; lo < len(st); lo += batchSize {
			eng.ProcessBatch(st[lo:min(lo+batchSize, len(st))])
			returned.Add(1)
		}
	}()

	// The producer must get this far: one batch in the stalled worker and
	// QueueDepth in the queue.
	for deadline := time.Now().Add(10 * time.Second); returned.Load() < depth+1; {
		if time.Now().After(deadline) {
			t.Fatalf("producer stuck after %d batches, before the queue was full", returned.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// ...and no further. "Blocked" has no event to wait on, so watch the
	// count hold still for a window thousands of times a batch handoff.
	stalled := returned.Load()
	for still := 0; still < 20; {
		time.Sleep(5 * time.Millisecond)
		if now := returned.Load(); now == stalled {
			still++
		} else {
			stalled, still = now, 0
		}
	}
	// One in the worker, QueueDepth queued, one blocked in send — far short
	// of the stream.
	if stalled > depth+2 {
		t.Fatalf("producer completed %d batches against a stalled worker, want at most %d", stalled, depth+2)
	}
	if got := replica.batches.Load(); got != 0 {
		t.Fatalf("stalled worker folded %d batches", got)
	}

	close(gate)
	<-fed
	merged, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Routed; got != int64(len(st)) {
		t.Fatalf("routed %d != %d", got, len(st))
	}
	if !bytes.Equal(csCells(merged.Sketch), csCells(serial)) {
		t.Fatal("cells after a blocked producer differ from the serial sketch")
	}
}
