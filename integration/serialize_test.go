package integration

import (
	"math/rand/v2"
	"testing"

	streamsample "repro"
	"repro/internal/stream"
)

// shardStream slices st into cnt disjoint position-interleaved shards:
// shard i takes every cnt-th update starting at position i.
func shardStream(st stream.Stream, cnt int) []stream.Stream {
	shards := make([]stream.Stream, cnt)
	for j, u := range st {
		shards[j%cnt] = append(shards[j%cnt], u)
	}
	return shards
}

// TestShardedExportMergeMatchesSingleProcess is the acceptance test of the
// distributed pattern: N same-seed sketches each ingest a disjoint shard,
// travel as bytes, are Loaded and merged — and the merged sample
// distribution matches single-process ingestion. Linearity makes the match
// exact per seed (the merged linear state equals the single-process state),
// and across seeds the merged samples must stay uniform over the support
// (chi-square tolerance).
func TestShardedExportMergeMatchesSingleProcess(t *testing.T) {
	const n, shards, trials = 64, 3, 400
	st := stream.SparseVector(n, 16, 100, rand.New(rand.NewPCG(77, 78)))
	truth := st.Apply(n)
	support := map[int]int64{}
	for i := 0; i < n; i++ {
		if v := truth.Get(i); v != 0 {
			support[i] = v
		}
	}
	if len(support) != 16 {
		t.Fatalf("workload has support %d, want 16", len(support))
	}
	parts := shardStream(st, shards)

	counts := map[int]int{}
	produced := 0
	for trial := 0; trial < trials; trial++ {
		seed := uint64(1000 + trial)

		single := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
		single.ProcessBatch(st)
		sIdx, sVal, sOK := single.Sample()

		// Each "process" ingests its shard and emits bytes; the "merger"
		// loads the bytes and folds them together.
		var merged streamsample.Sketch
		for _, part := range parts {
			sk := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
			sk.ProcessBatch(part)
			data, err := sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := streamsample.Load(data)
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = loaded
				continue
			}
			if err := merged.Merge(loaded); err != nil {
				t.Fatal(err)
			}
		}
		mIdx, mVal, mOK := merged.(*streamsample.L0Sampler).Sample()

		// Linearity: the merged-from-bytes sketch answers exactly like the
		// single-process one, seed for seed.
		if sOK != mOK || sIdx != mIdx || sVal != mVal {
			t.Fatalf("trial %d: single (%d,%d,%v) vs merged (%d,%d,%v)",
				trial, sIdx, sVal, sOK, mIdx, mVal, mOK)
		}
		if !mOK {
			continue
		}
		produced++
		if want, ok := support[mIdx]; !ok || want != mVal {
			t.Fatalf("trial %d: sampled (%d,%d) not in true support %v", trial, mIdx, mVal, support)
		}
		counts[mIdx]++
	}
	if produced < trials*8/10 {
		t.Fatalf("only %d/%d trials produced a sample", produced, trials)
	}

	// Chi-square of the merged sample distribution against uniform over the
	// support: df = 15; 50 is far beyond the p=1e-4 critical value (~42).
	expected := float64(produced) / float64(len(support))
	var chi2 float64
	for i := range support {
		diff := float64(counts[i]) - expected
		chi2 += diff * diff / expected
	}
	if chi2 > 50 {
		t.Fatalf("merged sample distribution chi2 = %.1f over %d trials (counts %v)", chi2, produced, counts)
	}
}

// TestCrossSeedShardRejected pins the wire-level guarantee that shards from
// different seeds cannot be silently merged.
func TestCrossSeedShardRejected(t *testing.T) {
	const n = 64
	a := streamsample.NewL0Sampler(n, streamsample.WithSeed(1))
	b := streamsample.NewL0Sampler(n, streamsample.WithSeed(2))
	a.Update(3, 1)
	b.Update(4, 1)
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	la, err := streamsample.Load(ab)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := streamsample.Load(bb)
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Merge(lb); err == nil {
		t.Fatal("cross-seed merge of loaded sketches must fail")
	}
}
