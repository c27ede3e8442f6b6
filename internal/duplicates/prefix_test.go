package duplicates

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/sparse"
	"repro/internal/stream"
)

func stateBytes(appendState func(*codec.Encoder)) []byte {
	e := codec.NewEncoder(codec.KindLpSampler)
	appendState(e)
	return e.Bytes()
}

// TestPrefixFeederMatchesScalarPrefix pins the block feeder behind every
// pigeonhole-prefix site to what it did before it: the n-entry
// stream.DecrementAll / IncrementAll slice, here fed one scalar Process at a
// time. n is not a multiple of the block, so the last block is short.
func TestPrefixFeederMatchesScalarPrefix(t *testing.T) {
	const n = 2*prefixBlock + 37
	seeded := func() *rand.Rand { return rand.New(rand.NewPCG(31, 32)) }
	scalar := func(sink stream.Sink, prefix stream.Stream) {
		for _, u := range prefix {
			sink.Process(u)
		}
	}

	// NewFinder and Finder.Merge.
	f := NewFinder(n, 0.3, seeded())
	ref := NewFinderForRestore(n, 0.3, seeded())
	scalar(ref, stream.DecrementAll(n))
	if !bytes.Equal(stateBytes(f.AppendState), stateBytes(ref.AppendState)) {
		t.Fatal("NewFinder: block-fed prefix differs from the scalar prefix")
	}
	if cap(f.buf) > prefixBlock {
		t.Fatalf("NewFinder kept a %d-entry buffer, want <= %d", cap(f.buf), prefixBlock)
	}
	other, refOther := NewFinder(n, 0.3, seeded()), NewFinder(n, 0.3, seeded())
	for _, fd := range []*Finder{f, ref, other, refOther} {
		fd.ProcessItems([]int{3, n - 1, 3})
	}
	if err := f.Merge(other); err != nil {
		t.Fatal(err)
	}
	if err := ref.PositiveFinder.Merge(refOther.PositiveFinder); err != nil {
		t.Fatal(err)
	}
	scalar(ref, stream.IncrementAll(n))
	if !bytes.Equal(stateBytes(f.AppendState), stateBytes(ref.AppendState)) {
		t.Fatal("Finder.Merge: block-fed compensation differs from the scalar one")
	}

	// NewShortFinder and ShortFinder.Merge: recoverer and sampler both.
	const s = 4
	sf := NewShortFinder(n, s, 0.3, seeded())
	r := seeded()
	sfRef := &ShortFinder{s: s, rec: sparse.New(n, 5*s, r)}
	sfRef.finder = NewFinderForRestore(n, 0.3, r)
	scalar(sfRef, stream.DecrementAll(n))
	if !bytes.Equal(stateBytes(sf.AppendState), stateBytes(sfRef.AppendState)) {
		t.Fatal("NewShortFinder: block-fed prefix differs from the scalar prefix")
	}
	sfOther := NewShortFinder(n, s, 0.3, seeded())
	if err := sf.Merge(sfOther); err != nil {
		t.Fatal(err)
	}
	if err := sfRef.finder.PositiveFinder.Merge(sfOther.finder.PositiveFinder); err != nil {
		t.Fatal(err)
	}
	if err := sfRef.rec.Merge(sfOther.rec); err != nil {
		t.Fatal(err)
	}
	scalar(sfRef, stream.IncrementAll(n))
	if !bytes.Equal(stateBytes(sf.AppendState), stateBytes(sfRef.AppendState)) {
		t.Fatal("ShortFinder.Merge: block-fed compensation differs from the scalar one")
	}

	// NewLongFinder in sampler mode, which fed the prefix through the scalar
	// Process before.
	lf := NewLongFinder(n, 1, 0.3, 1, seeded())
	lfRef := NewPositiveFinder(n, 0.3, seeded())
	scalar(lfRef, stream.DecrementAll(n))
	if !bytes.Equal(stateBytes(lf.finder.AppendState), stateBytes(lfRef.AppendState)) {
		t.Fatal("NewLongFinder: block-fed prefix differs from the scalar prefix")
	}
}
