package duplicates

import (
	"math/rand/v2"
	"testing"

	"repro/internal/stream"
)

// TestFindUnchangedOnFixtures pins Find() on this package's three fixtures —
// random n+1-letter streams, the single-duplicate adversarial stream and the
// planted-positives update stream — to the answers the pre-PR-13 per-key
// decode gave (recorded at that commit, twelve trials each): the blocked
// recovery stage underneath must not move a single one. Kind and index only;
// the estimate's last bits depend on whether the platform fuses multiply-adds.
func TestFindUnchangedOnFixtures(t *testing.T) {
	type answer struct {
		kind  Kind
		index int
	}
	check := func(name string, trial int, got Result, want answer) {
		t.Helper()
		if got.Kind != want.kind || got.Index != want.index {
			t.Errorf("%s trial %d: Find() = {%v %d}, recorded {%v %d}", name, trial, got.Kind, got.Index, want.kind, want.index)
		}
	}

	r := rand.New(rand.NewPCG(1, 1))
	for trial, want := range []answer{{Duplicate, 109}, {Duplicate, 78}, {Fail, -1}, {Fail, -1}, {Duplicate, 132}, {Duplicate, 151},
		{Duplicate, 95}, {Duplicate, 201}, {Duplicate, 12}, {Duplicate, 18}, {Duplicate, 56}, {Duplicate, 252}} {
		const n = 256
		items := stream.DuplicateItems(n, -1, r)
		check("random", trial, findOver(NewFinder(n, 0.1, r), items), want)
	}

	r = rand.New(rand.NewPCG(2, 2))
	for trial, want := range []answer{{Duplicate, 27}, {Duplicate, 92}, {Duplicate, 19}, {Duplicate, 5}, {Duplicate, 112}, {Duplicate, 46},
		{Duplicate, 45}, {Duplicate, 78}, {Duplicate, 91}, {Duplicate, 109}, {Duplicate, 74}, {Duplicate, 77}} {
		const n = 128
		items := stream.DuplicateItems(n, r.IntN(n), r)
		check("adversarial", trial, findOver(NewFinder(n, 0.1, r), items), want)
	}

	r = rand.New(rand.NewPCG(6, 6))
	for trial, want := range []answer{{Duplicate, 28}, {Fail, -1}, {Duplicate, 12}, {Fail, -1}, {Duplicate, 36}, {Duplicate, 8},
		{Duplicate, 108}, {Duplicate, 84}, {Duplicate, 100}, {Duplicate, 20}, {Duplicate, 76}, {Duplicate, 32}} {
		const n = 128
		pf := NewPositiveFinder(n, 0.1, r)
		for i := 0; i < n; i++ {
			if i%4 == 0 {
				pf.Process(stream.Update{Index: i, Delta: 3})
			} else {
				pf.Process(stream.Update{Index: i, Delta: -2})
			}
		}
		check("positives", trial, pf.Find(), want)
	}
}

func findOver(f *Finder, items stream.Items) Result {
	for _, it := range items {
		f.ProcessItem(it)
	}
	return f.Find()
}
