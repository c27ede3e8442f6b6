package sparse

import (
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
	"repro/internal/stream"
)

// TestRecoverVariantsBitIdentical feeds the same update stream through
// ProcessBatch under every selectable kernel variant and pins the full
// measurement state and the decode byte-for-byte against the scalar Process
// path — the syndrome fold dispatches through internal/kernel, so this
// exercises the whole recovery pipeline per variant.
func TestRecoverVariantsBitIdentical(t *testing.T) {
	prev := kernel.Active()
	t.Cleanup(func() {
		if err := kernel.Select(prev); err != nil {
			t.Fatalf("restoring kernel variant %q: %v", prev, err)
		}
	})

	const n, s = 4096, 8
	updates := make([]stream.Update, 0, 64)
	r := rand.New(rand.NewPCG(71, 1))
	for i := 0; i < 6; i++ {
		idx := int(r.Uint64() % n)
		delta := int64(r.Uint64()%1000) + 1
		// Each support point gets an insert, churn, and partial cancel.
		updates = append(updates,
			stream.Update{Index: idx, Delta: delta},
			stream.Update{Index: idx, Delta: -delta},
			stream.Update{Index: idx, Delta: delta + 7},
		)
	}

	// Scalar per-update reference.
	ref := New(n, s, rand.New(rand.NewPCG(72, 1)))
	for _, u := range updates {
		ref.Process(u)
	}
	refState := stateBytes(ref)
	refDec, refOK := ref.Recover()

	for _, name := range kernel.Variants() {
		if err := kernel.Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		rc := New(n, s, rand.New(rand.NewPCG(72, 1)))
		rc.ProcessBatch(updates)
		state := stateBytes(rc)
		for i := range refState {
			if state[i] != refState[i] {
				t.Fatalf("%s: state byte %d = %#x, scalar %#x", name, i, state[i], refState[i])
			}
		}
		dec, ok := rc.Recover()
		if ok != refOK || len(dec) != len(refDec) {
			t.Fatalf("%s: Recover = (%v, %v), scalar (%v, %v)", name, dec, ok, refDec, refOK)
		}
		for k, v := range refDec {
			if dec[k] != v {
				t.Fatalf("%s: decoded[%d] = %d, scalar %d", name, k, dec[k], v)
			}
		}
	}
}
