package prng

import (
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
)

// sweepVariants runs fn once under every kernel variant selectable on this
// machine, restoring the startup selection afterwards. Block is not
// dispatched and serves as the scalar reference.
func sweepVariants(t *testing.T, fn func(t *testing.T)) {
	prev := kernel.Active()
	t.Cleanup(func() {
		if err := kernel.Select(prev); err != nil {
			t.Fatalf("restoring kernel variant %q: %v", prev, err)
		}
	})
	for _, name := range kernel.Variants() {
		if err := kernel.Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		t.Run(name, fn)
	}
}

func TestBlockBatchVariantsMatchBlock(t *testing.T) {
	g := New(1<<16*BlockBits, rand.New(rand.NewPCG(61, 1)))
	r := rand.New(rand.NewPCG(62, 1))
	blocks := g.Blocks()

	var patterns [][]uint64
	// Consecutive runs at aligned and unaligned bases, crossing window
	// boundaries, including a run hitting the top of the address space.
	for _, base := range []uint64{0, 1, 5, 63, 64, 1000, blocks - 70} {
		for _, length := range []int{1, 2, 3, 8, 33, 64, 129} {
			run := make([]uint64, length)
			for i := range run {
				run[i] = base + uint64(i)
			}
			patterns = append(patterns, run)
		}
	}
	// Duplicates inside and between runs.
	patterns = append(patterns, []uint64{7, 7, 8, 9, 9, 9, 10, 64, 64, 65})
	// Descending, strided and random orders (no shared prefixes).
	patterns = append(patterns, []uint64{100, 99, 98, 50, 3, 2, 1, 0})
	strided := make([]uint64, 50)
	for i := range strided {
		strided[i] = uint64(i) * 37
	}
	patterns = append(patterns, strided)
	random := make([]uint64, 200)
	for i := range random {
		random[i] = r.Uint64()
	}
	patterns = append(patterns, random)
	// A mix of runs and jumps in one batch.
	patterns = append(patterns, []uint64{0, 1, 2, 3, 900, 901, 902, 17, 16, 40, 41, 42, 43, 44, 45, 46, 47, 48})

	sweepVariants(t, func(t *testing.T) {
		for pi, idx := range patterns {
			dst := make([]uint64, len(idx))
			g.BlockBatch(dst, idx)
			for i, b := range idx {
				if want := g.Block(b); dst[i] != want {
					t.Fatalf("pattern %d: BlockBatch[%d] (block %d) = %#x, Block = %#x",
						pi, i, b, dst[i], want)
				}
			}
		}
	})
}
