package prng

import (
	"math/rand/v2"
	"testing"
)

// boundaryAddresses returns the addresses where a window decomposition can go
// wrong: around every power of two up to the address width (each is the
// boundary of some window in some layout), the top of the address space, and
// addresses beyond it, which must wrap exactly as Block wraps them.
func boundaryAddresses(depth int, r *rand.Rand) []uint64 {
	addrs := []uint64{0, 1, 2, 3}
	for b := 0; b <= depth+2; b++ {
		p := uint64(1) << b
		addrs = append(addrs, p-1, p, p+1, p|p>>1, p|1)
	}
	blocks := uint64(1) << depth
	addrs = append(addrs, blocks-1, blocks, blocks+1, 3*blocks-1, ^uint64(0), ^uint64(0)>>1)
	for i := 0; i < 64; i++ {
		addrs = append(addrs, r.Uint64(), r.Uint64N(4*blocks))
	}
	return addrs
}

// TestWindowsMatchBlock pins the window tables to the bit-by-bit walk: for
// every generator depth 0-24, every window width cap and every low-window
// width that fits, the composed prefix followed by the low window's map is
// exactly Block — scalar (BlockAt) and through the dispatched kernel
// (BlocksAt), under every kernel variant.
func TestWindowsMatchBlock(t *testing.T) {
	sweepVariants(t, func(t *testing.T) {
		r := rand.New(rand.NewPCG(71, 1))
		for depth := 0; depth <= 24; depth++ {
			g := New(uint64(1)<<depth*BlockBits, rand.New(rand.NewPCG(72, uint64(depth))))
			if g.depth != depth {
				t.Fatalf("generator depth %d, want %d", g.depth, depth)
			}
			addrs := boundaryAddresses(depth, r)
			for wmax := 1; wmax <= 8; wmax++ {
				for low := 0; low <= min(depth, 7); low++ {
					win := newWindows(g, low, wmax)
					if win.w > wmax || len(win.top) > 1<<wmax {
						t.Fatalf("depth %d wmax %d low %d: window width %d, top %d entries", depth, wmax, low, win.w, len(win.top))
					}
					prefixes := make([]uint64, len(addrs))
					for i, b := range addrs {
						prefixes[i] = win.Prefix(b >> low)
						if got, want := win.BlockAt(prefixes[i], int(b&(1<<low-1))), g.Block(b); got != want {
							t.Fatalf("depth %d wmax %d low %d: windows give block %#x = %#x, Block %#x", depth, wmax, low, b, got, want)
						}
					}
					// One low-window value under the whole batch of prefixes.
					out := make([]uint64, len(addrs))
					for _, tv := range []int{0, 1<<low - 1, (1 << low) / 2} {
						win.BlocksAt(tv, prefixes, out)
						for i, b := range addrs {
							if want := g.Block(b>>low<<low | uint64(tv)); out[i] != want {
								t.Fatalf("depth %d wmax %d low %d: BlocksAt(%d) under prefix of %#x = %#x, Block %#x", depth, wmax, low, tv, b, out[i], want)
							}
						}
					}
				}
			}
		}
	})
}

// TestWindowsLazy: construction tabulates nothing, the first windowed call
// does, and asking for another layout replaces the tables.
func TestWindowsLazy(t *testing.T) {
	g := New(1<<20, rand.New(rand.NewPCG(73, 1)))
	if g.win != nil {
		t.Fatal("New built window tables")
	}
	g.Block(5)
	g.Bit(999)
	if g.win != nil {
		t.Fatal("Block/Bit built window tables")
	}
	w4 := g.Windows(4)
	if g.Windows(4) != w4 {
		t.Fatal("Windows(4) rebuilt an existing layout")
	}
	dst := make([]uint64, 1)
	g.BlockBatch(dst, []uint64{77})
	if g.win != w4 || dst[0] != g.Block(77) {
		t.Fatal("BlockBatch did not reuse the layout Windows chose")
	}
	if w0 := g.Windows(0); w0.low != 0 || w0.Prefix(77) != g.Block(77) {
		t.Fatal("Windows(0): the prefix is not the block")
	}
}
