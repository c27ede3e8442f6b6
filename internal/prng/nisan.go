// Package prng implements Nisan's pseudorandom generator for space-bounded
// computation (Nisan, STOC 1990), which Theorem 2 of the paper uses to
// derandomize the L0 sampler: the generator stretches an O(log^2 n)-bit seed
// into poly(n) bits that fool every logspace tester, including the one that
// checks which index the sampler would output for a fixed support J.
//
// Construction. Pick a block width w and a depth d. The seed is an initial
// block x0 plus d independent pairwise-independent hash functions
// h_1, ..., h_d : {0,1}^w -> {0,1}^w. The output is defined recursively by
//
//	G_0(x) = x
//	G_j(x) = G_{j-1}(x) || G_{j-1}(h_j(x))
//
// so G_d produces 2^d blocks of w bits from a seed of (2d+1)w bits. Crucially
// the construction supports random access: block b is obtained from x0 by
// applying h_j for every set bit j of b, top level first — O(d) field
// operations per block (Block). The L0 sampler exploits this to query
// level-membership bits per update without materializing the stream of bits.
//
// We realize blocks as elements of GF(2^61-1) (w = 61) and the pairwise
// hashes as affine maps a*x+b over the field, the standard instantiation.
//
// Windowed random access. Every h_j is affine, so the map applied by any
// contiguous field of address bits is itself one affine pair (A, B) per value
// of the field — a pure function of the seed. Windows tabulates those pairs
// for a partition of the address into a low window and a few wider ones
// above it (the top one stored as states, x0 already applied): a block is
// then one table entry per window, composed high to low, instead of a walk
// over all d bits, and the blocks hi<<low | t of one prefix hi are
// independent affine images A_t·P(hi) + B_t of the one composed prefix state
// P(hi). The L0 sampler lays its per-coordinate membership blocks out
// exactly so (hi = coordinate, t = level); BlockBatch is the same
// composition for arbitrary address lists.
package prng

import (
	"math/rand/v2"

	"repro/internal/field"
	"repro/internal/kernel"
)

// BlockBits is the width w of one output block.
const BlockBits = 61

// Nisan is an instance of Nisan's generator with random block access.
//
// Block and Bit are pure and safe for concurrent use. Windows and BlockBatch
// build and cache the generator's window tables on first use and must not
// race with each other (one goroutine per generator, the same discipline
// the sketches' scratch buffers already follow); a *Windows, once built, is
// read-only.
type Nisan struct {
	depth int
	x0    field.Elem
	ha    []field.Elem // multipliers of h_1..h_depth
	hb    []field.Elem // offsets of h_1..h_depth

	// win is the window-table set built by the first Windows or BlockBatch
	// call — never by New, so a generator that is only constructed (every
	// sketch the serving tier loads to merge or query) carries its seed
	// and nothing else.
	win *Windows
}

// New constructs a generator able to emit at least outputBits pseudorandom
// bits, drawing its seed from r. The depth (and hence the seed size) grows
// logarithmically with outputBits: seed = (2d+1) * 61 bits = O(log^2 n) when
// outputBits = poly(n) and w = Theta(log n).
func New(outputBits uint64, r *rand.Rand) *Nisan {
	blocks := (outputBits + BlockBits - 1) / BlockBits
	depth := 0
	for uint64(1)<<depth < blocks {
		depth++
	}
	g := &Nisan{
		depth: depth,
		x0:    field.New(r.Uint64()),
		ha:    make([]field.Elem, depth),
		hb:    make([]field.Elem, depth),
	}
	for j := 0; j < depth; j++ {
		// Multiplier must be nonzero for the map to be a bijection.
		a := field.New(r.Uint64())
		for a == 0 {
			a = field.New(r.Uint64())
		}
		g.ha[j] = a
		g.hb[j] = field.New(r.Uint64())
	}
	return g
}

// Blocks returns the number of addressable blocks, 2^depth.
func (g *Nisan) Blocks() uint64 { return 1 << g.depth }

// Block returns the b-th 61-bit output block. Blocks beyond Blocks()-1 wrap
// around (callers size the generator so this does not happen in practice).
func (g *Nisan) Block(b uint64) uint64 {
	if g.depth > 0 {
		b &= (1 << g.depth) - 1
	} else {
		b = 0
	}
	x := g.x0
	// Top level chooses first: bit depth-1 of b selects whether h_depth is
	// applied, then recursion continues on lower levels.
	for j := g.depth; j >= 1; j-- {
		if b&(1<<(j-1)) != 0 {
			x = field.Add(field.Mul(g.ha[j-1], x), g.hb[j-1])
		}
	}
	return uint64(x)
}

// maxWindow caps the width of a window above the low one: 64 affine pairs,
// 1 KiB. A 17-bit prefix (the L0 sampler at n = 2^16) splits 5+6+6 — 2.25 KiB
// of tables and two multiplies per prefix; one bit wider would double the
// tables to save nothing, one narrower adds a multiply to save 1 KiB.
const maxWindow = 6

// Windows is a generator's random-access map tabulated per window of address
// bits: the low window (bits [0, low)) as affine pairs, equal windows above
// it as affine pairs, and the top window as states. Read-only once built.
type Windows struct {
	low    int    // width of the low window
	hiBits int    // address bits above it, depth-low
	w      int    // width of each window above the low one, but for the top
	nmid   int    // number of pair windows between the low and the top one
	mask   uint64 // 2^w - 1

	// top[v] is the state after the top window reads value v (x0 with the
	// selected h_j applied); its width is hiBits - nmid·w <= w.
	top []field.Elem
	// mid holds window k < nmid, value v as the pair A, B at 2(k<<w | v):
	// the state x entering that window leaves it as A·x + B.
	mid []field.Elem
	// lowMap[t] = {B_t, A_t}: the low window reading t maps the prefix
	// state P to block A_t·P + B_t. Ascending coefficient order, so each
	// entry is directly the degree-1 polynomial kernel.PolyEvalBatch takes
	// (and lives on the heap, where the kernel table's indirect call needs
	// its slice arguments to be).
	lowMap [][2]uint64
}

// Windows returns the generator's window tables with the low `low` address
// bits as the low window, building them on first use (and rebuilding if a
// different low width is asked for — one layout per generator is the
// expected use). low = 0 means no low window: Prefix is then the block.
func (g *Nisan) Windows(low int) *Windows {
	if g.win == nil || g.win.low != low {
		g.win = newWindows(g, low, maxWindow)
	}
	return g.win
}

// newWindows tabulates g with a low window of width low and the remaining
// depth-low bits split evenly into the fewest windows of width at most wmax.
func newWindows(g *Nisan, low, wmax int) *Windows {
	if low < 0 || low > g.depth {
		panic("prng: low window wider than the address")
	}
	hiBits := g.depth - low
	nwin := max(1, (hiBits+wmax-1)/wmax)
	w := (hiBits + nwin - 1) / nwin
	win := &Windows{low: low, hiBits: hiBits, w: w, nmid: nwin - 1, mask: 1<<w - 1}

	// Top window: bits [low+nmid·w, depth), seeded with the constant map
	// x -> x0 so that the composed pairs are the states themselves.
	top := g.compose(low+win.nmid*w, g.depth, 0, g.x0)
	win.top = make([]field.Elem, len(top)/2)
	for v := range win.top {
		win.top[v] = top[2*v+1]
	}
	win.mid = make([]field.Elem, 0, 2*win.nmid<<w)
	for k := 0; k < win.nmid; k++ {
		win.mid = append(win.mid, g.compose(low+k*w, low+(k+1)*w, 1, 0)...)
	}
	lowPairs := g.compose(0, low, 1, 0)
	win.lowMap = make([][2]uint64, 1<<low)
	for t := range win.lowMap {
		win.lowMap[t] = [2]uint64{uint64(lowPairs[2*t+1]), uint64(lowPairs[2*t])}
	}
	return win
}

// compose returns, for every value v of the address bits [lo, hi), the affine
// map those bits apply — h_j for each set bit, highest first, as in Block —
// composed onto the map x -> a0·x + b0, as pairs A, B at 2v. Built top bit
// down by doubling: the maps for the top m bits extend by one bit as
// (A, B) -> (A, B) when it is clear and h∘(A, B) = (a·A, a·B + b) when set.
func (g *Nisan) compose(lo, hi int, a0, b0 field.Elem) []field.Elem {
	pairs := make([]field.Elem, 2<<(hi-lo))
	pairs[0], pairs[1] = a0, b0
	for j, m := hi, 1; j > lo; j, m = j-1, 2*m {
		a, b := g.ha[j-1], g.hb[j-1]
		for v := m - 1; v >= 0; v-- {
			A, B := pairs[2*v], pairs[2*v+1]
			pairs[4*v], pairs[4*v+1] = A, B
			pairs[4*v+2], pairs[4*v+3] = field.Mul(a, A), field.Add(field.Mul(a, B), b)
		}
	}
	return pairs
}

// Prefix returns P(hi): the generator state after the address bits above the
// low window read hi — one table entry per window, composed high to low.
// Block(hi<<low | t) is BlockAt(P(hi), t); with low = 0 it is P(hi) itself.
// Bits of hi beyond the address width are ignored, as Block ignores them.
func (w *Windows) Prefix(hi uint64) uint64 {
	hi &= 1<<w.hiBits - 1
	x := w.top[hi>>(w.nmid*w.w)]
	for k := w.nmid - 1; k >= 0; k-- {
		e := w.mid[2*(uint64(k)<<w.w|hi>>(k*w.w)&w.mask):]
		x = field.Add(field.Mul(e[0], x), e[1])
	}
	return uint64(x)
}

// BlockAt returns the block at address hi<<low | t given prefix = P(hi).
func (w *Windows) BlockAt(prefix uint64, t int) uint64 {
	m := &w.lowMap[t]
	return uint64(field.Add(field.Mul(field.Elem(m[1]), field.Elem(prefix)), field.Elem(m[0])))
}

// BlocksAt writes BlockAt(prefixes[j], t) into out[j] for every j: the
// blocks one low-window value t selects under a batch of prefixes, as one
// degree-1 Horner pass of the dispatched polynomial kernel (8 lanes wide on
// AVX-512 IFMA). len(out) must be at least len(prefixes).
func (w *Windows) BlocksAt(t int, prefixes, out []uint64) {
	kernel.PolyEvalBatch(w.lowMap[t][:], prefixes, out)
}

// BlockBatch writes Block(idx[t]) into dst[t] for every t through the
// generator's window tables (built on the first call, with a low window of
// maxWindow bits unless Windows chose another layout first). Consecutive
// addresses that share everything above the low window — a run inside one
// aligned 2^low block, the shape of one L0 update's membership blocks —
// share one composed prefix and cost a single multiply-add each; any other
// order is correct and pays the prefix composition per address. Every output
// is the same exact field-arithmetic composition Block computes, so results
// are bit-identical to it. dst and idx must have equal length. Nothing
// allocates after the first call.
func (g *Nisan) BlockBatch(dst []uint64, idx []uint64) {
	if len(dst) != len(idx) {
		panic("prng: BlockBatch dst/idx length mismatch")
	}
	w := g.win
	if w == nil {
		w = g.Windows(min(maxWindow, g.depth))
	}
	low, lowMask, hiMask := w.low, uint64(1)<<w.low-1, uint64(1)<<w.hiBits-1
	var prefix uint64
	prevHi := ^uint64(0) // no masked prefix address has all bits set
	for t, b := range idx {
		if hi := b >> low & hiMask; hi != prevHi {
			prefix, prevHi = w.Prefix(hi), hi
		}
		dst[t] = w.BlockAt(prefix, int(b&lowMask))
	}
}

// Threshold converts an inclusion probability q into an integer cutoff T
// such that a block value v is "in" iff v < T, with P(v < T) = T/Modulus for
// a uniform block — within 2^-53 relative of q, the float mantissa budget,
// and clamped so q >= 1 always includes (every block is < Modulus). The
// compare replaces the Float64At division of the membership tests with one
// integer comparison.
func Threshold(q float64) uint64 {
	if q >= 1 {
		return field.Modulus
	}
	if q <= 0 {
		return 0
	}
	return uint64(q * float64(field.Modulus))
}

// Bit returns the i-th pseudorandom bit of the output stream.
func (g *Nisan) Bit(i uint64) bool {
	return g.Block(i/BlockBits)>>(i%BlockBits)&1 == 1
}

// Float64At interprets block b as a uniform real in (0,1].
func (g *Nisan) Float64At(b uint64) float64 {
	return (float64(g.Block(b)) + 1) / float64(field.Modulus)
}

// SeedBits reports the true seed size: the initial block plus (a,b) per level.
func (g *Nisan) SeedBits() int64 {
	return int64(2*g.depth+1) * BlockBits
}
