// Package hash implements the H3 family of universal hash functions used to
// index cache arrays, as proposed by Carter and Wegman and used by the
// Vantage paper (§5) for both set-associative and zcache arrays.
//
// An H3 hash treats the input as a vector of bits; each input bit selects a
// random word that is XORed into the output. The family is universal: for a
// random member, any two distinct keys collide with probability 2^-bits.
// Good hashing is a prerequisite for the analytical framework Vantage builds
// on, because it makes the replacement candidates seen by the controller
// close to independent and uniformly distributed.
package hash

import "math/bits"

// H3 is a single member of the H3 universal hash family mapping 64-bit keys
// to values in [0, 2^outBits).
//
// Because H3 is XOR-linear in the key bits, the 64 random rows can be
// precombined into eight 256-entry tables (one per key byte), turning the
// per-bit XOR loop into eight table lookups on the hot path. The function
// computed is bit-identical to the row-per-bit definition for any seed.
type H3 struct {
	t8   [8][256]uint64
	mask uint64
}

// NewH3 returns an H3 hash with outBits output bits, drawn deterministically
// from seed. outBits must be in [1, 64].
func NewH3(outBits int, seed uint64) *H3 {
	if outBits < 1 || outBits > 64 {
		panic("hash: outBits out of range")
	}
	h := &H3{}
	if outBits == 64 {
		h.mask = ^uint64(0)
	} else {
		h.mask = (uint64(1) << uint(outBits)) - 1
	}
	s := splitMix64(seed)
	var rows [64]uint64
	for i := range rows {
		rows[i] = s.next() & h.mask
	}
	// t8[b][v] = XOR of rows[8b+i] over the set bits i of v, built
	// incrementally from the next-smaller subset.
	for b := 0; b < 8; b++ {
		for v := 1; v < 256; v++ {
			h.t8[b][v] = h.t8[b][v&(v-1)] ^ rows[8*b+bits.TrailingZeros8(uint8(v))]
		}
	}
	return h
}

// Hash returns the hash of key.
func (h *H3) Hash(key uint64) uint64 {
	return h.t8[0][byte(key)] ^
		h.t8[1][byte(key>>8)] ^
		h.t8[2][byte(key>>16)] ^
		h.t8[3][byte(key>>24)] ^
		h.t8[4][byte(key>>32)] ^
		h.t8[5][byte(key>>40)] ^
		h.t8[6][byte(key>>48)] ^
		h.t8[7][byte(key>>56)]
}

// Mask returns the output mask (2^outBits - 1).
func (h *H3) Mask() uint64 { return h.mask }

// splitMix64 is a tiny, high-quality PRNG used only to seed hash tables and
// other deterministic structures. It is the SplitMix64 generator.
type splitMix64 uint64

func (s *splitMix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a well-mixed 64-bit value derived from x. It is the SplitMix64
// finalizer and is used wherever a cheap stateless mixing function is needed
// (e.g. deriving per-way seeds).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a small deterministic PRNG (xorshift*) for simulation use. The
// standard library's math/rand would work too, but a local implementation
// keeps streams reproducible across Go versions and avoids global state.
type Rand struct {
	state uint64
}

// NewRand returns a PRNG seeded with seed (a zero seed is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("hash: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
