package workload

import (
	"fmt"

	"vantage/internal/hash"
)

// Class is a multiset of four categories, identifying one of the paper's 35
// workload classes (combinations with repetition of the 4 categories taken
// 4 at a time). The paper names classes by their letters, e.g. "sftn" or
// "ffnn".
type Class [4]Category

// String returns the paper-style class code, e.g. "sftn".
func (c Class) String() string {
	b := make([]byte, 4)
	for i, cat := range c {
		b[i] = cat.Letter()
	}
	return string(b)
}

// Classes enumerates all 35 category multisets in a deterministic order.
func Classes() []Class {
	var out []Class
	for a := Insensitive; a <= Thrashing; a++ {
		for b := a; b <= Thrashing; b++ {
			for c := b; c <= Thrashing; c++ {
				for d := c; d <= Thrashing; d++ {
					out = append(out, Class{a, b, c, d})
				}
			}
		}
	}
	return out
}

// Params scales workload parameters to a simulated cache capacity. All
// working-set sizes derive from CacheLines so the same mix definitions run
// at unit-test scale or paper scale.
type Params struct {
	// CacheLines is the shared L2 capacity in lines the mix targets.
	CacheLines int
	// PhasedFraction, in [0,1], is the probability that a cache-fitting app
	// is generated with two alternating working-set phases, exercising
	// repartitioning transients (§3.4, Fig 8). Zero (the default, used by
	// the recorded experiments) keeps all apps stationary.
	PhasedFraction float64
}

// randIn returns a pseudo-random int in [lo, hi].
func randIn(rng *hash.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// NewApp instantiates a random application of category cat, with parameters
// drawn from the category's range, deterministically from rng.
func NewApp(cat Category, p Params, rng *hash.Rand) App {
	L := p.CacheLines
	if L < 64 {
		L = 64
	}
	seed := rng.Uint64()
	switch cat {
	case Insensitive:
		// Tiny working set, sparse memory accesses: under 5 MPKI at any
		// allocation.
		ws := randIn(rng, L/64, L/16)
		if ws < 8 {
			ws = 8
		}
		alpha := 0.6 + 0.4*rng.Float64()
		return NewZipfApp(Insensitive, ws, alpha, 8, 4, seed)
	case Friendly:
		// Zipf reuse over 1-3x the cache with a mild exponent: utility is
		// spread across the whole allocation range, the gradually-decreasing
		// miss curve of the paper's cache-friendly class (strong exponents
		// would concentrate all utility in a sliver the size of a way, which
		// matches SPEC's friendly apps poorly and defeats way-granular
		// utility monitoring).
		ws := randIn(rng, L, 3*L)
		alpha := 0.3 + 0.4*rng.Float64()
		return NewZipfApp(Friendly, ws, alpha, 3, 2, seed)
	case Fitting:
		// Cyclic scan with a working set around cache capacity: a miss
		// cliff once the allocation covers it (classified "over 1MB" of the
		// 2MB cache in the paper, i.e. roughly half the cache and up).
		ws := randIn(rng, L*4/10, L*12/10)
		if ws < 16 {
			ws = 16
		}
		if p.PhasedFraction > 0 && rng.Float64() < p.PhasedFraction {
			// Two alternating working sets force UCP to re-size the
			// partition repeatedly.
			ws2 := randIn(rng, L/8, L*4/10)
			if ws2 < 16 {
				ws2 = 16
			}
			phase := randIn(rng, 20*ws, 60*ws)
			return NewPhasedApp(
				NewScanApp(Fitting, ws, 3, 4, seed),
				NewScanApp(Fitting, ws2, 3, 4, seed^0x9e),
				phase)
		}
		return NewScanApp(Fitting, ws, 3, 4, seed)
	case Thrashing:
		// Stream over a region far larger than the cache.
		region := randIn(rng, 32*L, 128*L)
		return NewStreamApp(region, 2, 2, seed)
	}
	panic("workload: unknown category")
}

// Mix is one multiprogrammed workload: an App per core plus bookkeeping.
type Mix struct {
	// ID is "<class><index>", e.g. "sftn1", following the paper's naming.
	ID    string
	Class Class
	Apps  []App
}

// NewMix builds mix number idx (0-based) of a class: appsPerSlot apps per
// class slot (1 for the 4-core config, 8 for the 32-core config), with
// random per-app parameters drawn deterministically from seed.
func NewMix(class Class, idx, appsPerSlot int, p Params, seed uint64) Mix {
	rng := hash.NewRand(hash.Mix64(seed ^ uint64(idx)<<32 ^ classKey(class)))
	m := Mix{
		ID:    fmt.Sprintf("%s%d", class, idx),
		Class: class,
	}
	for _, cat := range class {
		for k := 0; k < appsPerSlot; k++ {
			m.Apps = append(m.Apps, NewApp(cat, p, rng))
		}
	}
	return m
}

// Replay returns m unchanged.
//
// Deprecated: mixes are not recorded; read m's apps directly. Replay goes
// when the benchmark stops calling it (ROADMAP item 8).
func (m Mix) Replay() Mix { return m }

func classKey(c Class) uint64 {
	var k uint64
	for _, cat := range c {
		k = k*7 + uint64(cat)
	}
	return k
}

// ParseMixID parses a paper-style mix ID like "sftn1" into its canonical
// class (letters sorted in category order, e.g. "nfts") and mix index. The
// paper writes class letters in arbitrary order; canonicalization lets both
// spellings name the same mix.
func ParseMixID(id string) (Class, int, error) {
	if len(id) < 5 {
		return Class{}, 0, fmt.Errorf("workload: mix id %q too short", id)
	}
	var cats []Category
	for i := 0; i < 4; i++ {
		switch id[i] {
		case 'n':
			cats = append(cats, Insensitive)
		case 'f':
			cats = append(cats, Friendly)
		case 't':
			cats = append(cats, Fitting)
		case 's':
			cats = append(cats, Thrashing)
		default:
			return Class{}, 0, fmt.Errorf("workload: bad class letter %q in %q", id[i], id)
		}
	}
	idx := 0
	for i := 4; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return Class{}, 0, fmt.Errorf("workload: bad mix index in %q", id)
		}
		idx = idx*10 + int(id[i]-'0')
	}
	// Insertion-sort the four categories.
	var c Class
	copy(c[:], cats)
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c, idx, nil
}

// CanonicalMixID rewrites a paper-style mix ID into the canonical spelling
// used by Mixes, e.g. "sftn1" -> "nfts1". Invalid IDs are returned as-is.
func CanonicalMixID(id string) string {
	c, idx, err := ParseMixID(id)
	if err != nil {
		return id
	}
	return fmt.Sprintf("%s%d", c, idx)
}

// Mixes generates the paper's full workload set for a machine with
// cores cores: 35 classes × mixesPerClass mixes. cores must be a multiple
// of 4 (apps per slot = cores/4).
func Mixes(cores, mixesPerClass int, p Params, seed uint64) []Mix {
	if cores%4 != 0 || cores <= 0 {
		panic("workload: cores must be a positive multiple of 4")
	}
	perSlot := cores / 4
	var out []Mix
	for _, class := range Classes() {
		for i := 0; i < mixesPerClass; i++ {
			out = append(out, NewMix(class, i+1, perSlot, p, seed))
		}
	}
	return out
}
