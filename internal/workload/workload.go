// Package workload provides synthetic application models that reproduce the
// memory behavior of the paper's four SPEC CPU2006 categories (Table 3):
// insensitive, cache-friendly, cache-fitting, and thrashing/streaming — plus
// the multiprogrammed mix generator used by the evaluation (35 category
// classes × 10 mixes = 350 workloads per machine configuration).
//
// The paper runs real SPEC binaries under a Pin-based simulator; this
// package substitutes parameterized address-stream generators whose miss
// curves versus cache capacity have the same shapes the classification in
// Table 3 is based on:
//
//   - insensitive: tiny working set (hits in L1/L2 regardless of allocation)
//   - cache-friendly: Zipf-distributed reuse, smoothly decreasing miss curve
//   - cache-fitting: cyclic scan over a working set near cache capacity —
//     misses fall off a cliff once the allocation covers the set
//   - thrashing/streaming: sequential stream much larger than the cache
//
// All model parameters are expressed relative to the simulated L2 capacity,
// so experiments scale from unit-test sizes to paper-scale caches without
// changing workload character.
package workload

import (
	"fmt"
	"math"

	"vantage/internal/hash"
)

// Category is the paper's Table 3 workload classification.
type Category int

const (
	// Insensitive apps (paper class "n") miss under 5 MPKI at any size.
	Insensitive Category = iota
	// Friendly apps ("f") benefit gradually from additional capacity.
	Friendly
	// Fitting apps ("t") have a sharp miss cliff near their working-set size.
	Fitting
	// Thrashing apps ("s") see no benefit from any realistic allocation.
	Thrashing
)

// Letter returns the paper's one-letter class code (n/f/t/s).
func (c Category) Letter() byte {
	switch c {
	case Insensitive:
		return 'n'
	case Friendly:
		return 'f'
	case Fitting:
		return 't'
	case Thrashing:
		return 's'
	}
	return '?'
}

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Insensitive:
		return "insensitive"
	case Friendly:
		return "cache-friendly"
	case Fitting:
		return "cache-fitting"
	case Thrashing:
		return "thrashing/streaming"
	}
	return "unknown"
}

// App generates one core's instruction and memory-reference stream.
// Implementations are deterministic given their construction seed.
type App interface {
	// Name identifies the app instance, e.g. "f:zipf-ws8192-a0.9".
	Name() string
	// Category returns the Table 3 class.
	Category() Category
	// Next returns the number of non-memory instructions executed before
	// the next memory reference, and the referenced line address (block
	// address, without the core's address-space tag).
	Next() (gap int, addr uint64)
}

// BatchApp is implemented by apps that can generate many references at once.
// NextBatch fills gaps and addrs (which must have equal lengths) with the
// next len(gaps) references and leaves the app in exactly the state that
// many successive Next calls would: every PRNG stream advances by the same
// draws in the same order, so both the filled values and all subsequent
// output are bit-identical to the per-call path. Batching exists purely to
// amortize call overhead (interface dispatch, closure calls, per-draw
// bookkeeping) around the irreducible per-sample math.
type BatchApp interface {
	App
	NextBatch(gaps []int32, addrs []uint64)
}

// fillRefs advances src by len(gaps) references into the buffers, using the
// batched generator when src supports it.
func fillRefs(src App, gaps []int32, addrs []uint64) {
	if b, ok := src.(BatchApp); ok {
		b.NextBatch(gaps, addrs)
		return
	}
	for i := range gaps {
		g, a := src.Next()
		if g > math.MaxInt32 {
			panic("workload: instruction gap overflows int32")
		}
		gaps[i] = int32(g)
		addrs[i] = a
	}
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

// burster adds spatial locality: each generated line address is accessed
// burst times in a row (the L1 absorbs the repeats, as word accesses within
// a cache line would).
type burster struct {
	remaining int
	last      uint64
}

func (b *burster) next(gen func() uint64, burst int) uint64 {
	if b.remaining > 0 {
		b.remaining--
		return b.last
	}
	b.last = gen()
	b.remaining = burst - 1
	return b.last
}

// gapGen produces geometrically distributed instruction gaps with the given
// mean, approximating a fixed memory-instruction fraction.
type gapGen struct {
	rng  *hash.Rand
	mean float64
	// logQ caches math.Log(1-p) for the instance's success probability.
	// Dividing by the cached value is the same float64 operation as
	// dividing by a freshly computed one, so samples are bit-identical;
	// caching halves the math.Log calls on the per-reference path.
	logQ float64
}

func (g *gapGen) next() int {
	if g.mean <= 0 {
		return 0
	}
	if g.logQ == 0 {
		// Geometric via inversion; mean = (1-p)/p with success prob p.
		p := 1 / (1 + g.mean)
		g.logQ = math.Log(1 - p)
	}
	u := g.rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return int(math.Log(1-u) / g.logQ)
}

// nextBatch draws len(out) gaps in one tight loop. Each sample performs the
// identical float64 operations (and consumes the identical rng draws) as
// next, so the batch is bit-identical to len(out) sequential calls; the
// per-call branches and pointer chasing are hoisted out of the loop.
func (g *gapGen) nextBatch(out []int32) {
	if g.mean <= 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	if g.logQ == 0 {
		p := 1 / (1 + g.mean)
		g.logQ = math.Log(1 - p)
	}
	rng, logQ := g.rng, g.logQ
	for i := range out {
		u := rng.Float64()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		v := int(math.Log(1-u) / logQ)
		if v > math.MaxInt32 {
			panic("workload: instruction gap overflows int32")
		}
		out[i] = int32(v)
	}
}

// ZipfApp models cache-friendly behavior: accesses are Zipf-distributed
// over lines lines with exponent alpha, giving a smooth, heavy-tailed reuse
// pattern and a gradually decreasing miss curve.
type ZipfApp struct {
	name  string
	cat   Category
	rng   *hash.Rand
	gaps  gapGen
	burst int
	b     burster
	cdf   []float64
	perm  []uint32 // rank -> address permutation, so hot lines spread out
	// guide is an inverse-CDF index: guide[k] is the lower bound of k/K in
	// cdf (K = len(guide)-1), so a draw u only needs a binary search within
	// [guide[k], guide[k+1]] for its bucket k. The lower bound an u resolves
	// to is a pure function of (cdf, u) — the same index whatever search
	// range finds it — so the guided search is bit-identical to a full one.
	guide []uint32
	lines uint64
}

// NewZipfApp returns a Zipf-reuse app over lines lines with exponent alpha.
func NewZipfApp(cat Category, lines int, alpha float64, gapMean float64, burst int, seed uint64) *ZipfApp {
	if lines <= 0 || alpha < 0 || burst < 1 {
		panic("workload: bad zipf parameters")
	}
	a := &ZipfApp{
		name:  fmt.Sprintf("%c:zipf-ws%d-a%.2f", cat.Letter(), lines, alpha),
		cat:   cat,
		rng:   hash.NewRand(seed),
		gaps:  gapGen{rng: hash.NewRand(seed ^ 0x6a9), mean: gapMean},
		burst: burst,
		cdf:   make([]float64, lines),
		perm:  make([]uint32, lines),
		lines: uint64(lines),
	}
	sum := 0.0
	for i := 0; i < lines; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		a.cdf[i] = sum
	}
	for i := range a.cdf {
		a.cdf[i] /= sum
	}
	// Build the guide table with one merge pass: advance i to the first rank
	// with cdf[i] >= k/K for each bucket boundary. K = lines keeps the table
	// a third the size of the cdf while leaving head buckets (where the Zipf
	// mass concentrates) only a handful of ranks wide.
	a.guide = make([]uint32, lines+1)
	scale := float64(lines)
	i := 0
	for k := 1; k <= lines; k++ {
		b := float64(k) / scale
		for i < lines-1 && a.cdf[i] < b {
			i++
		}
		a.guide[k] = uint32(i)
	}
	// A Fisher-Yates permutation maps popularity ranks to addresses, so the
	// hot lines are spread across the address space (a hash mod lines is
	// not injective and would shrink the working set by ~1/e).
	prng := hash.NewRand(hash.Mix64(seed ^ 0x51cada))
	for i := range a.perm {
		a.perm[i] = uint32(i)
	}
	for i := lines - 1; i > 0; i-- {
		j := prng.Intn(i + 1)
		a.perm[i], a.perm[j] = a.perm[j], a.perm[i]
	}
	return a
}

// Name implements App.
func (a *ZipfApp) Name() string { return a.name }

// Category implements App.
func (a *ZipfApp) Category() Category { return a.cat }

// drawLine draws one Zipf-distributed line address: the permutation
// scrambles the drawn rank into an address so that hot lines don't cluster
// in nearby sets.
func (a *ZipfApp) drawLine() uint64 {
	return uint64(a.perm[a.rank(a.rng.Float64())]) + 1
}

// Next implements App.
func (a *ZipfApp) Next() (int, uint64) {
	addr := a.b.next(a.drawLine, a.burst)
	return a.gaps.next(), addr
}

// NextBatch implements BatchApp. Rank draws (a.rng) and gap draws
// (a.gaps.rng) come from independent generators, so filling the address run
// first and the gap run second consumes each stream in exactly the per-call
// order and the batch is bit-identical to len(gaps) Next calls.
func (a *ZipfApp) NextBatch(gaps []int32, addrs []uint64) {
	if len(gaps) != len(addrs) {
		panic("workload: NextBatch buffer lengths differ")
	}
	rem, last := a.b.remaining, a.b.last
	for i := range addrs {
		if rem > 0 {
			rem--
		} else {
			last = a.drawLine()
			rem = a.burst - 1
		}
		addrs[i] = last
	}
	a.b.remaining, a.b.last = rem, last
	a.gaps.nextBatch(gaps)
}

// rank returns the lower bound of u in the CDF: the smallest rank i with
// cdf[i] >= u. The guide table narrows the binary search to u's bucket; the
// nudge handles int(u*scale) rounding into a neighboring bucket (off by at
// most one, since the product's error is below one ulp).
func (a *ZipfApp) rank(u float64) int {
	scale := float64(len(a.guide) - 1)
	k := int(u * scale)
	if k >= len(a.guide)-1 {
		k = len(a.guide) - 2
	}
	if u < float64(k)/scale {
		k--
	} else if u >= float64(k+1)/scale {
		k++
	}
	lo, hi := int(a.guide[k]), int(a.guide[k+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if a.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ScanApp models cache-fitting behavior: a cyclic scan over a fixed working
// set. Under LRU a cyclic scan gets zero hits until the allocation covers
// the whole set, then hits everything — the sharp cliff of the paper's
// cache-fitting class.
type ScanApp struct {
	name  string
	cat   Category
	gaps  gapGen
	burst int
	b     burster
	pos   uint64
	lines uint64
}

// NewScanApp returns a cyclic-scan app over lines lines.
func NewScanApp(cat Category, lines int, gapMean float64, burst int, seed uint64) *ScanApp {
	if lines <= 0 || burst < 1 {
		panic("workload: bad scan parameters")
	}
	return &ScanApp{
		name:  fmt.Sprintf("%c:scan-ws%d", cat.Letter(), lines),
		cat:   cat,
		gaps:  gapGen{rng: hash.NewRand(seed ^ 0x5ca), mean: gapMean},
		burst: burst,
		lines: uint64(lines),
	}
}

// Name implements App.
func (a *ScanApp) Name() string { return a.name }

// Category implements App.
func (a *ScanApp) Category() Category { return a.cat }

// Next implements App.
func (a *ScanApp) Next() (int, uint64) {
	addr := a.b.next(func() uint64 {
		a.pos = (a.pos + 1) % a.lines
		return a.pos + 1
	}, a.burst)
	return a.gaps.next(), addr
}

// NextBatch implements BatchApp (see ZipfApp.NextBatch for the equivalence
// argument; the scan position is not random at all).
func (a *ScanApp) NextBatch(gaps []int32, addrs []uint64) {
	if len(gaps) != len(addrs) {
		panic("workload: NextBatch buffer lengths differ")
	}
	rem, last, pos := a.b.remaining, a.b.last, a.pos
	for i := range addrs {
		if rem > 0 {
			rem--
		} else {
			pos = (pos + 1) % a.lines
			last = pos + 1
			rem = a.burst - 1
		}
		addrs[i] = last
	}
	a.b.remaining, a.b.last, a.pos = rem, last, pos
	a.gaps.nextBatch(gaps)
}

// StreamApp models thrashing/streaming behavior: a sequential walk over a
// region far larger than any cache, with optional wraparound.
type StreamApp struct {
	name   string
	gaps   gapGen
	burst  int
	b      burster
	pos    uint64
	region uint64
}

// NewStreamApp returns a streaming app over region lines.
func NewStreamApp(region int, gapMean float64, burst int, seed uint64) *StreamApp {
	if region <= 0 || burst < 1 {
		panic("workload: bad stream parameters")
	}
	return &StreamApp{
		name:   fmt.Sprintf("s:stream-%d", region),
		gaps:   gapGen{rng: hash.NewRand(seed ^ 0x57e), mean: gapMean},
		burst:  burst,
		region: uint64(region),
	}
}

// Name implements App.
func (a *StreamApp) Name() string { return a.name }

// Category implements App.
func (a *StreamApp) Category() Category { return Thrashing }

// Next implements App.
func (a *StreamApp) Next() (int, uint64) {
	addr := a.b.next(func() uint64 {
		a.pos = (a.pos + 1) % a.region
		return a.pos + 1
	}, a.burst)
	return a.gaps.next(), addr
}

// NextBatch implements BatchApp (see ZipfApp.NextBatch for the equivalence
// argument; the stream position is not random at all).
func (a *StreamApp) NextBatch(gaps []int32, addrs []uint64) {
	if len(gaps) != len(addrs) {
		panic("workload: NextBatch buffer lengths differ")
	}
	rem, last, pos := a.b.remaining, a.b.last, a.pos
	for i := range addrs {
		if rem > 0 {
			rem--
		} else {
			pos = (pos + 1) % a.region
			last = pos + 1
			rem = a.burst - 1
		}
		addrs[i] = last
	}
	a.b.remaining, a.b.last, a.pos = rem, last, pos
	a.gaps.nextBatch(gaps)
}

// PhasedApp alternates between two inner apps every phaseLen memory
// references, modeling time-varying behavior (the transients that exercise
// repartitioning in Fig 8).
type PhasedApp struct {
	name     string
	cat      Category
	a, b     App
	phaseLen int
	count    int
	inB      bool
}

// NewPhasedApp returns an app that alternates between a and b every
// phaseLen references. Its category is a's.
func NewPhasedApp(a, b App, phaseLen int) *PhasedApp {
	if phaseLen <= 0 {
		panic("workload: bad phase length")
	}
	return &PhasedApp{
		name:     fmt.Sprintf("%s|%s", a.Name(), b.Name()),
		cat:      a.Category(),
		a:        a,
		b:        b,
		phaseLen: phaseLen,
	}
}

// Name implements App.
func (p *PhasedApp) Name() string { return p.name }

// Category implements App.
func (p *PhasedApp) Category() Category { return p.cat }

// Next implements App.
func (p *PhasedApp) Next() (int, uint64) {
	p.count++
	if p.count >= p.phaseLen {
		p.count = 0
		p.inB = !p.inB
	}
	if p.inB {
		return p.b.Next()
	}
	return p.a.Next()
}

// NextBatch implements BatchApp. Phase switches depend only on the reference
// count, so the per-call path is reproduced exactly; the inner apps draw in
// the same interleaved order as under Next.
func (p *PhasedApp) NextBatch(gaps []int32, addrs []uint64) {
	if len(gaps) != len(addrs) {
		panic("workload: NextBatch buffer lengths differ")
	}
	for i := range gaps {
		g, a := p.Next()
		if g > math.MaxInt32 {
			panic("workload: instruction gap overflows int32")
		}
		gaps[i] = int32(g)
		addrs[i] = a
	}
}
