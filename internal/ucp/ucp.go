// Package ucp implements utility-based cache partitioning (Qureshi & Patt,
// MICRO 2006), the allocation policy the paper drives every partitioning
// scheme with (§5): per-core UMON-DSS utility monitors estimate each
// thread's hit curve versus allocated capacity, and the Lookahead algorithm
// turns the curves into partition sizes that maximize expected hits.
//
// For way-granularity schemes (way-partitioning, PIPP) Lookahead runs in way
// units. For Vantage, which partitions at line granularity, the way-granular
// miss curves are linearly interpolated to 256 points, as the paper
// describes (§5).
package ucp

import (
	"fmt"
	"math/bits"
	"slices"

	"vantage/internal/hash"
)

// UMON is a dynamic-set-sampling utility monitor (UMON-DSS): an auxiliary
// tag directory with true-LRU stacks over a sampled subset of sets, counting
// hits per LRU stack position plus misses. The monitor observes one core's
// L2 access stream and estimates the hits the core would achieve if it had
// 1..W ways of the cache to itself.
//
// Observe runs the tag directory and returns the access's outcome as a code;
// Count applies a code to the counters. The directory never reads the
// counters, so any monitor of the same Spec can count another's codes as if
// it had observed the stream itself, and one that only counts never builds
// its directory.
type UMON struct {
	spec Spec
	// sampleMask (ratio-1) and ratioShift (log2 ratio) express the sampling
	// filter and set compaction as mask/shift: the filter runs on every
	// monitored access and a runtime-divisor modulo would dominate it.
	sampleMask int
	ratioShift uint
	h          *hash.H3
	// tags is the auxiliary tag directory, one MRU-first LRU stack of ways
	// entries per sampled set, flattened into a single backing array
	// (set s occupies tags[s*ways : (s+1)*ways]) so the per-access stack
	// walk reads contiguous memory with no per-set slice header.
	tags      []uint64
	occupancy []int
	tally     []uint64 // indexed by code-CodeMiss: misses, then hits per stack depth
	accesses  uint64
	// decision memo: whether an address maps to a sampled set (and which
	// compacted set) is a pure function of the address, so it is cached in a
	// small direct-mapped table and survives across repartition intervals.
	dec []decEntry
	// sig/sigCnt form an exact per-set presence filter over the resident
	// tags: bit 1<<(tag&63) of sig[set] is set iff sigCnt[set*64 + tag&63]
	// counts at least one resident tag mapping to that bit. A clear bit
	// proves the tag is absent, so a miss — which would otherwise scan the
	// whole stack before shifting it — skips the scan; a set bit falls
	// through to the exact scan, so hit depths are untouched.
	sig    []uint64
	sigCnt []uint8
}

// Spec is a monitor's ways, modeled sets, sampled sets and seed. Monitors of
// equal Spec observing the same addresses return the same codes.
type Spec struct {
	Ways, Sets, Sampled int
	Seed                uint64
}

// Observe codes: CodeFiltered outside the sampled sets, CodeMiss for a tag
// miss, CodeHit+k for a hit at LRU stack depth k.
const (
	CodeFiltered uint8 = iota
	CodeMiss
	CodeHit
)

// maxWays is the largest associativity whose codes fit in a uint8 (254).
const maxWays = 256 - int(CodeHit)

// decEntry is one decision-memo slot: the address and its encoded decision
// (decUnknown empty, decFiltered not sampled, else compacted set + 1). The
// 16-byte record keeps a probe within one cache line.
type decEntry struct {
	addr uint64
	set  int32
	_    int32
}

// decision-memo geometry: 512 entries (8 KiB per UMON) cover the hot working
// set of a monitored stream without crowding the cache.
const (
	decEntries  = 512
	decMask     = decEntries - 1
	decUnknown  = int32(0)
	decFiltered = int32(-1)
)

// NewUMON returns a monitor modeling a cache with the given associativity
// (at most 254) and totalSets sets, instantiating at most sampledSets
// auxiliary-tag sets (dynamic set sampling; the paper uses 64). The
// monitor's set geometry must mirror the modeled cache so per-set LRU stack
// depths are faithful. The tag directory is built on the first Observe.
func NewUMON(ways, totalSets, sampledSets int, seed uint64) *UMON {
	if ways <= 0 || ways > maxWays || totalSets <= 0 || totalSets&(totalSets-1) != 0 {
		panic(fmt.Sprintf("ucp: bad UMON geometry ways=%d sets=%d", ways, totalSets))
	}
	if sampledSets <= 0 {
		panic("ucp: need at least one sampled set")
	}
	if sampledSets > totalSets {
		sampledSets = totalSets
	}
	// Round the sampled count down to a power of two so the ratio divides.
	for totalSets%sampledSets != 0 || sampledSets&(sampledSets-1) != 0 {
		sampledSets--
	}
	ratio := totalSets / sampledSets
	return &UMON{
		spec:       Spec{Ways: ways, Sets: totalSets, Sampled: sampledSets, Seed: seed},
		sampleMask: ratio - 1,
		ratioShift: uint(bits.TrailingZeros(uint(ratio))),
		tally:      make([]uint64, 1+ways),
	}
}

// build allocates the tag directory, the decision memo and the hash.
func (u *UMON) build() {
	s := u.spec
	u.h = hash.NewH3(32, hash.Mix64(s.Seed^0x0e0e))
	u.tags = make([]uint64, s.Sampled*s.Ways)
	u.occupancy = make([]int, s.Sampled)
	u.dec = make([]decEntry, decEntries)
	u.sig = make([]uint64, s.Sampled)
	u.sigCnt = make([]uint8, s.Sampled*64)
}

// Clone returns an independent copy of the monitor, directory and counters:
// from here on it observes a stream exactly as u would. A monitor that only
// counts has no directory, and neither has its copy.
func (u *UMON) Clone() *UMON {
	c := *u // the H3 hash is read-only once built, so the copy shares it
	c.tags, c.occupancy, c.tally = slices.Clone(u.tags), slices.Clone(u.occupancy), slices.Clone(u.tally)
	c.dec, c.sig, c.sigCnt = slices.Clone(u.dec), slices.Clone(u.sig), slices.Clone(u.sigCnt)
	return &c
}

// Spec returns the monitor's geometry and seed.
func (u *UMON) Spec() Spec { return u.spec }

// Ways returns the monitor associativity.
func (u *UMON) Ways() int { return u.spec.Ways }

// SampledSets returns the number of instantiated ATD sets.
func (u *UMON) SampledSets() int { return u.spec.Sampled }

// Access feeds one address from the monitored core's access stream. Only
// addresses mapping to sampled sets touch the auxiliary tags.
func (u *UMON) Access(addr uint64) {
	u.AccessMixed(addr, hash.Mix64(addr))
}

// AccessMixed is Access with the Mix64 finalizer already applied to addr.
// Serving layers that route the same address through several hashed
// structures (shard routing, the controller's array, the UMON) compute the
// mix once and share it; the result is identical to Access(addr).
func (u *UMON) AccessMixed(addr, mixed uint64) {
	u.Count(u.Observe(addr, mixed))
}

// Observe runs one address (with mixed = hash.Mix64(addr)) through the tag
// directory and returns its code. It leaves the counters alone.
func (u *UMON) Observe(addr, mixed uint64) uint8 {
	if u.dec == nil {
		u.build()
	}
	// The sampled-set decision (H3 hash, filter mask, set compaction) is a
	// pure function of the address; consult the memo before hashing.
	var set int
	e := &u.dec[int(mixed)&decMask]
	if e.addr == addr && e.set != decUnknown {
		if e.set == decFiltered {
			return CodeFiltered
		}
		set = int(e.set) - 1
	} else {
		hv := u.h.Hash(mixed)
		modelSet := int(hv) & (u.spec.Sets - 1)
		e.addr = addr
		if modelSet&u.sampleMask != 0 {
			e.set = decFiltered
			return CodeFiltered
		}
		set = modelSet >> u.ratioShift
		e.set = int32(set) + 1
	}
	ways := u.spec.Ways
	stack := u.tags[set*ways : (set+1)*ways]
	n := u.occupancy[set]
	bit := uint64(1) << (addr & 63)
	if u.sig[set]&bit != 0 {
		// The tag may be resident: run the exact stack scan.
		for k := 0; k < n; k++ {
			if stack[k] == addr {
				copy(stack[1:k+1], stack[:k])
				stack[0] = addr
				return CodeHit + uint8(k)
			}
		}
	}
	if n < ways {
		copy(stack[1:n+1], stack[:n])
		n++
		u.occupancy[set] = n
	} else {
		evb := set<<6 | int(stack[ways-1]&63)
		if u.sigCnt[evb]--; u.sigCnt[evb] == 0 {
			u.sig[set] &^= uint64(1) << (evb & 63)
		}
		copy(stack[1:], stack[:ways-1])
	}
	stack[0] = addr
	u.sigCnt[set<<6|int(addr&63)]++
	u.sig[set] |= bit
	return CodeMiss
}

// Count applies one Observe code to the hit and miss counters.
func (u *UMON) Count(code uint8) {
	if code != CodeFiltered {
		u.accesses++
		u.tally[code-CodeMiss]++
	}
}

// HitCurve returns the estimated hits with w = 0..Ways() ways: element w is
// the number of sampled accesses that hit within LRU stack depth w.
func (u *UMON) HitCurve() []uint64 {
	curve := make([]uint64, u.spec.Ways+1)
	u.AddHitCurve(curve)
	return curve
}

// AddHitCurve adds the hit curve into dst (len Ways()+1): summed over the
// slices of an address-interleaved cache, it estimates the whole stream's.
func (u *UMON) AddHitCurve(dst []uint64) {
	var hits uint64
	for w := 1; w <= u.spec.Ways; w++ {
		hits += u.tally[w]
		dst[w] += hits
	}
}

// MissCurve returns estimated misses with w = 0..Ways() ways.
func (u *UMON) MissCurve() []uint64 {
	hc := u.HitCurve()
	total := u.tally[0] + hc[u.spec.Ways]
	out := make([]uint64, len(hc))
	for w := range hc {
		out[w] = total - hc[w]
	}
	return out
}

// Accesses returns the sampled access count since the last Decay.
func (u *UMON) Accesses() uint64 { return u.accesses }

// Reset clears the monitor completely — auxiliary-tag stacks and all
// counters — so a monitor slot can be reused for a fresh stream (e.g. a new
// tenant taking over a freed partition slot in a serving layer).
func (u *UMON) Reset() {
	for i := range u.occupancy {
		u.occupancy[i] = 0
	}
	for i := range u.sig {
		u.sig[i] = 0
	}
	for i := range u.sigCnt {
		u.sigCnt[i] = 0
	}
	for i := range u.tally {
		u.tally[i] = 0
	}
	u.accesses = 0
}

// Decay halves all counters, aging the estimates across repartitioning
// intervals as UCP prescribes.
func (u *UMON) Decay() {
	for i := range u.tally {
		u.tally[i] /= 2
	}
	u.accesses /= 2
}

// ---------------------------------------------------------------------------
// Lookahead
// ---------------------------------------------------------------------------

// Lookahead runs UCP's lookahead allocation: given per-partition hit curves
// over allocation units (curves[i][a] = expected hits of partition i with a
// units, len units+1 and monotone non-decreasing), it distributes total
// units, at least minPer each, greedily by maximum marginal utility
// (hits gained per unit, evaluated over all lookahead distances).
//
// The naive algorithm rescans every partition's full distance range on every
// pick — O(p·units) per pick, and the dominant repartitioning cost at line
// granularity (256 units). This implementation caches each partition's
// champion distance (argmax over d of marginal utility): a champion computed
// at allocation a stays the argmax while a is unchanged and the remaining
// budget still covers its distance, because shrinking the scan range cannot
// change an argmax that remains inside it. Only the picked partition (its a
// changed) and partitions whose champion distance exceeds the new remaining
// budget are rescanned. Champions are recomputed with the exact arithmetic
// and scan order of the naive loop, and ties break identically (strictly
// greater beats, so the smallest distance and then the lowest partition
// index win), so the allocation is bit-identical to the naive algorithm's.
func Lookahead(curves [][]float64, total, minPer int) []int {
	return new(Scratch).lookahead(curves, total, minPer)
}

// lookahead is Lookahead in sc's buffers; the result is sc.shares.
func (sc *Scratch) lookahead(curves [][]float64, total, minPer int) []int {
	p := len(curves)
	if p == 0 {
		return nil
	}
	if minPer*p > total {
		panic(fmt.Sprintf("ucp: cannot give %d partitions %d units each out of %d", p, minPer, total))
	}
	units := len(curves[0]) - 1
	// Champion cache: chD[i]/chMU[i] hold partition i's best (distance,
	// marginal utility) for its current allocation; chD[i] < 0 marks an
	// entry that is not current.
	alloc, chD, chMU := resize(sc.shares, p), resize(sc.chD, p), resize(sc.chMU, p)
	sc.shares, sc.chD, sc.chMU = alloc, chD, chMU
	remaining := total
	for i := range alloc {
		alloc[i], chD[i] = minPer, -1
		remaining -= minPer
	}
	for remaining > 0 {
		bestPart, bestD, bestMU := -1, 0, 0.0
		for i := 0; i < p; i++ {
			a := alloc[i]
			if a >= units {
				continue
			}
			if chD[i] < 0 || chD[i] > remaining {
				maxD := units - a
				if maxD > remaining {
					maxD = remaining
				}
				curve := curves[i]
				base := curve[a]
				d0, mu0 := 0, 0.0
				for d := 1; d <= maxD; d++ {
					mu := (curve[a+d] - base) / float64(d)
					if mu > mu0 {
						d0, mu0 = d, mu
					}
				}
				chD[i], chMU[i] = d0, mu0
			}
			if chMU[i] > bestMU {
				bestPart, bestD, bestMU = i, chD[i], chMU[i]
			}
		}
		if bestPart < 0 {
			// No partition has positive marginal utility (or all are
			// saturated): spread the remaining capacity evenly instead of
			// piling zero-utility space onto whichever partition comes
			// first.
			for i := 0; remaining > 0; i = (i + 1) % p {
				alloc[i]++
				remaining--
			}
			break
		}
		alloc[bestPart] += bestD
		remaining -= bestD
		chD[bestPart] = -1
	}
	return alloc
}

// InterpolateCurve linearly resamples a way-granularity hit curve
// (len W+1) onto n+1 points, the paper's 256-point refinement for Vantage.
func InterpolateCurve(curve []uint64, n int) []float64 {
	return interpolate(make([]float64, max(n, 0)+1), curve)
}

// interpolate is InterpolateCurve into out, whose length sets n+1.
func interpolate(out []float64, curve []uint64) []float64 {
	w, n := len(curve)-1, len(out)-1
	if w <= 0 || n <= 0 {
		panic("ucp: bad interpolation input")
	}
	for j := 0; j <= n; j++ {
		x := float64(j) * float64(w) / float64(n)
		lo := int(x)
		if lo >= w {
			out[j] = float64(curve[w])
			continue
		}
		frac := x - float64(lo)
		out[j] = float64(curve[lo])*(1-frac) + float64(curve[lo+1])*frac
	}
	return out
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

// Granularity selects the allocation units Lookahead runs in.
type Granularity int

const (
	// GranWays allocates whole ways (way-partitioning, PIPP).
	GranWays Granularity = iota
	// GranLines allocates 256ths of the partitionable capacity (Vantage).
	GranLines
)

// linePoints is the resolution of line-granularity allocation (§5).
const linePoints = 256

// Policy is the complete UCP allocation policy: one UMON per partition plus
// Lookahead, producing line-granularity targets for any partitioning scheme.
type Policy struct {
	monitors []*UMON
	gran     Granularity
	hits     [][]uint64 // per partition: Allocate's copy of its hit curve
	sc       Scratch
	targets  []int // Allocate's result, reused by the next call
}

// NewPolicy returns a UCP policy for parts partitions over a cache of
// cacheLines lines, with UMONs of the given associativity (matching the
// monitoring granularity, typically the partitioned cache's ways or the way
// count of the baseline the paper compares against) and up to 64 sampled
// sets each, mirroring the modeled cache's set count (cacheLines/ways).
func NewPolicy(parts, ways, cacheLines int, gran Granularity, seed uint64) *Policy {
	if parts <= 0 {
		panic("ucp: need at least one partition")
	}
	totalSets := cacheLines / ways
	if totalSets < 1 {
		totalSets = 1
	}
	// Round up to a power of two.
	ts := 1
	for ts < totalSets {
		ts <<= 1
	}
	p := &Policy{gran: gran, hits: make([][]uint64, parts)}
	for i := 0; i < parts; i++ {
		p.monitors = append(p.monitors, NewUMON(ways, ts, 64, hash.Mix64(seed+uint64(i))))
	}
	return p
}

// Access feeds one address of partition part's access stream into its UMON.
func (p *Policy) Access(part int, addr uint64) { p.monitors[part].Access(addr) }

// AccessMixed is Access with the Mix64 finalizer already applied to addr
// (see UMON.AccessMixed).
func (p *Policy) AccessMixed(part int, addr, mixed uint64) {
	p.monitors[part].AccessMixed(addr, mixed)
}

// Monitor exposes partition part's UMON (for tests and instrumentation).
func (p *Policy) Monitor(part int) *UMON { return p.monitors[part] }

// Allocate computes the next per-partition targets in lines, summing to
// totalLines (the partitionable capacity), and decays the monitors. The
// result is valid until the next call, which reuses it.
func (p *Policy) Allocate(totalLines int) []int {
	for i, m := range p.monitors {
		p.hits[i] = resize(p.hits[i], m.Ways()+1)
		m.AddHitCurve(p.hits[i])
		m.Decay()
	}
	p.targets = AllocateCurves(&p.sc, p.targets, p.hits, totalLines, p.gran)
	return p.targets
}

// Scratch is AllocateCurves' working memory, reused from call to call. The
// zero value is ready; a Scratch serves one call at a time.
type Scratch struct {
	idx    []int
	curves [][]float64
	points []float64 // the backing array of curves
	shares []int     // Lookahead's result
	chD    []int
	chMU   []float64
}

// resize returns s with length n, zeroed, reusing its array if it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	clear(s[:n])
	return s[:n]
}

// AllocateCurves is UCP's allocation: Lookahead distributes totalLines, in
// ways (GranWays) or in 256ths on curves interpolated to 256 points
// (GranLines), among the partitions i with a way-granular hit curve hits[i],
// at least one unit each. A nil curve gets 0, the §3.4 deletion idiom. The
// targets, summing to totalLines, are written to dst resized to len(hits).
// GranLines with more than 256 partitions refines to one unit per
// partition, so each still gets a unit (and a line, given as many lines).
func AllocateCurves(sc *Scratch, dst []int, hits [][]uint64, totalLines int, gran Granularity) []int {
	dst = resize(dst, len(hits))
	idx := sc.idx[:0]
	for i, h := range hits {
		if h != nil {
			idx = append(idx, i)
		}
	}
	if sc.idx = idx; len(idx) == 0 {
		return dst
	}
	units := max(linePoints, len(idx))
	if gran == GranWays {
		units = len(hits[idx[0]]) - 1
	} else if gran != GranLines {
		panic("ucp: unknown granularity")
	}
	sc.points = resize(sc.points, len(idx)*(units+1))
	for k, i := range idx {
		f := sc.points[k*(units+1) : (k+1)*(units+1)]
		if gran == GranLines {
			interpolate(f, hits[i])
		} else {
			for j, v := range hits[i] {
				f[j] = float64(v)
			}
		}
		sc.curves = append(sc.curves[:k], f)
	}
	shares := sc.lookahead(sc.curves, units, 1)
	for k, i := range idx {
		dst[i] = totalLines * shares[k] / units
	}
	// The shares sum to units, so rounding down leaves a drift to hand out.
	sum := 0
	for _, a := range dst {
		sum += a
	}
	for k := 0; sum < totalLines; k = (k + 1) % len(idx) {
		dst[idx[k]]++
		sum++
	}
	return dst
}
