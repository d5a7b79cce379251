package ucp

import (
	"fmt"
	"math/bits"

	"vantage/internal/hash"
)

// UMONRRIP is the modified utility monitor the paper builds for
// Vantage-DRRIP (§6.2): auxiliary tag sets maintain RRIP state instead of
// LRU, with hit counters indexed by the line's rank in RRPV order; half of
// the sampled sets insert with SRRIP and half with BRRIP, so each interval
// the monitor can report which insertion policy serves the partition better
// (set dueling inside the monitor) in addition to the utility curve
// Lookahead needs.
type UMONRRIP struct {
	ways      int
	totalSets int
	sampled   int
	ratio     int // totalSets / sampled, a power of two
	// Mask/shift forms of the ratio, as in UMON: the sampling filter runs on
	// every monitored access.
	sampleMask int
	ratioShift uint
	h          *hash.H3
	rng        *hash.Rand
	tags       [][]uint64
	rrpv       [][]uint8
	occupancy  []int
	hits       []uint64 // per RRPV-rank position
	misses     uint64
	accesses   uint64
	// Dueling: per-half hit/access counts since the last Decay.
	halfHits [2]uint64
	halfAcc  [2]uint64
}

// NewUMONRRIP returns an RRIP utility monitor mirroring a cache with the
// given associativity and set count, sampling at most sampledSets sets.
func NewUMONRRIP(ways, totalSets, sampledSets int, seed uint64) *UMONRRIP {
	if ways <= 0 || totalSets <= 0 || totalSets&(totalSets-1) != 0 {
		panic(fmt.Sprintf("ucp: bad UMON-RRIP geometry ways=%d sets=%d", ways, totalSets))
	}
	if sampledSets <= 0 {
		panic("ucp: need at least one sampled set")
	}
	if sampledSets > totalSets {
		sampledSets = totalSets
	}
	for totalSets%sampledSets != 0 || sampledSets&(sampledSets-1) != 0 || sampledSets < 2 {
		sampledSets--
		if sampledSets == 0 {
			panic("ucp: cannot sample at least two sets")
		}
	}
	ratio := totalSets / sampledSets
	u := &UMONRRIP{
		ways:       ways,
		totalSets:  totalSets,
		sampled:    sampledSets,
		ratio:      ratio,
		sampleMask: ratio - 1,
		ratioShift: uint(bits.TrailingZeros(uint(ratio))),
		h:          hash.NewH3(32, hash.Mix64(seed^0x0e1e)),
		rng:        hash.NewRand(seed ^ 0x4449),
		tags:       make([][]uint64, sampledSets),
		rrpv:       make([][]uint8, sampledSets),
		occupancy:  make([]int, sampledSets),
		hits:       make([]uint64, ways),
	}
	for i := range u.tags {
		u.tags[i] = make([]uint64, ways)
		u.rrpv[i] = make([]uint8, ways)
		for w := range u.rrpv[i] {
			u.rrpv[i][w] = 7
		}
	}
	return u
}

// half reports whether set is a BRRIP-insertion set (odd halves duel).
func (u *UMONRRIP) half(set int) int { return set & 1 }

// Access feeds one address from the monitored partition's stream.
func (u *UMONRRIP) Access(addr uint64) {
	u.AccessMixed(addr, hash.Mix64(addr))
}

// AccessMixed is Access with the Mix64 finalizer already applied to addr
// (see UMON.AccessMixed); the result is identical to Access(addr).
func (u *UMONRRIP) AccessMixed(addr, mixed uint64) {
	hv := u.h.Hash(mixed)
	modelSet := int(hv) & (u.totalSets - 1)
	if modelSet&u.sampleMask != 0 {
		return
	}
	set := modelSet >> u.ratioShift
	u.accesses++
	u.halfAcc[u.half(set)]++
	tags, rrpvs := u.tags[set], u.rrpv[set]
	n := u.occupancy[set]
	for k := 0; k < n; k++ {
		if tags[k] == addr {
			// Hit: the utility position is the line's rank in RRPV order
			// (ties by slot order), the RRIP analogue of stack distance.
			rank := 0
			for j := 0; j < n; j++ {
				if j == k {
					continue
				}
				if rrpvs[j] < rrpvs[k] || (rrpvs[j] == rrpvs[k] && j < k) {
					rank++
				}
			}
			u.hits[rank]++
			u.halfHits[u.half(set)]++
			rrpvs[k] = 0
			return
		}
	}
	u.misses++
	// Victim: max RRPV, aging all if none is saturated.
	victim := 0
	if n < u.ways {
		victim = n
		u.occupancy[set] = n + 1
	} else {
		maxv := uint8(0)
		for k := 0; k < n; k++ {
			if rrpvs[k] > maxv {
				maxv = rrpvs[k]
				victim = k
			}
		}
		if maxv < 7 {
			for k := 0; k < n; k++ {
				rrpvs[k] += 7 - maxv
			}
		}
	}
	tags[victim] = addr
	if u.half(set) == 1 {
		// BRRIP half: distant insertion nearly always.
		if u.rng.Intn(32) == 0 {
			rrpvs[victim] = 6
		} else {
			rrpvs[victim] = 7
		}
	} else {
		rrpvs[victim] = 6 // SRRIP half
	}
}

// HitCurve returns estimated hits with 0..Ways() allocated units, by RRPV
// rank.
func (u *UMONRRIP) HitCurve() []uint64 {
	curve := make([]uint64, u.ways+1)
	for w := 1; w <= u.ways; w++ {
		curve[w] = curve[w-1] + u.hits[w-1]
	}
	return curve
}

// PreferBRRIP reports whether the BRRIP half achieved the better hit ratio
// in the current interval (the per-partition policy choice of §6.2).
func (u *UMONRRIP) PreferBRRIP() bool {
	// Compare hit ratios; insufficient samples default to SRRIP.
	if u.halfAcc[0] < 16 || u.halfAcc[1] < 16 {
		return false
	}
	return float64(u.halfHits[1])/float64(u.halfAcc[1]) >
		float64(u.halfHits[0])/float64(u.halfAcc[0])
}

// Accesses returns the sampled access count since the last Decay.
func (u *UMONRRIP) Accesses() uint64 { return u.accesses }

// Decay halves the counters across repartitioning intervals.
func (u *UMONRRIP) Decay() {
	for i := range u.hits {
		u.hits[i] /= 2
	}
	u.misses /= 2
	u.accesses /= 2
	for i := range u.halfHits {
		u.halfHits[i] /= 2
		u.halfAcc[i] /= 2
	}
}

// ---------------------------------------------------------------------------

// PolicyRRIP is the allocation policy for Vantage-DRRIP: UMON-RRIP monitors
// drive both Lookahead (via RRPV-rank hit curves interpolated to line
// granularity) and the per-partition SRRIP/BRRIP choice.
type PolicyRRIP struct {
	monitors []*UMONRRIP
	prefer   []bool
	sc       Scratch
}

// NewPolicyRRIP returns a Vantage-DRRIP allocation policy for parts
// partitions over a cache of cacheLines lines with the given monitor
// associativity.
func NewPolicyRRIP(parts, ways, cacheLines int, seed uint64) *PolicyRRIP {
	if parts <= 0 {
		panic("ucp: need at least one partition")
	}
	totalSets := cacheLines / ways
	if totalSets < 1 {
		totalSets = 1
	}
	ts := 1
	for ts < totalSets {
		ts <<= 1
	}
	p := &PolicyRRIP{prefer: make([]bool, parts)}
	for i := 0; i < parts; i++ {
		p.monitors = append(p.monitors, NewUMONRRIP(ways, ts, 64, hash.Mix64(seed+uint64(i))))
	}
	return p
}

// Access feeds one address of partition part's stream.
func (p *PolicyRRIP) Access(part int, addr uint64) { p.monitors[part].Access(addr) }

// AccessMixed is Access with the Mix64 finalizer already applied to addr.
func (p *PolicyRRIP) AccessMixed(part int, addr, mixed uint64) {
	p.monitors[part].AccessMixed(addr, mixed)
}

// Monitor exposes partition part's monitor.
func (p *PolicyRRIP) Monitor(part int) *UMONRRIP { return p.monitors[part] }

// Allocate computes line targets (like Policy.Allocate at line granularity)
// and refreshes the per-partition insertion-policy choices.
func (p *PolicyRRIP) Allocate(totalLines int) []int {
	hits := make([][]uint64, len(p.monitors))
	for i, m := range p.monitors {
		hits[i] = m.HitCurve()
		p.prefer[i] = m.PreferBRRIP()
		m.Decay()
	}
	return AllocateCurves(&p.sc, nil, hits, totalLines, GranLines)
}

// InsertionPolicies returns the current per-partition choices (true =
// BRRIP), refreshed by the last Allocate call.
func (p *PolicyRRIP) InsertionPolicies() []bool {
	out := make([]bool, len(p.prefer))
	copy(out, p.prefer)
	return out
}
