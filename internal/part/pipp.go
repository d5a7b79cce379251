package part

import (
	"fmt"

	"vantage/internal/cache"
	"vantage/internal/ctrl"
	"vantage/internal/hash"
)

// PIPP default parameters, as used in the paper's evaluation (§5):
// promotion probability 3/4, streaming promotion probability 1/128,
// streaming detection threshold 12.5%, one way per streaming application.
const (
	PIPPPromProb    = 0.75
	PIPPStreamProb  = 1.0 / 128
	PIPPStreamTheta = 0.125
)

// PIPP implements promotion/insertion pseudo-partitioning (Xie & Loh, ISCA
// 2009) on a set-associative array: each set keeps a priority chain; a
// partition with allocation π inserts new lines at priority π (counted from
// the LRU end), lines promote one position per hit with probability
// PIPPPromProb, and the victim is always the line at the LRU end of the
// chain. Streaming applications (miss ratio above PIPPStreamTheta between
// repartitions) are given a single way of insertion depth and promote with
// probability PIPPStreamProb, limiting their pollution.
//
// PIPP only approximates its allocations — the paper's Fig 8c shows its
// actual sizes swinging around the targets — and with many partitions its
// insertion positions collapse towards the LRU end (§6.1, Fig 7).
type PIPP struct {
	arr   *cache.SetAssoc
	parts int
	// chain[set*ways+k] is the line at priority k (0 = LRU) of the set.
	chain    []cache.LineID
	pos      []int16 // line -> its priority position
	insertAt []int   // partition -> insertion priority (π, in ways)
	partOf   []int16
	sizes    []int
	rng      *hash.Rand
	lines    []cache.Line // arr's backing line store
	// Streaming detection state.
	accesses, missesCnt []uint64
	streaming           []bool
	ap                  apportioner
	// live counts valid lines; nothing under this controller invalidates a
	// line, so once live reaches NumLines the per-miss free-slot scan is
	// skipped (no set can have an invalid way when the array is full).
	live int
}

// NewPIPP returns a PIPP controller over arr with parts partitions.
func NewPIPP(arr *cache.SetAssoc, parts int, seed uint64) *PIPP {
	if parts <= 0 || parts > arr.Ways() {
		panic(fmt.Sprintf("part: PIPP with %d partitions needs at least as many ways (have %d)", parts, arr.Ways()))
	}
	p := &PIPP{
		arr:       arr,
		lines:     arr.Lines(),
		parts:     parts,
		chain:     make([]cache.LineID, arr.NumLines()),
		pos:       make([]int16, arr.NumLines()),
		insertAt:  make([]int, parts),
		partOf:    make([]int16, arr.NumLines()),
		sizes:     make([]int, parts),
		rng:       hash.NewRand(seed ^ 0x9199),
		accesses:  make([]uint64, parts),
		missesCnt: make([]uint64, parts),
		streaming: make([]bool, parts),
	}
	// Initialize each set's chain to way order.
	ways := arr.Ways()
	for s := 0; s < arr.Sets(); s++ {
		for k := 0; k < ways; k++ {
			id := arr.SlotAt(s, k)
			p.chain[s*ways+k] = id
			p.pos[id] = int16(k)
		}
	}
	for i := range p.partOf {
		p.partOf[i] = -1
	}
	targets := make([]int, parts)
	per := arr.NumLines() / parts
	for i := range targets {
		targets[i] = per
	}
	p.SetTargets(targets)
	return p
}

// Name implements ctrl.Controller.
func (p *PIPP) Name() string { return "PIPP" }

// Array implements ctrl.Controller.
func (p *PIPP) Array() cache.Array { return p.arr }

// NumPartitions implements ctrl.Controller.
func (p *PIPP) NumPartitions() int { return p.parts }

// Size implements ctrl.Controller.
func (p *PIPP) Size(part int) int { return p.sizes[part] }

// InsertPosition returns partition part's current insertion priority.
func (p *PIPP) InsertPosition(part int) int { return p.insertAt[part] }

// Streaming reports whether part was classified as streaming at the last
// SetTargets call.
func (p *PIPP) Streaming(part int) bool { return p.streaming[part] }

// SetTargets implements ctrl.Controller. Targets in lines are converted to
// way allocations; the allocation becomes the insertion position. Streaming
// classification is refreshed from the access/miss counts accumulated since
// the previous call.
func (p *PIPP) SetTargets(targets []int) {
	if len(targets) != p.parts {
		panic("part: target count mismatch")
	}
	// Refresh streaming classification.
	for i := 0; i < p.parts; i++ {
		if p.accesses[i] >= 64 { // require a minimal sample
			ratio := float64(p.missesCnt[i]) / float64(p.accesses[i])
			p.streaming[i] = ratio >= PIPPStreamTheta
		}
		p.accesses[i], p.missesCnt[i] = 0, 0
	}
	ways := p.ap.apportion(targets, p.arr.Ways())
	for i, wv := range ways {
		if p.streaming[i] {
			p.insertAt[i] = 1 // one way of depth, pstream promotion
		} else {
			p.insertAt[i] = wv
		}
	}
}

// promProb returns the hit-promotion probability for partition part.
func (p *PIPP) promProb(part int) float64 {
	if p.streaming[part] {
		return PIPPStreamProb
	}
	return PIPPPromProb
}

// Access implements ctrl.Controller.
func (p *PIPP) Access(addr uint64, part int) ctrl.AccessResult {
	return p.AccessMixed(addr, hash.Mix64(addr), part)
}

// AccessMixed implements ctrl.MixedController: the set index, the candidate
// scan, and the install share one precomputed Mix64.
func (p *PIPP) AccessMixed(addr, mixed uint64, part int) ctrl.AccessResult {
	p.accesses[part]++
	ways := p.arr.Ways()
	if id, ok := p.arr.LookupMixed(addr, mixed); ok {
		// Promote one position with the partition's probability.
		if int(p.pos[id]) < ways-1 && p.rng.Float64() < p.promProb(part) {
			p.swapUp(id)
		}
		return ctrl.AccessResult{Hit: true}
	}
	p.missesCnt[part]++
	set := p.arr.SetIndexMixed(addr, mixed)
	base := set * ways
	// Victim: prefer an invalid line; otherwise the LRU end of the chain.
	// The candidates of a set-associative array are exactly its ways in way
	// order, so the set is walked directly instead of materializing them.
	victim := cache.InvalidLine
	if p.live < len(p.lines) {
		for w := 0; w < ways; w++ {
			if !p.lines[base+w].Valid {
				victim = cache.LineID(base + w)
				break
			}
		}
		if victim != cache.InvalidLine {
			p.live++ // the install below fills this free slot
		}
	}
	if victim == cache.InvalidLine {
		victim = p.chain[base]
	}
	var res ctrl.AccessResult
	if line := p.arr.Line(victim); line.Valid {
		res.EvictedValid = true
		res.Evicted = line.Addr
		if old := p.partOf[victim]; old >= 0 {
			p.sizes[old]--
		}
	}
	id, _ := p.arr.InstallMixed(addr, mixed, victim)
	p.partOf[id] = int16(part)
	p.sizes[part]++
	// Place the new line at the partition's insertion priority: move it to
	// position insertAt-1 (clamped), shifting the lines in between down.
	p.placeAt(id, clamp(p.insertAt[part]-1, 0, ways-1))
	return res
}

// swapUp exchanges line id with the line one priority above it.
func (p *PIPP) swapUp(id cache.LineID) {
	set := p.arr.SetOf(id)
	ways := p.arr.Ways()
	base := set * ways
	k := int(p.pos[id])
	other := p.chain[base+k+1]
	p.chain[base+k], p.chain[base+k+1] = other, id
	p.pos[other], p.pos[id] = int16(k), int16(k+1)
}

// placeAt moves line id to priority target within its set's chain, shifting
// the displaced lines towards id's old position.
func (p *PIPP) placeAt(id cache.LineID, target int) {
	set := p.arr.SetOf(id)
	ways := p.arr.Ways()
	base := set * ways
	cur := int(p.pos[id])
	switch {
	case cur < target:
		for k := cur; k < target; k++ {
			next := p.chain[base+k+1]
			p.chain[base+k] = next
			p.pos[next] = int16(k)
		}
	case cur > target:
		for k := cur; k > target; k-- {
			prev := p.chain[base+k-1]
			p.chain[base+k] = prev
			p.pos[prev] = int16(k)
		}
	default:
		return
	}
	p.chain[base+target] = id
	p.pos[id] = int16(target)
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

var _ ctrl.Controller = (*PIPP)(nil)
var _ ctrl.MixedController = (*PIPP)(nil)
