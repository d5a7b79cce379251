package part

import (
	"fmt"

	"vantage/internal/cache"
	"vantage/internal/ctrl"
	"vantage/internal/repl"
)

// SetPartition implements set-partitioning (reconfigurable caches /
// molecular caches, Table 1): each partition owns a contiguous range of
// sets, and a partition's fills are redirected into its own sets. Unlike
// way-partitioning it preserves full associativity within each partition,
// but allocations are coarse (multiples of a set), resizing requires
// scrubbing (flushing the moved sets), and the scheme assumes fully
// disjoint address spaces — all drawbacks §2 of the paper catalogs.
//
// The implementation redirects the set index: an access by partition p maps
// to set firstSet[p] + (nativeSet mod sets[p]). Scrubbing on resize is
// modeled by invalidating every line in reassigned sets; the ScrubbedLines
// counter exposes the cost.
type SetPartition struct {
	arr      *cache.SetAssoc
	pol      *repl.LRUTimestamp
	parts    int
	firstSet []int
	numSets  []int
	sizes    []int
	partOf   []int16
	cands    []cache.LineID
	// SetTargets' scratch: the set apportioning and each set's old owner.
	ap       apportioner
	oldOwner []int16
	// ScrubbedLines counts lines flushed by repartitioning.
	ScrubbedLines uint64
}

// NewSetPartition returns a set-partitioning controller over arr with parts
// partitions. arr must have at least parts sets.
func NewSetPartition(arr *cache.SetAssoc, parts int) *SetPartition {
	if parts <= 0 || parts > arr.Sets() {
		panic(fmt.Sprintf("part: %d partitions need at least as many sets (have %d)", parts, arr.Sets()))
	}
	s := &SetPartition{
		arr:      arr,
		pol:      repl.NewLRUTimestamp(arr.NumLines()),
		parts:    parts,
		firstSet: make([]int, parts),
		numSets:  make([]int, parts),
		sizes:    make([]int, parts),
		partOf:   make([]int16, arr.NumLines()),
		oldOwner: make([]int16, arr.Sets()),
	}
	for i := range s.partOf {
		s.partOf[i] = -1
	}
	targets := make([]int, parts)
	per := arr.NumLines() / parts
	for i := range targets {
		targets[i] = per
	}
	s.SetTargets(targets)
	return s
}

// Name implements ctrl.Controller.
func (s *SetPartition) Name() string { return "SetPart" }

// Array implements ctrl.Controller.
func (s *SetPartition) Array() cache.Array { return s.arr }

// NumPartitions implements ctrl.Controller.
func (s *SetPartition) NumPartitions() int { return s.parts }

// Size implements ctrl.Controller.
func (s *SetPartition) Size(part int) int { return s.sizes[part] }

// SetsOf returns the number of sets partition part currently owns.
func (s *SetPartition) SetsOf(part int) int { return s.numSets[part] }

// SetTargets implements ctrl.Controller: line targets are rounded to whole
// sets (largest remainder, at least one set each); sets that change owner
// are scrubbed.
func (s *SetPartition) SetTargets(targets []int) {
	if len(targets) != s.parts {
		panic("part: target count mismatch")
	}
	// Reuse the way-apportioning logic over sets.
	setsPer := s.ap.apportion(targets, s.arr.Sets())
	// Record the old owner of each set to detect reassignment.
	oldOwner := s.oldOwner
	for i := range oldOwner {
		oldOwner[i] = -1
	}
	for p := 0; p < s.parts; p++ {
		for k := 0; k < s.numSets[p]; k++ {
			oldOwner[s.firstSet[p]+k] = int16(p)
		}
	}
	first := 0
	for p, n := range setsPer {
		resized := n != s.numSets[p] || first != s.firstSet[p]
		s.firstSet[p], s.numSets[p] = first, n
		for k := 0; k < n; k++ {
			set := first + k
			// Scrub on ownership change, and also when the partition's own
			// range moved or changed size: the modulo mapping of addresses
			// to its sets is different, so resident lines are unreachable.
			if oldOwner[set] != int16(p) || resized {
				s.scrubSet(set)
			}
		}
		first += n
	}
}

// scrubSet flushes every valid line in a set (the data-movement cost of
// resizing a set-partitioned cache).
func (s *SetPartition) scrubSet(set int) {
	for w := 0; w < s.arr.Ways(); w++ {
		id := s.arr.SlotAt(set, w)
		if s.arr.Line(id).Valid {
			if old := s.partOf[id]; old >= 0 {
				s.sizes[old]--
				s.partOf[id] = -1
			}
			s.arr.Invalidate(id)
			s.pol.OnEvict(id)
			s.ScrubbedLines++
		}
	}
}

// redirect maps an access by part to its partition's set range.
func (s *SetPartition) redirect(addr uint64, part int) int {
	native := s.arr.SetIndex(addr)
	return s.firstSet[part] + native%s.numSets[part]
}

// Access implements ctrl.Controller.
func (s *SetPartition) Access(addr uint64, part int) ctrl.AccessResult {
	set := s.redirect(addr, part)
	// Lookup within the redirected set only.
	hitID := cache.InvalidLine
	for w := 0; w < s.arr.Ways(); w++ {
		id := s.arr.SlotAt(set, w)
		if l := s.arr.Line(id); l.Valid && l.Addr == addr {
			hitID = id
			break
		}
	}
	if hitID != cache.InvalidLine {
		s.pol.OnHit(hitID, part)
		return ctrl.AccessResult{Hit: true}
	}
	// Miss: victim among the redirected set's ways.
	victim := cache.InvalidLine
	s.cands = s.cands[:0]
	for w := 0; w < s.arr.Ways(); w++ {
		id := s.arr.SlotAt(set, w)
		if !s.arr.Line(id).Valid {
			victim = id
			break
		}
		s.cands = append(s.cands, id)
	}
	if victim == cache.InvalidLine {
		victim = s.pol.Victim(s.cands)
	}
	var res ctrl.AccessResult
	if line := s.arr.Line(victim); line.Valid {
		res.EvictedValid = true
		res.Evicted = line.Addr
		s.pol.OnEvict(victim)
		if old := s.partOf[victim]; old >= 0 {
			s.sizes[old]--
		}
	}
	// Install directly at the victim slot: the redirected index replaces
	// the array's own placement rule, so bypass SetAssoc.Install's
	// same-set check by writing the slot through Invalidate+manual fill.
	s.arr.Invalidate(victim)
	*s.arr.Line(victim) = cache.Line{Addr: addr, Valid: true}
	s.pol.OnInsert(victim, addr, part)
	s.partOf[victim] = int16(part)
	s.sizes[part]++
	return res
}

var _ ctrl.Controller = (*SetPartition)(nil)
