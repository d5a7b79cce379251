// Package part implements the partitioning-scheme baselines the paper
// compares Vantage against: way-partitioning (column caching) and PIPP
// (promotion/insertion pseudo-partitioning). Both operate on set-associative
// arrays, as in the paper's evaluation.
package part

import (
	"fmt"

	"vantage/internal/cache"
	"vantage/internal/ctrl"
	"vantage/internal/hash"
	"vantage/internal/repl"
)

// WayPartition implements way-partitioning [3, 19]: each partition owns a
// subset of the ways, fills from a partition are restricted to its ways, and
// LRU ranks lines within them. Allocations are rounded to whole ways (every
// partition keeps at least one way), which is exactly the coarseness and
// associativity loss the paper criticizes: a partition with w ways has
// associativity w.
type WayPartition struct {
	arr    *cache.SetAssoc
	lines  []cache.Line // arr's backing line store
	pol    *repl.LRUTimestamp
	parts  int
	wayOf  []int16 // way index -> owning partition
	ways   []int   // partition -> way count
	partOf []int16 // line -> inserting partition (for Size reporting)
	sizes  []int
	// victim scratch: candidate ways owned by the inserting partition
	own []cache.LineID
	ap  apportioner
	// live counts valid lines; nothing under this controller invalidates a
	// line, so once live reaches NumLines the per-miss free-slot test is
	// skipped (no set can have an invalid way when the array is full).
	live int
}

// NewWayPartition returns a way-partitioning controller over arr with parts
// partitions. arr must have at least parts ways. Ways start evenly divided.
func NewWayPartition(arr *cache.SetAssoc, parts int) *WayPartition {
	if parts <= 0 || parts > arr.Ways() {
		panic(fmt.Sprintf("part: %d partitions need at least as many ways (have %d)", parts, arr.Ways()))
	}
	w := &WayPartition{
		arr:    arr,
		lines:  arr.Lines(),
		pol:    repl.NewLRUTimestamp(arr.NumLines()),
		parts:  parts,
		wayOf:  make([]int16, arr.Ways()),
		ways:   make([]int, parts),
		partOf: make([]int16, arr.NumLines()),
		sizes:  make([]int, parts),
	}
	for i := range w.partOf {
		w.partOf[i] = -1
	}
	targets := make([]int, parts)
	per := arr.NumLines() / parts
	for i := range targets {
		targets[i] = per
	}
	w.SetTargets(targets)
	return w
}

// Name implements ctrl.Controller.
func (w *WayPartition) Name() string { return "WayPart" }

// Array implements ctrl.Controller.
func (w *WayPartition) Array() cache.Array { return w.arr }

// NumPartitions implements ctrl.Controller.
func (w *WayPartition) NumPartitions() int { return w.parts }

// Size implements ctrl.Controller.
func (w *WayPartition) Size(part int) int { return w.sizes[part] }

// WaysOf returns the number of ways partition part currently owns.
func (w *WayPartition) WaysOf(part int) int { return w.ways[part] }

// SetTargets implements ctrl.Controller: line allocations are rounded to
// whole ways by largest remainder, with a minimum of one way per partition.
func (w *WayPartition) SetTargets(targets []int) {
	if len(targets) != w.parts {
		panic("part: target count mismatch")
	}
	ways := w.ap.apportion(targets, w.arr.Ways())
	copy(w.ways, ways)
	// Assign contiguous way ranges in partition order.
	way := 0
	for p, n := range ways {
		for k := 0; k < n; k++ {
			w.wayOf[way] = int16(p)
			way++
		}
	}
}

// Access implements ctrl.Controller.
func (w *WayPartition) Access(addr uint64, part int) ctrl.AccessResult {
	return w.AccessMixed(addr, hash.Mix64(addr), part)
}

// AccessMixed implements ctrl.MixedController: the set-associative array is
// probed, walked, and installed into with one precomputed Mix64.
func (w *WayPartition) AccessMixed(addr, mixed uint64, part int) ctrl.AccessResult {
	if id, ok := w.arr.LookupMixed(addr, mixed); ok {
		w.pol.OnHit(id, part)
		return ctrl.AccessResult{Hit: true}
	}
	// Walk the set directly — the candidates of a set-associative array are
	// exactly its ways in way order, so the way index is the loop counter and
	// the set hash is computed once. Restrict to the partition's ways; prefer
	// an invalid slot among them.
	ways := w.arr.Ways()
	base := w.arr.SetIndexMixed(addr, mixed) * ways
	w.own = w.own[:0]
	victim := cache.InvalidLine
	if w.live < len(w.lines) {
		for wi := 0; wi < ways; wi++ {
			if int(w.wayOf[wi]) != part {
				continue
			}
			id := cache.LineID(base + wi)
			if !w.lines[id].Valid {
				victim = id
				break
			}
			w.own = append(w.own, id)
		}
		if victim != cache.InvalidLine {
			w.live++ // the install below fills this free slot
		}
	} else {
		for wi := 0; wi < ways; wi++ {
			if int(w.wayOf[wi]) == part {
				w.own = append(w.own, cache.LineID(base+wi))
			}
		}
	}
	if victim == cache.InvalidLine {
		if len(w.own) == 0 {
			// The partition's way assignment can transiently leave it with
			// zero ways only if parts > ways, which the constructor forbids;
			// this is unreachable but kept defensive.
			w.own = w.own[:0]
			for wi := 0; wi < ways; wi++ {
				w.own = append(w.own, cache.LineID(base+wi))
			}
			victim = w.pol.Victim(w.own)
		} else {
			victim = w.pol.Victim(w.own)
		}
	}
	var res ctrl.AccessResult
	if line := w.arr.Line(victim); line.Valid {
		res.EvictedValid = true
		res.Evicted = line.Addr
		w.pol.OnEvict(victim)
		if old := w.partOf[victim]; old >= 0 {
			w.sizes[old]--
		}
	}
	id, _ := w.arr.InstallMixed(addr, mixed, victim)
	w.pol.OnInsert(id, addr, part)
	w.partOf[id] = int16(part)
	w.sizes[part]++
	return res
}

// apportioner converts line-granularity targets into whole-way (or
// whole-set) counts by largest remainder, guaranteeing each partition at
// least one. It keeps its result and scratch from call to call, so a
// controller's repartition allocates nothing; the result is valid until the
// next call.
type apportioner struct {
	ways []int
	rems []remainder
}

type remainder struct {
	part int
	frac float64
}

func (a *apportioner) apportion(targets []int, totalWays int) []int {
	p := len(targets)
	if cap(a.ways) < p {
		a.ways = make([]int, p)
	}
	ways := a.ways[:p]
	total := 0
	for _, t := range targets {
		total += t
	}
	if total == 0 {
		// Degenerate: split evenly.
		for i := range ways {
			ways[i] = 1
		}
		total = 1
	}
	// Give everyone their floor share (min 1), then distribute the rest by
	// remainder.
	rems := a.rems[:0]
	assigned := 0
	for i, t := range targets {
		exact := float64(t) / float64(total) * float64(totalWays)
		fl := int(exact)
		if fl < 1 {
			fl = 1
		}
		ways[i] = fl
		assigned += fl
		rems = append(rems, remainder{i, exact - float64(fl)})
	}
	a.rems = rems
	// Fix up to exactly totalWays: take from the largest or give to the
	// highest remainder.
	for assigned > totalWays {
		// Remove a way from the largest allocation > 1.
		big, bigWays := -1, 1
		for i, n := range ways {
			if n > bigWays {
				big, bigWays = i, n
			}
		}
		if big < 0 {
			break // cannot shrink below 1 way each
		}
		ways[big]--
		assigned--
	}
	for assigned < totalWays {
		best, bestFrac := 0, -2.0
		for _, r := range rems {
			if r.frac > bestFrac {
				best, bestFrac = r.part, r.frac
			}
		}
		ways[best]++
		assigned++
		for i := range rems {
			if rems[i].part == best {
				rems[i].frac -= 1
			}
		}
	}
	return ways
}

var _ ctrl.Controller = (*WayPartition)(nil)
var _ ctrl.MixedController = (*WayPartition)(nil)
