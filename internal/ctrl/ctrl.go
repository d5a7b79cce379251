// Package ctrl defines the cache-controller interface shared by every
// partitioning scheme (Vantage, way-partitioning, PIPP, and the
// unpartitioned baselines) and a generic unpartitioned controller that pairs
// any cache array with any replacement policy.
//
// A Controller owns an array and implements the full access path: lookups,
// hit updates, and the replacement process on misses. Partition IDs identify
// the thread (or other principal) performing each access; targets are
// capacity allocations in lines, set by an allocation policy such as UCP.
package ctrl

import (
	"vantage/internal/cache"
	"vantage/internal/hash"
	"vantage/internal/repl"
)

// AccessResult reports what happened on one cache access.
type AccessResult struct {
	// Hit reports whether the access hit.
	Hit bool
	// EvictedValid reports whether a valid line was evicted; Evicted is its
	// address.
	EvictedValid bool
	Evicted      uint64
	// ForcedManagedEviction reports a Vantage eviction that had to come from
	// the managed region because no unmanaged candidates were found (§4.3);
	// always false for other schemes.
	ForcedManagedEviction bool
	// Slot is where the access left addr's line: the slot that hit, or the
	// one the line was installed into. Only controllers that serve a
	// slot-indexed store report it (core.Controller); the others leave 0.
	Slot cache.LineID
	// Relocations is the number of zcache line moves the install performed.
	Relocations int
}

// Controller is a partitioned (or unpartitioned) cache controller.
type Controller interface {
	// Name identifies the scheme, e.g. "Vantage" or "WayPart".
	Name() string
	// Array returns the underlying cache array.
	Array() cache.Array
	// Access performs one access by partition part.
	Access(addr uint64, part int) AccessResult
	// SetTargets sets the per-partition capacity allocations, in lines.
	// Schemes interpret them per their granularity (way-partitioning rounds
	// to ways).
	SetTargets(targets []int)
	// Size returns the current actual size of partition part, in lines.
	Size(part int) int
	// NumPartitions returns the partition count.
	NumPartitions() int
}

// MixedController is implemented by controllers whose access path can reuse
// a precomputed hash.Mix64 of the address (see cache.MixedArray). Callers
// that feed one address to several hashed structures — the simulator's UMON
// feed plus the L2 — resolve this interface once and mix once per reference;
// for mixed == hash.Mix64(addr) the result is bit-for-bit identical to
// Access(addr, part).
type MixedController interface {
	AccessMixed(addr, mixed uint64, part int) AccessResult
}

// EvictionObserver receives the eviction (or demotion) priority of each
// replacement victim, for associativity measurements: part is the victim's
// partition, priority ∈ [0,1] with 1 = best victim under the partition's
// ranking, and demotion distinguishes Vantage demotions from evictions.
type EvictionObserver func(part int, priority float64, demotion bool)

// Observable is implemented by controllers that can report victim priorities.
type Observable interface {
	SetEvictionObserver(EvictionObserver)
}

// PartitionSnapshot is one partition's capacity state and lifetime event
// counts, captured atomically with respect to the controller (callers
// serialize with accesses; controllers are not internally synchronized).
type PartitionSnapshot struct {
	// Size and Target are the partition's actual and allocated capacity, in
	// lines. Schemes without explicit targets report Target == 0.
	Size, Target int
	// Hits, Misses, Demotions and Promotions are lifetime counts. Schemes
	// without per-partition counters report zeros.
	Hits, Misses, Demotions, Promotions uint64
}

// Snapshotter is implemented by controllers that can report every
// partition's size, target, and counters in a single call, so serving layers
// can export consistent per-tenant statistics while holding one lock.
type Snapshotter interface {
	// SnapshotPartitions appends one PartitionSnapshot per partition to dst
	// and returns it (dst may be nil; pass dst[:0] to reuse a buffer).
	SnapshotPartitions(dst []PartitionSnapshot) []PartitionSnapshot
}

// ---------------------------------------------------------------------------
// Unpartitioned controller
// ---------------------------------------------------------------------------

// Unpartitioned pairs an array with a replacement policy and no partitioning:
// the LRU (and RRIP) baselines of the paper's evaluation. It still tracks
// per-partition occupancy so experiments can observe how capacity is shared.
type Unpartitioned struct {
	arr     cache.Array
	marr    cache.MixedArray // arr's mixed fast path, or nil
	lines   []cache.Line     // arr's backing line store, or nil (see cache.LinesAccessor)
	pol     repl.Policy
	parts   int
	partOf  []int16
	sizes   []int
	candBuf []cache.LineID
	// live counts valid lines. Nothing invalidates a line under this
	// controller (there is no deletion path and relocations preserve
	// validity), so the count is monotone and, once it reaches NumLines,
	// pickVictim's first-invalid scan can be skipped: no set can have a free
	// slot when the whole array is full.
	live int
}

// NewUnpartitioned returns an unpartitioned controller over arr using policy
// pol, tracking occupancy for parts partitions.
func NewUnpartitioned(arr cache.Array, pol repl.Policy, parts int) *Unpartitioned {
	u := &Unpartitioned{
		arr:    arr,
		pol:    pol,
		parts:  parts,
		partOf: make([]int16, arr.NumLines()),
		sizes:  make([]int, parts),
	}
	u.marr, _ = arr.(cache.MixedArray)
	if la, ok := arr.(cache.LinesAccessor); ok {
		u.lines = la.Lines()
	}
	for i := range u.partOf {
		u.partOf[i] = -1
	}
	if rel, ok := arr.(cache.Relocator); ok {
		rel.SetMoveHook(func(src, dst cache.LineID) {
			pol.OnMove(src, dst)
			u.partOf[dst] = u.partOf[src]
			u.partOf[src] = -1
		})
	}
	return u
}

// Name implements Controller.
func (u *Unpartitioned) Name() string { return "Unpart-" + u.pol.Name() }

// Array implements Controller.
func (u *Unpartitioned) Array() cache.Array { return u.arr }

// NumPartitions implements Controller.
func (u *Unpartitioned) NumPartitions() int { return u.parts }

// SetTargets implements Controller: allocations are ignored (the cache is
// shared freely), but the call is accepted so allocation policies can be
// driven uniformly across schemes.
func (u *Unpartitioned) SetTargets(targets []int) {}

// Size implements Controller.
func (u *Unpartitioned) Size(part int) int { return u.sizes[part] }

// SnapshotPartitions implements Snapshotter: occupancies only (the shared
// cache has no targets and keeps no per-partition hit counters).
func (u *Unpartitioned) SnapshotPartitions(dst []PartitionSnapshot) []PartitionSnapshot {
	for _, sz := range u.sizes {
		dst = append(dst, PartitionSnapshot{Size: sz})
	}
	return dst
}

// Access implements Controller.
func (u *Unpartitioned) Access(addr uint64, part int) AccessResult {
	if u.marr != nil {
		return u.AccessMixed(addr, hash.Mix64(addr), part)
	}
	var id cache.LineID
	var ok bool
	if id, ok = u.arr.Lookup(addr); ok {
		return u.onHit(id, part)
	}
	u.pol.OnMiss(addr, part)
	u.candBuf = u.arr.Candidates(addr, u.candBuf[:0])
	res, victim := u.pickVictim()
	id, moves := u.arr.Install(addr, victim)
	res.Relocations = moves
	u.onInsert(id, addr, part)
	return res
}

// AccessMixed implements MixedController: Access with the Mix64 of addr
// precomputed, so the hashed array is not re-mixed for the lookup, the
// candidate walk, and the install.
func (u *Unpartitioned) AccessMixed(addr, mixed uint64, part int) AccessResult {
	if u.marr == nil {
		return u.Access(addr, part)
	}
	if id, ok := u.marr.LookupMixed(addr, mixed); ok {
		return u.onHit(id, part)
	}
	u.pol.OnMiss(addr, part)
	u.candBuf = u.marr.CandidatesMixed(addr, mixed, u.candBuf[:0])
	res, victim := u.pickVictim()
	id, moves := u.marr.InstallMixed(addr, mixed, victim)
	res.Relocations = moves
	u.onInsert(id, addr, part)
	return res
}

// onHit performs the hit-path bookkeeping shared by Access and AccessMixed.
func (u *Unpartitioned) onHit(id cache.LineID, part int) AccessResult {
	u.pol.OnHit(id, part)
	if old := u.partOf[id]; int(old) != part {
		// A line shared across partitions migrates to the last accessor;
		// in multiprogrammed runs address spaces are disjoint so this
		// only happens on first touch after warmup.
		if old >= 0 {
			u.sizes[old]--
		}
		u.partOf[id] = int16(part)
		u.sizes[part]++
	}
	return AccessResult{Hit: true}
}

// pickVictim selects the replacement victim from u.candBuf: the first
// invalid slot, else the policy's choice (with eviction bookkeeping).
func (u *Unpartitioned) pickVictim() (AccessResult, cache.LineID) {
	victim := cache.InvalidLine
	if u.live < len(u.partOf) {
		if lines := u.lines; lines != nil {
			for _, c := range u.candBuf {
				if !lines[c].Valid {
					victim = c
					break
				}
			}
		} else {
			for _, c := range u.candBuf {
				if !u.arr.Line(c).Valid {
					victim = c
					break
				}
			}
		}
		if victim != cache.InvalidLine {
			// The install that follows fills this free slot.
			u.live++
		}
	}
	var res AccessResult
	if victim == cache.InvalidLine {
		victim = u.pol.Victim(u.candBuf)
		res.EvictedValid = true
		res.Evicted = u.arr.Line(victim).Addr
		u.pol.OnEvict(victim)
		if old := u.partOf[victim]; old >= 0 {
			u.sizes[old]--
			u.partOf[victim] = -1
		}
	}
	return res, victim
}

// onInsert performs the insert-path bookkeeping shared by Access and
// AccessMixed.
func (u *Unpartitioned) onInsert(id cache.LineID, addr uint64, part int) {
	u.pol.OnInsert(id, addr, part)
	u.partOf[id] = int16(part)
	u.sizes[part]++
}

var _ MixedController = (*Unpartitioned)(nil)
