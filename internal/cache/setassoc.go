package cache

import (
	"fmt"

	"vantage/internal/hash"
)

// SetAssoc is a conventional set-associative cache array. The set index is
// either the low-order address bits or an H3 hash of the address (the paper
// uses "simple H3 hashing" for all arrays in its evaluation, §6.1, since it
// improves performance in most cases).
//
// On a miss, the replacement candidates are exactly the ways of the indexed
// set.
type SetAssoc struct {
	sets  int
	ways  int
	lines []Line
	// tags mirrors the lines' addresses in a packed array so the lookup scan
	// touches 8 bytes per way instead of a whole Line record; a tag match is
	// confirmed against the line's Valid bit (invalidated slots keep a zero
	// tag, which can collide with address zero but never pass that check).
	tags []uint64
	// sig/sigCnt form an exact per-set presence filter over the resident
	// tags: bit 1<<(addr&63) of sig[set] is set iff sigCnt[set*64 + addr&63]
	// counts at least one valid line in the set whose address maps to that
	// bit. A clear bit proves the address is absent, so a lookup miss —
	// common at high associativity, where it would otherwise scan every
	// way's tag — answers from one word; a set bit falls through to the
	// exact tag scan, which returns the same first match as before.
	sig    []uint64
	sigCnt []uint8
	h      *hash.H3 // nil => low-bits indexing
	name   string
	setBuf []LineID
}

// NewSetAssoc returns a set-associative array with numLines total lines and
// the given number of ways. numLines must be a multiple of ways and the set
// count must be a power of two. If hashed, the set index uses an H3 hash
// seeded with seed; otherwise low-order address bits index the set.
func NewSetAssoc(numLines, ways int, hashed bool, seed uint64) *SetAssoc {
	if ways <= 0 || ways > 255 || numLines <= 0 || numLines%ways != 0 {
		// ways is capped at 255 so the presence filter's per-bit line counts
		// fit a byte (a set holds at most ways lines).
		panic(fmt.Sprintf("cache: invalid set-assoc geometry: %d lines, %d ways", numLines, ways))
	}
	sets := numLines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", sets))
	}
	a := &SetAssoc{
		sets:   sets,
		ways:   ways,
		lines:  make([]Line, numLines),
		tags:   make([]uint64, numLines),
		sig:    make([]uint64, sets),
		sigCnt: make([]uint8, sets*64),
		name:   fmt.Sprintf("SA%d", ways),
	}
	if hashed {
		a.h = hash.NewH3(log2(sets), seed)
	}
	return a
}

// Sets returns the number of sets.
func (a *SetAssoc) Sets() int { return a.sets }

// NumLines implements Array.
func (a *SetAssoc) NumLines() int { return len(a.lines) }

// Ways implements Array.
func (a *SetAssoc) Ways() int { return a.ways }

// Name implements Array.
func (a *SetAssoc) Name() string { return a.name }

// Line implements Array.
func (a *SetAssoc) Line(id LineID) *Line { return &a.lines[id] }

// Lines implements LinesAccessor.
func (a *SetAssoc) Lines() []Line { return a.lines }

// SetIndex returns the set an address maps to. Hashed arrays mix the
// address before the H3 hash so that workloads touching few address bits
// still spread over every set (see ZCache.slot for the rationale).
func (a *SetAssoc) SetIndex(addr uint64) int {
	if a.h != nil {
		return int(a.h.Hash(hash.Mix64(addr)))
	}
	return int(addr & uint64(a.sets-1))
}

// SetIndexMixed is SetIndex with the Mix64 of addr precomputed (see
// MixedArray); unhashed arrays ignore mixed and index by low address bits.
func (a *SetAssoc) SetIndexMixed(addr, mixed uint64) int {
	if a.h != nil {
		return int(a.h.Hash(mixed))
	}
	return int(addr & uint64(a.sets-1))
}

// SetOf returns the set that slot id belongs to.
func (a *SetAssoc) SetOf(id LineID) int { return int(id) / a.ways }

// WayOf returns the way that slot id occupies within its set.
func (a *SetAssoc) WayOf(id LineID) int { return int(id) % a.ways }

// SlotAt returns the LineID of (set, way).
func (a *SetAssoc) SlotAt(set, way int) LineID { return LineID(set*a.ways + way) }

// Lookup implements Array.
func (a *SetAssoc) Lookup(addr uint64) (LineID, bool) {
	return a.scanSet(a.SetIndex(addr), addr)
}

// LookupMixed implements MixedArray.
func (a *SetAssoc) LookupMixed(addr, mixed uint64) (LineID, bool) {
	return a.scanSet(a.SetIndexMixed(addr, mixed), addr)
}

// scanSet finds addr among set's ways, matching on the packed tag array
// first and confirming against the line's Valid bit. The first valid way
// holding addr wins, exactly as a scan over the Line records; the presence
// filter only short-circuits sets that provably do not hold addr.
func (a *SetAssoc) scanSet(set int, addr uint64) (LineID, bool) {
	if a.sig[set]&(1<<(addr&63)) == 0 {
		return InvalidLine, false
	}
	base := set * a.ways
	tags := a.tags[base : base+a.ways]
	for w := range tags {
		if tags[w] == addr && a.lines[base+w].Valid {
			return LineID(base + w), true
		}
	}
	return InvalidLine, false
}

// sigInsert records a valid line with address addr joining set.
func (a *SetAssoc) sigInsert(set int, addr uint64) {
	a.sigCnt[set<<6|int(addr&63)]++
	a.sig[set] |= 1 << (addr & 63)
}

// sigRemove records the valid line with address addr leaving set.
func (a *SetAssoc) sigRemove(set int, addr uint64) {
	i := set<<6 | int(addr&63)
	if a.sigCnt[i]--; a.sigCnt[i] == 0 {
		a.sig[set] &^= 1 << (addr & 63)
	}
}

// Candidates implements Array. The candidates are the ways of addr's set, in
// way order.
func (a *SetAssoc) Candidates(addr uint64, buf []LineID) []LineID {
	base := a.SetIndex(addr) * a.ways
	for w := 0; w < a.ways; w++ {
		buf = append(buf, LineID(base+w))
	}
	return buf
}

// CandidatesMixed implements MixedArray.
func (a *SetAssoc) CandidatesMixed(addr, mixed uint64, buf []LineID) []LineID {
	base := a.SetIndexMixed(addr, mixed) * a.ways
	for w := 0; w < a.ways; w++ {
		buf = append(buf, LineID(base+w))
	}
	return buf
}

// Install implements Array. The victim must belong to addr's set.
func (a *SetAssoc) Install(addr uint64, victim LineID) (LineID, int) {
	set := a.SetOf(victim)
	if set != a.SetIndex(addr) {
		panic("cache: set-assoc install victim outside the address's set")
	}
	a.install(set, addr, victim)
	return victim, 0
}

// InstallMixed implements MixedArray.
func (a *SetAssoc) InstallMixed(addr, mixed uint64, victim LineID) (LineID, int) {
	set := a.SetOf(victim)
	if set != a.SetIndexMixed(addr, mixed) {
		panic("cache: set-assoc install victim outside the address's set")
	}
	a.install(set, addr, victim)
	return victim, 0
}

// install overwrites victim with a valid line for addr, keeping the tag
// array and presence filter in sync.
func (a *SetAssoc) install(set int, addr uint64, victim LineID) {
	if l := &a.lines[victim]; l.Valid {
		a.sigRemove(set, l.Addr)
	}
	a.lines[victim] = Line{Addr: addr, Valid: true}
	a.tags[victim] = addr
	a.sigInsert(set, addr)
}

// Invalidate implements Array.
func (a *SetAssoc) Invalidate(id LineID) {
	if l := &a.lines[id]; l.Valid {
		a.sigRemove(a.SetOf(id), l.Addr)
	}
	a.lines[id] = Line{}
	a.tags[id] = 0
}

var _ MixedArray = (*SetAssoc)(nil)
