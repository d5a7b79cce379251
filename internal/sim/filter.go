package sim

import (
	"fmt"
	"sync"

	"vantage/internal/workload"
)

// This file memoizes the post-L1 reference stream. The private L1s are
// feedback-free: lookups, fills, evictions and the coarse LRU timestamp are
// pure functions of the address sequence (nothing flows back from the shared
// L2), and every scheme run of a mix drives identical L1 geometry with
// identical recorded streams. The L1 hit/miss sequence is therefore
// scheme-independent and can be computed once per (mix, app) and shared by
// the baseline and every partitioning scheme — which also shrinks the
// simulator's hot loop by the L1 hit rate (roughly 3x fewer scheduler steps),
// because runs of L1 hits collapse into a single cycle/instruction delta.
//
// Equivalence argument (locked down by TestFilteredMatchesUnfiltered and the
// golden fingerprints in internal/exp):
//
//   - L1 hits touch no shared state, so only the interleaving of post-L1
//     accesses matters. The per-reference scheduler steps cores in
//     (cycle, index) order; its L2 accesses therefore execute in
//     (missCycle, coreIndex) order. The filtered scheduler keys its heap on
//     exactly that pair, so the shared cache and the UMONs observe the same
//     access sequence.
//   - UCP repartitions when the global cycle low-water mark crosses a
//     boundary. In the per-reference loop the low-water mark advances by at
//     most one reference's cycles per step, so each boundary fires at the
//     first step at or past it — after every L2 access below the boundary
//     and before every L2 access at or above it, with only shared-state-free
//     L1 hit steps in between. The filtered loop fires each boundary at the
//     first popped miss at or past it, which is the same point in the L2
//     access (and UMON mutation) sequence.
//   - Measurement bookkeeping is exact because segments never span a regime
//     change: the recorder splits at the warmup-to-measurement transition
//     and at the instruction-limit crossing, so warmup credit, IPC windows,
//     freeze cycles and hit/miss counters aggregate to identical values.
//
// Residual divergence: Result.Repartitions can omit trailing boundary
// crossings that the per-reference loop still flushed after the last L2
// access (allocator decisions that no access ever observes), and
// OnRepartition cycle stamps would differ — Run therefore rejects filtered
// configs with an OnRepartition observer.

// A filtered stream is a sequence of packed two-word segments, each "a run of
// L1 hits, optionally terminated by one L1 miss":
//
//	w0 = hasMiss<<63 | missGap<<48 | hits<<32 | missAddr
//	w1 = preHits<<32 | steps
//
// hits (16 bits) counts leading L1 hits; preHits (32 bits) is the cycles
// they advance the core's clock (their gaps plus L1 hit latencies); steps
// (32 bits) is the whole segment's instruction count (gap+1 per reference).
// For miss-terminated segments, missAddr (32 bits) is the untagged line
// address and missGap (15 bits) its instruction gap: the miss occurs at
// clock+preHits, issues at clock+preHits+missGap, and its (scheme-dependent)
// latency stays in the simulator. Hit-only segments (hasMiss == 0) appear
// where the recorder was forced to split. The field widths hold by
// construction: addresses are recorded (packed) form, gaps are geometric
// with small means, and the hits bound forces a split; emit panics loudly on
// violation rather than truncating.
const (
	missChunkSegs = 1 << 13 // segments per chunk: two words each, 128 KiB
	// missChunkRefs caps the raw references filtered per chunk, so a chunk is
	// published (possibly short) after bounded work even when misses are
	// rare. At typical post-L1 miss rates (~0.3) a chunk fills well under
	// the cap; the cap only bites on L1-resident phases.
	missChunkRefs = 1 << 16

	segMissFlag  = uint64(1) << 63
	segGapShift  = 48
	segGapMax    = 1<<15 - 1
	segHitsShift = 32
	segHitsMax   = 1<<16 - 1
	segAddrMask  = 1<<32 - 1
	segPreMax    = 1<<32 - 1

	// flatSchedCores is the core count at or below which runFiltered's
	// scheduler uses a flat argmin scan instead of the 8-ary heap.
	flatSchedCores = 64
)

// MissRecorder computes and memoizes one app's post-L1 segment stream. It is
// safe for concurrent readers: all chunk-table state is guarded by mu (reads
// lock only once per chunk), published chunks are immutable, and the table
// entries behind every reader of the MissSet are dropped so resident memory
// tracks the reader spread, not the stream length.
type MissRecorder struct {
	mu sync.Mutex

	// Raw reference source (typically a windowed replay cursor over the raw
	// recording, which releases raw chunks right behind this reader) and its
	// packed fast path.
	src    workload.App
	packed workload.PackedApp
	refs   []uint64
	refPos int

	l1       *l1Cache
	latL1Hit uint64

	// Warmup/measurement replica of the simulator's per-core bookkeeping,
	// used only to place the two regime-change splits.
	warmLeft uint64
	measured uint64
	limit    uint64
	frozen   bool

	// Pending segment accumulators (the hit prefix not yet emitted).
	pendHits  uint64
	pendPre   uint64
	pendSteps uint64

	chunks   [][]uint64
	filled   int
	building []uint64

	cursorPos []int
	released  int
}

// NewMissRecorder wraps a raw reference stream in a post-L1 segment
// recorder. src must start at reference zero; l1Lines/l1Ways and lat must
// match the simulator configuration the replays will run under, and
// warmupInstr/instrLimit must match so regime splits land on the exact
// references where the simulator's bookkeeping transitions.
func NewMissRecorder(src workload.App, l1Lines, l1Ways int, lat Latencies, warmupInstr, instrLimit uint64) *MissRecorder {
	if src == nil {
		panic("sim: NewMissRecorder requires a source stream")
	}
	if instrLimit == 0 {
		panic("sim: NewMissRecorder requires an instruction limit")
	}
	if lat == (Latencies{}) {
		lat = DefaultLatencies()
	}
	mr := &MissRecorder{
		src:      src,
		l1:       newL1Cache(l1Lines, l1Ways),
		latL1Hit: uint64(lat.L1Hit),
		warmLeft: warmupInstr,
		limit:    instrLimit,
	}
	mr.packed, _ = src.(workload.PackedApp)
	return mr
}

// MissSet returns n independent read cursors over the segment stream and
// enables windowed release: a chunk is dropped once every cursor has moved
// past it. Call once, before any reading.
func (mr *MissRecorder) MissSet(n int) []*MissReplay {
	if n <= 0 {
		panic("sim: MissSet needs at least one cursor")
	}
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if mr.cursorPos != nil {
		panic("sim: MissSet called twice on one recorder")
	}
	mr.cursorPos = make([]int, n)
	out := make([]*MissReplay, n)
	for i := range out {
		out[i] = &MissReplay{mr: mr, idx: i}
	}
	return out
}

// nextRef pulls one raw reference. Callers hold mr.mu.
func (mr *MissRecorder) nextRef() (gap int, addr uint64) {
	if mr.refPos < len(mr.refs) {
		gap, addr = workload.UnpackRef(mr.refs[mr.refPos])
		mr.refPos++
		return gap, addr
	}
	if mr.packed != nil {
		if mr.refs = mr.packed.NextPacked(); len(mr.refs) > 0 {
			mr.refPos = 1
			return workload.UnpackRef(mr.refs[0])
		}
		mr.packed = nil // source fell through to live generation
	}
	return mr.src.Next()
}

// emit appends one segment to the chunk under construction. Callers hold
// mr.mu.
func (mr *MissRecorder) emit(w0, w1 uint64) {
	mr.building = append(mr.building, w0, w1)
}

// flushHits emits the pending hit prefix as a hit-only segment (forced
// split). Callers hold mr.mu.
func (mr *MissRecorder) flushHits() {
	if mr.pendSteps == 0 {
		return
	}
	mr.emit(mr.pendHits<<segHitsShift, mr.pendPre<<32|mr.pendSteps)
	mr.pendHits, mr.pendPre, mr.pendSteps = 0, 0, 0
}

// extendLocked filters raw references into one chunk of segments and
// publishes it — full in the common case, shorter when the reference cap is
// reached first (rare misses). Callers hold mr.mu.
func (mr *MissRecorder) extendLocked() {
	if mr.building == nil {
		mr.building = make([]uint64, 0, 2*missChunkSegs)
	}
	for budget := missChunkRefs; budget > 0 && len(mr.building) < 2*missChunkSegs; budget-- {
		gap, addr := mr.nextRef()
		if gap < 0 || uint64(gap) > segGapMax || addr > segAddrMask {
			panic(fmt.Sprintf("sim: reference does not fit segment form (gap=%d addr=%#x)", gap, addr))
		}
		steps := uint64(gap) + 1
		if mr.l1.access(addr) {
			mr.pendHits++
			mr.pendPre += uint64(gap) + mr.latL1Hit
			mr.pendSteps += steps
			if mr.track(steps) || mr.pendHits == segHitsMax ||
				mr.pendPre > segPreMax-(segGapMax+mr.latL1Hit) ||
				mr.pendSteps > segPreMax-(segGapMax+1) {
				mr.flushHits()
			}
			continue
		}
		mr.emit(
			segMissFlag|uint64(gap)<<segGapShift|mr.pendHits<<segHitsShift|addr,
			mr.pendPre<<32|(mr.pendSteps+steps),
		)
		mr.pendHits, mr.pendPre, mr.pendSteps = 0, 0, 0
		mr.track(steps)
	}
	if len(mr.building) == 0 {
		// A whole cap's worth of references without one segment: flush the
		// pending hit run so every published chunk is non-empty (the forced
		// split is semantically neutral, like the hits-counter flush).
		mr.flushHits()
	}
	mr.chunks = append(mr.chunks, mr.building)
	mr.building = nil
	mr.filled++
}

// track replays the simulator's warmup/measurement bookkeeping for one
// reference and reports whether a regime change lands on it (forcing a
// segment split so no segment spans the transition).
func (mr *MissRecorder) track(steps uint64) bool {
	if mr.warmLeft > 0 {
		if mr.warmLeft > steps {
			mr.warmLeft -= steps
			return false
		}
		mr.warmLeft = 0
		return true // warmup ends here; measurement starts next reference
	}
	if mr.frozen {
		return false
	}
	mr.measured += steps
	if mr.measured >= mr.limit {
		mr.frozen = true
		return true // the core's measurement window closes on this reference
	}
	return false
}

// releaseLocked drops chunk-table entries every cursor has passed. Callers
// hold mr.mu.
func (mr *MissRecorder) releaseLocked() {
	lo := mr.cursorPos[0]
	for _, p := range mr.cursorPos[1:] {
		if p < lo {
			lo = p
		}
	}
	for ; mr.released < lo; mr.released++ {
		mr.chunks[mr.released] = nil
	}
}

// MissReplay is a read cursor over a MissRecorder's segment stream. The
// simulator consumes whole chunks (NextChunk) and iterates the packed
// segments in place.
type MissReplay struct {
	mr   *MissRecorder
	idx  int
	next int
}

// NextChunk returns the next chunk of packed segments and advances past it,
// extending the recording as needed. The stream never ends (the raw source
// falls through to live generation past its own budget); chunks are full in
// the common case and shorter when the per-chunk reference cap hit first.
func (r *MissReplay) NextChunk() []uint64 {
	mr := r.mr
	mr.mu.Lock()
	for mr.filled <= r.next {
		mr.extendLocked()
	}
	chunk := mr.chunks[r.next]
	if chunk == nil {
		panic("sim: miss replay cursor read a released chunk")
	}
	r.next++
	mr.cursorPos[r.idx] = r.next
	mr.releaseLocked()
	mr.mu.Unlock()
	return chunk
}

// advanceMiss consumes a core's segments until it holds a pending miss,
// applying hit-only segments in place as they are read. Hit-only segments
// touch no shared state, so consuming them eagerly — ahead of their place in
// the global cycle order — cannot change any other core's view; the clock
// arithmetic and measurement bookkeeping are core-local and exact because
// segments never span a regime change.
//
// A core still inside its measurement window freezes within a bounded
// number of references. A frozen core may never miss its L1 again: an app
// whose working set fits the L1 stops missing once it is warm. So a frozen
// core that reads a whole chunk without a miss stops searching. It is
// rescheduled at its own clock with no pending miss (hitsOnly), and
// runFiltered resumes the search when it pops. Its eventual miss, if any, is
// at or after that clock, so the L2 access order is unchanged.
func (rs *runState) advanceMiss(c *coreState, ci int) {
	fetched := false
	for {
		if c.mpos == len(c.msegs) {
			if fetched && c.frozen {
				c.missCycle, c.hitsOnly = c.cycle, true
				return
			}
			c.msegs = c.mstream.NextChunk()
			c.mpos = 0
			fetched = true
		}
		w0, w1 := c.msegs[c.mpos], c.msegs[c.mpos+1]
		c.mpos += 2
		pre, steps := w1>>32, w1&segPreMax
		if w0&segMissFlag != 0 {
			c.missCycle = c.cycle + pre
			c.missGap = w0 >> segGapShift & segGapMax
			c.missAddr = uint64(ci+1)<<40 | w0&segAddrMask
			c.segHits = w0 >> segHitsShift & segHitsMax
			c.segSteps = steps
			return
		}
		hits := w0 >> segHitsShift & segHitsMax
		measuring := c.warmLeft == 0 && !c.frozen
		c.cycle += pre
		if measuring {
			c.stats.L1Accesses += hits
			c.instrs += steps
			if c.instrs >= rs.instrLimit {
				rs.freeze(c)
			}
		} else if c.warmLeft > 0 {
			if c.warmLeft > steps {
				c.warmLeft -= steps
			} else {
				c.warmLeft = 0
				c.startCycle = c.cycle
			}
		}
	}
}

// runFiltered is the main loop over memoized post-L1 segments: the scheduler
// heap keys each core by the cycle of its next pending L2 access, so pops
// replay exactly the (missCycle, coreIndex) order the per-reference loop
// produces (see the equivalence argument at the top of this file).
func (rs *runState) runFiltered(cfg *Config, res *Result) {
	n := len(rs.cores)
	rs.instrLimit = cfg.InstrLimit
	for i := range rs.cores {
		rs.advanceMiss(&rs.cores[i], i)
		rs.heap[i] = rs.cores[i].missCycle<<rs.ciBits | uint64(i)
	}
	// At small core counts the scheduler drops the heap entirely: rs.heap
	// becomes a flat per-core key array (slot i always holds core i's key)
	// plus a cached minimum per group of eight cores. An event then costs
	// one scan over the group minima (pop) and one eight-wide rescan of the
	// updated core's group — about a dozen branch-predictable compares with
	// no sift writes. The packed keys are unique (the core index is in the
	// low bits), so the strict-< minimum over group minima is exactly the
	// heap's pop and the replay order is unchanged.
	flat := n <= flatSchedCores
	var gmin []uint64
	keys := rs.heap[:n]
	if flat {
		gmin = make([]uint64, (n+7)/8)
		for g := range gmin {
			lo := g << 3
			hi := lo + 8
			if hi > n {
				hi = n
			}
			m := keys[lo]
			for _, k := range keys[lo+1 : hi] {
				if k < m {
					m = k
				}
			}
			gmin[g] = m
		}
	} else {
		// Unlike the all-zero per-reference start, initial miss cycles are
		// arbitrary, so establish the heap invariant explicitly (bottom-up
		// from the last slot with children in the 8-ary layout).
		for i := (n - 2) / 8; i >= 0; i-- {
			rs.siftDown(i)
		}
	}

	nextRepart := cfg.RepartitionCycles
	repartEnabled := rs.alloc != nil && cfg.RepartitionCycles > 0
	for rs.remaining > 0 {
		var ci int
		if flat {
			min := gmin[0]
			for _, k := range gmin[1:] {
				if k < min {
					min = k
				}
			}
			ci = int(min & rs.ciMask)
		} else {
			ci = int(rs.heap[0] & rs.ciMask)
		}
		c := &rs.cores[ci]

		if c.hitsOnly {
			// A frozen core with no pending miss (see advanceMiss): it only
			// reads on, with no L2 access and no repartition.
			c.hitsOnly = false
		} else {
			// Fire every boundary at or below this miss. The per-reference
			// loop spread these fires over intervening L1-hit steps, which
			// mutate nothing the allocator or cache can see, so firing them
			// back to back here leaves identical state for the access below.
			for repartEnabled && c.missCycle >= nextRepart {
				rs.repartition(cfg, res)
				nextRepart += cfg.RepartitionCycles
			}

			lat, l2Hit := rs.accessL2(c.missAddr, ci)
			now := c.missCycle + c.missGap
			lat += int(rs.cont.l2Delay(c.missAddr, now))
			if !l2Hit {
				lat += int(rs.cont.memDelay(now))
			}
			measuring := c.warmLeft == 0 && !c.frozen
			steps := c.segSteps
			c.cycle = now + uint64(lat)
			if measuring {
				c.stats.L1Accesses += c.segHits + 1
				c.stats.L1Misses++
				c.stats.L2Accesses++
				if !l2Hit {
					c.stats.L2Misses++
				}
				c.instrs += steps
				if c.instrs >= cfg.InstrLimit {
					rs.freeze(c)
				}
			} else if c.warmLeft > 0 {
				if c.warmLeft > steps {
					c.warmLeft -= steps
				} else {
					c.warmLeft = 0
					c.startCycle = c.cycle
				}
			}
		}
		rs.advanceMiss(c, ci)
		if flat {
			keys[ci] = c.missCycle<<rs.ciBits | uint64(ci)
			g := ci >> 3
			lo := g << 3
			hi := lo + 8
			if hi > n {
				hi = n
			}
			m := keys[lo]
			for _, k := range keys[lo+1 : hi] {
				if k < m {
					m = k
				}
			}
			gmin[g] = m
		} else {
			rs.heap[0] = c.missCycle<<rs.ciBits | uint64(ci)
			rs.fixRoot()
		}
	}
}
