package sim

import (
	"fmt"
	"sync"

	"vantage/internal/hash"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// This file memoizes the post-L1 reference stream, which is what every Run
// simulates. The private L1s are feedback-free: lookups, fills, evictions
// and the coarse LRU timestamp are pure functions of the address sequence
// (nothing flows back from the shared L2), and every scheme run of a mix
// drives identical L1 geometry with identical streams. The L1 hit/miss
// sequence is therefore scheme-independent and can be computed once per
// (mix, app) and shared by the baseline and every partitioning scheme. It
// also shrinks the scheduler's work by the L1 hit rate (roughly 3x fewer
// steps), because runs of L1 hits collapse into a single cycle/instruction
// delta.
//
// A core's UMON is feedback-free too: its tag directory sees only that core's
// post-L1 addresses, in order, and only its counters meet the allocator. So
// the recorder runs the directory once per (mix, app) and stores each miss's
// code in its segment, and a run whose monitors have the same ucp.Spec counts
// the codes in L2 access order, exactly as feeding the addresses would.
//
// Nor does it matter who records. A run with Apps records on a second
// goroutine, readAhead chunks ahead of each cursor, whose panics the cursor
// re-raises (recordAhead); a cursor whose chunk is not ready records it. Both
// run extendLocked under mu, in chunk order, on state nothing else touches.
//
// Equivalence argument, against the reference-by-reference simulation of the
// same machine that the tests keep as their reference (runReference; locked
// down by TestFilteredMatchesUnfiltered and the golden fingerprints in
// internal/exp):
//
//   - L1 hits touch no shared state, so only the interleaving of post-L1
//     accesses matters. The reference steps cores in (cycle, index) order;
//     its L2 accesses therefore execute in (missCycle, coreIndex) order. Run
//     keys its scheduler on exactly that pair, so the shared cache and the
//     UMONs observe the same access sequence.
//   - UCP repartitions when the global cycle low-water mark crosses a
//     boundary. In the reference the low-water mark advances by at most one
//     reference's cycles per step, so each boundary fires at the first step
//     at or past it: after every L2 access below the boundary and before
//     every L2 access at or above it, with only shared-state-free L1 hit
//     steps in between. Run fires each boundary at the first miss at or past
//     it, which is the same point in the L2 access (and UMON mutation)
//     sequence.
//   - Measurement bookkeeping is exact because segments never span a regime
//     change: the recorder splits at the warmup-to-measurement transition
//     and at the instruction-limit crossing, so warmup credit, IPC windows,
//     freeze cycles and hit/miss counters aggregate to identical values.
//
// Residual divergence, all of it after or beside the measured behaviour:
//
//   - Result.Repartitions can omit trailing boundary crossings that the
//     reference still flushes on L1-hit steps after the last L2 access:
//     allocator decisions that no access ever observes.
//   - The controller state after the last freeze can differ by those same
//     decisions: Run stops at the last freeze without them.
//   - OnRepartition is stamped with the boundary cycle k*RepartitionCycles,
//     not with the clock of the step that crossed it.

// A filtered stream is a sequence of packed two-word segments, each "a run of
// L1 hits, optionally terminated by one L1 miss":
//
//	w0 = hasMiss<<63 | missGap<<48 | umonCode<<41 | hits<<32 | missAddr
//	w1 = preHits<<32 | steps
//
// hits (9 bits) counts leading L1 hits; preHits (32 bits) is the cycles
// they advance the core's clock (their gaps plus L1 hit latencies); steps
// (32 bits) is the whole segment's instruction count (gap+1 per reference).
// For miss-terminated segments, missAddr (32 bits) is the untagged line
// address and missGap (15 bits) its instruction gap: the miss occurs at
// clock+preHits, issues at clock+preHits+missGap, and its (scheme-dependent)
// latency stays in the simulator. umonCode (7 bits) is the miss's
// ucp.UMON.Observe code when the recorder has a monitor, else 0. Hit-only
// segments (hasMiss == 0) appear where the recorder was forced to split,
// including every 511 hits. The hits, preHits and steps fields
// hold by construction: the recorder splits before they overflow. The gap
// and address fields bound what an app may produce (gaps of at most 2^15-1,
// line addresses below 2^32), and extendLocked panics on a reference outside
// them rather than truncating it.
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
	segHitsMax   = 1<<9 - 1
	segCodeShift = 41
	segCodeMax   = 1<<7 - 1
	segAddrMask  = 1<<32 - 1
	segPreMax    = 1<<32 - 1

	readAhead = 1 // chunks recordAhead records past a cursor; see there
)

// MissRecorder computes and memoizes one app's post-L1 segment stream. It is
// safe for concurrent readers: all chunk-table state is guarded by mu (reads
// lock only once per chunk), and a chunk every reader of the MissSet has
// finished is recycled, so resident memory tracks the reader spread, not the
// stream length.
type MissRecorder struct {
	mu sync.Mutex

	// Raw reference source: the app itself, read in batches of
	// references (see workload.RefReader). The recorder is its only reader.
	src workload.RefReader
	// core is the core index a misfit reference's panic names and the
	// monitor's address tag; -1 if the recorder has no core.
	core int
	// mon, if set, observes every miss at record time (see AttachMonitor).
	mon *ucp.UMON

	l1       *l1Cache // nil without private L1s: every reference misses
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

	// chunks holds the published chunks not yet released: chunk i of the
	// stream is chunks[i-released], and filled counts all ever published.
	// Dropping released chunks from the table, not just their buffers,
	// keeps its length at the reader spread however long the stream runs.
	chunks   [][]uint64
	filled   int
	building []uint64
	spare    []uint64 // the last finished chunk's buffer, emptied, or nil

	cursorPos []int
	released  int

	// wake, if set, wakes recordAhead's goroutine when a cursor advances;
	// failed is a panic it met, re-raised by the cursor that gets there.
	wake   chan struct{}
	failed any
}

// NewMissRecorder wraps a raw reference stream in a post-L1 segment
// recorder. src must start at reference zero, and the recorder takes it
// over: it reads src in batches, ahead of the references it has filtered.
// l1Lines/l1Ways and lat must match the simulator configuration the replays
// will run under (l1Lines 0: no L1, every reference is a miss), and
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
		src:      workload.NewRefReader(src),
		core:     -1,
		latL1Hit: uint64(lat.L1Hit),
		warmLeft: warmupInstr,
		limit:    instrLimit,
	}
	if l1Lines > 0 {
		mr.l1 = newL1Cache(l1Lines, l1Ways)
	}
	return mr
}

// AttachMonitor makes the recorder observe each miss in mon's tag directory,
// under the address the simulator gives core's access, (core+1)<<40 | addr,
// and store the code in the miss segment. The recorder owns mon's directory
// from here on, and runs count its codes into policy monitors of equal Spec,
// which must start as empty as mon. Call before any reading; mon's codes
// must fit the segment.
func (mr *MissRecorder) AttachMonitor(core int, mon *ucp.UMON) {
	if int(ucp.CodeHit)+mon.Ways()-1 > segCodeMax {
		panic(fmt.Sprintf("sim: a %d-way monitor's codes exceed the segment's %d", mon.Ways(), segCodeMax))
	}
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if mr.filled > 0 {
		panic("sim: AttachMonitor after the recording started")
	}
	mr.core, mr.mon = core, mon
}

// MissSet returns n independent read cursors over the segment stream and
// enables windowed recycling: a chunk's buffer is reused once every cursor
// has fetched the chunk after it. Call once, before any reading.
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
	if mr.building, mr.spare = mr.spare, nil; mr.building == nil {
		mr.building = make([]uint64, 0, 2*missChunkSegs)
	}
	for budget := missChunkRefs; budget > 0 && len(mr.building) < 2*missChunkSegs; budget-- {
		gap, addr := mr.src.Next()
		if gap < 0 || gap > segGapMax {
			panic(fmt.Sprintf("sim: core %d: instruction gap %d outside 0..%d", mr.core, gap, segGapMax))
		}
		if addr > segAddrMask {
			panic(fmt.Sprintf("sim: core %d: line address %#x not below 2^32", mr.core, addr))
		}
		steps := uint64(gap) + 1
		if mr.l1 != nil && mr.l1.access(addr) {
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
		var code uint64
		if mr.mon != nil {
			tagged := uint64(mr.core+1)<<40 | addr
			code = uint64(mr.mon.Observe(tagged, hash.Mix64(tagged)))
		}
		mr.emit(
			segMissFlag|uint64(gap)<<segGapShift|code<<segCodeShift|mr.pendHits<<segHitsShift|addr,
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

// releaseLocked drops the chunks every cursor has finished and keeps the
// last one's buffer for the next extension. A cursor is still reading the
// chunk it fetched last, so a chunk is finished only once every cursor has
// fetched the one after it. Callers hold mr.mu.
func (mr *MissRecorder) releaseLocked() {
	lo := mr.cursorPos[0]
	for _, p := range mr.cursorPos[1:] {
		if p < lo {
			lo = p
		}
	}
	if n := lo - 1 - mr.released; n > 0 {
		mr.spare = mr.chunks[n-1][:0]
		k := copy(mr.chunks, mr.chunks[n:])
		clear(mr.chunks[k:])
		mr.chunks = mr.chunks[:k]
		mr.released += n
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
// extending the recording as needed. The chunk stays valid until this
// cursor's next NextChunk call; after that its buffer may be recycled. The
// stream never ends (apps generate references without end); chunks are
// full in the common case and shorter when the per-chunk reference cap hit
// first. Recording panics raise here, mu free.
func (r *MissReplay) NextChunk() []uint64 {
	mr := r.mr
	mr.mu.Lock()
	defer mr.mu.Unlock()
	for mr.filled <= r.next {
		if mr.failed != nil {
			panic(mr.failed)
		}
		mr.extendLocked()
	}
	if r.next < mr.released {
		panic("sim: miss replay cursor read a released chunk")
	}
	chunk := mr.chunks[r.next-mr.released]
	r.next++
	mr.cursorPos[r.idx] = r.next
	mr.releaseLocked()
	select {
	case mr.wake <- struct{}{}:
	default: // no goroutine (nil wake), or a wake-up already pending
	}
	return chunk
}

// recordAhead records the next chunk of each cursor in miss, its recorder's
// only one, before it asks, on one goroutine that parks while none lacks it,
// and returns the function that stops and joins it. With readAhead 1 it holds
// mu only for the chunk a cursor needs next, never for one the cursor has.
func recordAhead(miss []*MissReplay) (stop func()) {
	wake, done := make(chan struct{}, 1), make(chan struct{})
	for _, r := range miss {
		r.mr.wake = wake
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			recorded := false
			for _, r := range miss {
				select {
				case <-done:
					return
				default:
					recorded = r.mr.extendAhead() || recorded
				}
			}
			if !recorded {
				select {
				case <-done:
					return
				case <-wake:
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// extendAhead records mr's next chunk unless readAhead are ready, a cursor
// holds mu (it signals wake before unlocking, so no work is lost) or a panic
// was kept in failed, and reports whether it did.
func (mr *MissRecorder) extendAhead() (recorded bool) {
	if !mr.mu.TryLock() {
		return false
	}
	defer mr.mu.Unlock()
	if mr.failed != nil || mr.filled >= mr.cursorPos[0]+readAhead {
		return false
	}
	defer func() {
		if p := recover(); p != nil {
			mr.failed = p
		}
	}()
	mr.extendLocked()
	return true
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
// rescheduled at its own clock with no pending miss (hitsOnly), and Run
// resumes the search when it pops. Its eventual miss, if any, is at or
// after that clock, so the L2 access order is unchanged.
func (rs *runState) advanceMiss(c *coreState, ci int) {
	fetched := false
	for {
		if c.pos == len(c.segs) {
			if fetched && c.frozen {
				c.missCycle, c.hitsOnly = c.cycle, true
				return
			}
			c.segs = c.stream.NextChunk()
			c.pos = 0
			fetched = true
		}
		w0, w1 := c.segs[c.pos], c.segs[c.pos+1]
		c.pos += 2
		pre, steps := w1>>32, w1&segPreMax
		if w0&segMissFlag != 0 {
			c.missCycle = c.cycle + pre
			c.missGap = w0 >> segGapShift & segGapMax
			c.missAddr = uint64(ci+1)<<40 | w0&segAddrMask
			c.segHits = w0 >> segHitsShift & segHitsMax
			c.missCode = uint8(w0 >> segCodeShift & segCodeMax)
			c.segSteps = steps
			return
		}
		if c.warmLeft == 0 && !c.frozen {
			c.stats.L1Accesses += w0 >> segHitsShift & segHitsMax
		}
		c.cycle += pre
		rs.retire(c, steps)
	}
}
