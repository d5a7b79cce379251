package workload

import (
	"math"
	"sync"
	"sync/atomic"
)

// chunkRefs is the number of references per recorded chunk. 16Ki references
// pack into 128KiB — large enough to amortize extension locking, small
// enough that short streams don't over-allocate.
const chunkRefs = 1 << 14

// References are recorded packed, one uint64 per reference (gap in the high
// 32 bits, line address in the low 32), halving replay memory traffic vs.
// separate gap/addr arrays. Line addresses from the generators are working-
// set indices (the simulator itself assumes addresses fit in 40 bits before
// core tagging), so 32 bits is not a practical restriction; packRefs panics
// loudly if an app violates it.

// UnpackRef splits a packed reference into its instruction gap and line
// address.
func UnpackRef(v uint64) (gap int, addr uint64) {
	return int(v >> 32), v & (1<<32 - 1)
}

func packRefs(dst []uint64, gaps []int32, addrs []uint64) {
	for i, g := range gaps {
		a := addrs[i]
		if g < 0 || a > math.MaxUint32 {
			panic("workload: reference does not fit packed form (need gap >= 0, addr < 2^32)")
		}
		dst[i] = uint64(g)<<32 | a
	}
}

// PackedApp is implemented by apps that can hand out their upcoming
// references as packed slices (see UnpackRef), advancing past them. It is
// the zero-copy replay fast path: the simulator reads recorded chunks in
// place, with no per-reference interface call. An empty return means the
// app cannot serve packed reads (any longer) and the caller must fall back
// to Next; returned slices are immutable and remain valid indefinitely.
type PackedApp interface {
	App
	NextPacked() []uint64
}

// RefReader reads an app's references one at a time, through its packed
// bulk path when it offers one: a load from the current chunk instead of an
// interface call per reference. Once packed reads run dry (a replay cursor
// past its budget goes live), it falls back to Next. The draws are the same
// either way.
type RefReader struct {
	app    App
	packed PackedApp // nil once packed reads ran dry, or if app has none
	refs   []uint64
	pos    int
}

// NewRefReader returns a reader positioned at app's next reference.
func NewRefReader(app App) RefReader {
	r := RefReader{app: app}
	r.packed, _ = app.(PackedApp)
	return r
}

// Next returns the app's next reference.
func (r *RefReader) Next() (gap int, addr uint64) {
	if r.pos < len(r.refs) {
		r.pos++
		return UnpackRef(r.refs[r.pos-1])
	}
	if r.packed != nil {
		if r.refs = r.packed.NextPacked(); len(r.refs) > 0 {
			r.pos = 1
			return UnpackRef(r.refs[0])
		}
		r.packed = nil
	}
	return r.app.Next()
}

// Recording memoizes one app's reference stream. An App's output is a pure
// function of its construction seed (Next has no feedback from the cache),
// so the stream can be generated once and replayed by every scheme that
// simulates the same mix. Chunks are generated lazily as readers advance,
// up to a configurable budget; readers that outrun the budget fall through
// to live generation transparently (see ReplayApp).
//
// A Recording is safe for concurrent readers: published chunks are immutable,
// the chunk table is fixed-capacity (never reallocated), and the filled
// count is published with an atomic store after the chunk contents are
// written, so a reader that observes filled > i may read chunk i without
// locking.
type Recording struct {
	name string
	cat  Category

	// remake rebuilds the source app from scratch (positioned at reference
	// zero). It is used by readers that outrun the budget after the original
	// source has been claimed by an earlier reader.
	remake func() App

	mu     sync.Mutex   // guards extension: src, scratch, window state, unfilled table entries
	src    App          // live source at reference filled*chunkRefs; nil once claimed
	filled atomic.Int32 // published chunk count

	chunks [][]uint64

	// Windowed-release state (ReplaySet): cursorPos[i] is set cursor i's
	// next-chunk index; table entries below min(cursorPos) are dropped so
	// the resident window tracks the spread between the slowest and fastest
	// reader instead of the whole stream. A cursor that falls through to
	// live generation parks its position at maxInt so it stops holding the
	// window back.
	cursorPos []int
	released  int

	// scratch buffers for batched generation during extension (reused
	// across chunks; guarded by mu).
	scratchGaps  []int32
	scratchAddrs []uint64
}

// NewRecording wraps src in a recording with room for at most budgetRefs
// recorded references (rounded up to whole chunks; budgetRefs <= 0 records
// nothing and every replay generates live). remake must rebuild an app
// identical to src at reference zero; it must not be nil.
func NewRecording(src App, remake func() App, budgetRefs int) *Recording {
	if remake == nil {
		panic("workload: NewRecording requires a remake factory")
	}
	maxChunks := 0
	if budgetRefs > 0 {
		maxChunks = (budgetRefs + chunkRefs - 1) / chunkRefs
	}
	return &Recording{
		name:   src.Name(),
		cat:    src.Category(),
		remake: remake,
		src:    src,
		chunks: make([][]uint64, maxChunks),
	}
}

// Name returns the recorded app's name.
func (rec *Recording) Name() string { return rec.name }

// Category returns the recorded app's Table 3 class.
func (rec *Recording) Category() Category { return rec.cat }

// Replay returns a fresh cursor over the stream, starting at reference zero.
// Cursors are independent; any number may read concurrently.
func (rec *Recording) Replay() *ReplayApp {
	return &ReplayApp{rec: rec, setIdx: -1}
}

// ReplaySet returns n cursors and switches the recording to windowed
// release: a chunk's table entry is dropped once every cursor of the set has
// moved past it, so memory tracks the reader spread rather than the stream
// length (a straggler's in-flight chunk view stays alive through its own
// slice reference). All cursors must come from one ReplaySet call, made
// before any reading; Replay cursors handed out earlier would race the
// release and panic on a dropped chunk.
func (rec *Recording) ReplaySet(n int) []*ReplayApp {
	if n <= 0 {
		panic("workload: ReplaySet needs at least one cursor")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.cursorPos != nil {
		panic("workload: ReplaySet called twice on one recording")
	}
	rec.cursorPos = make([]int, n)
	out := make([]*ReplayApp, n)
	for i := range out {
		out[i] = &ReplayApp{rec: rec, setIdx: i}
	}
	return out
}

// releaseLocked drops chunk table entries every set cursor has passed.
// Callers hold rec.mu.
func (rec *Recording) releaseLocked() {
	lo := rec.cursorPos[0]
	for _, p := range rec.cursorPos[1:] {
		if p < lo {
			lo = p
		}
	}
	if lo > int(rec.filled.Load()) {
		lo = int(rec.filled.Load())
	}
	for ; rec.released < lo; rec.released++ {
		rec.chunks[rec.released] = nil
	}
}

// extendLocked generates one more chunk from the live source and publishes
// it. It returns false when the budget is exhausted or the source has been
// claimed by a fallen-through reader. Callers hold rec.mu.
func (rec *Recording) extendLocked() bool {
	n := int(rec.filled.Load())
	if n == len(rec.chunks) || rec.src == nil {
		return false
	}
	if rec.scratchGaps == nil {
		rec.scratchGaps = make([]int32, chunkRefs)
		rec.scratchAddrs = make([]uint64, chunkRefs)
	}
	fillRefs(rec.src, rec.scratchGaps, rec.scratchAddrs)
	chunk := make([]uint64, chunkRefs)
	packRefs(chunk, rec.scratchGaps, rec.scratchAddrs)
	rec.chunks[n] = chunk
	rec.filled.Store(int32(n + 1)) // publishes the chunk to lock-free readers
	return true
}

// claimLocked hands the caller a live App positioned exactly at reference
// pos. The first reader past the recorded prefix takes the recording's own
// source for free — extension only ever stops at filled*chunkRefs, which is
// exactly where src sits. Later readers rebuild from the factory and
// fast-forward. Callers hold rec.mu.
func (rec *Recording) claimLocked(pos int) App {
	if rec.src != nil && pos == int(rec.filled.Load())*chunkRefs {
		src := rec.src
		rec.src = nil
		return src
	}
	return rec.replayTo(pos)
}

// replayTo rebuilds the stream from scratch and discards the first pos
// references, returning a live App positioned at pos.
func (rec *Recording) replayTo(pos int) App {
	app := rec.remake()
	if pos > 0 {
		n := min(pos, chunkRefs)
		gaps := make([]int32, n)
		addrs := make([]uint64, n)
		for pos > 0 {
			n = min(pos, chunkRefs)
			fillRefs(app, gaps[:n], addrs[:n])
			pos -= n
		}
	}
	return app
}

// ReplayApp is a read cursor over a Recording. It satisfies App (and
// BatchApp and PackedApp), so simulators consume it exactly like a live
// generator. The fast path of Next is one indexed load plus an unpack;
// chunk boundaries, lazy extension, and budget fall-through all live in
// advance.
type ReplayApp struct {
	rec    *Recording
	setIdx int // index into rec.cursorPos, or -1 outside a ReplaySet
	next   int // index of the next chunk to load
	off    int // read offset into the current chunk
	refs   []uint64
	live   App // non-nil once this cursor has outrun the budget
}

// Name implements App.
func (r *ReplayApp) Name() string { return r.rec.name }

// Category implements App.
func (r *ReplayApp) Category() Category { return r.rec.cat }

// Next implements App.
func (r *ReplayApp) Next() (int, uint64) {
	for {
		if r.off < len(r.refs) {
			v := r.refs[r.off]
			r.off++
			return UnpackRef(v)
		}
		if r.live != nil {
			return r.live.Next()
		}
		r.advance()
	}
}

// NextPacked implements PackedApp: it returns the unread remainder of the
// current chunk (extending the recording as needed) and advances past it.
// Once the cursor has fallen through to live generation it returns nil and
// the caller must use Next.
func (r *ReplayApp) NextPacked() []uint64 {
	for {
		if r.off < len(r.refs) {
			out := r.refs[r.off:]
			r.off = len(r.refs)
			return out
		}
		if r.live != nil {
			return nil
		}
		r.advance()
	}
}

// NextBatch implements BatchApp by unpacking from recorded chunks.
func (r *ReplayApp) NextBatch(gaps []int32, addrs []uint64) {
	if len(gaps) != len(addrs) {
		panic("workload: NextBatch buffer lengths differ")
	}
	for len(gaps) > 0 {
		if r.off < len(r.refs) {
			n := min(len(gaps), len(r.refs)-r.off)
			for i, v := range r.refs[r.off : r.off+n] {
				gaps[i] = int32(v >> 32)
				addrs[i] = v & (1<<32 - 1)
			}
			r.off += n
			gaps, addrs = gaps[n:], addrs[n:]
			continue
		}
		if r.live != nil {
			fillRefs(r.live, gaps, addrs)
			return
		}
		r.advance()
	}
}

// advance moves the cursor to the next chunk, extending the recording if
// needed. When the budget is exhausted it switches the cursor to live
// generation instead; the stale chunk slice is left in place with
// off == len so Next, NextPacked and NextBatch route around it. Set cursors
// (setIdx >= 0) take the lock on every chunk transition — once per 16Ki
// references — to publish their position and run windowed release;
// standalone cursors keep the lock-free published-chunk fast path.
func (r *ReplayApp) advance() {
	rec := r.rec
	if r.setIdx < 0 && int(rec.filled.Load()) > r.next {
		r.refs = rec.chunks[r.next]
		if r.refs == nil {
			panic("workload: replay cursor read a released chunk (cursor not part of the ReplaySet?)")
		}
		r.next++
		r.off = 0
		return
	}
	rec.mu.Lock()
	for int(rec.filled.Load()) <= r.next {
		if !rec.extendLocked() {
			// This cursor sits at the end of the recorded prefix
			// (it consumed chunks 0..next-1 fully and extension
			// stopped at filled == next).
			r.live = rec.claimLocked(r.next * chunkRefs)
			if r.setIdx >= 0 {
				// Stop holding the release window back.
				rec.cursorPos[r.setIdx] = int(^uint(0) >> 1)
				rec.releaseLocked()
			}
			rec.mu.Unlock()
			return
		}
	}
	r.refs = rec.chunks[r.next]
	if r.refs == nil {
		panic("workload: replay cursor read a released chunk (cursor not part of the ReplaySet?)")
	}
	r.next++
	r.off = 0
	if r.setIdx >= 0 {
		rec.cursorPos[r.setIdx] = r.next
		rec.releaseLocked()
	}
	rec.mu.Unlock()
}

// MixRecording memoizes every app stream of one mix so that the baseline run
// and all partitioning schemes replay identical references.
type MixRecording struct {
	ID    string
	Class Class
	Recs  []*Recording
}

// NewMixRecording records mix. remake(i) must rebuild app i of an identical
// mix at reference zero. budgetRefs bounds the recorded prefix per app.
func NewMixRecording(mix Mix, remake func(i int) App, budgetRefs int) *MixRecording {
	recs := make([]*Recording, len(mix.Apps))
	for i, app := range mix.Apps {
		recs[i] = NewRecording(app, func() App { return remake(i) }, budgetRefs)
	}
	return &MixRecording{ID: mix.ID, Class: mix.Class, Recs: recs}
}

// Replay returns a Mix whose apps replay the recorded streams from the
// beginning. Each call yields independent cursors, so concurrent scheme runs
// can share one recording.
func (mr *MixRecording) Replay() Mix {
	apps := make([]App, len(mr.Recs))
	for i, rec := range mr.Recs {
		apps[i] = rec.Replay()
	}
	return Mix{ID: mr.ID, Class: mr.Class, Apps: apps}
}
