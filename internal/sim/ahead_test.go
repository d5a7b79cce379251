package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"vantage/internal/cache"
	"vantage/internal/core"
	"vantage/internal/trace"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// withProcs runs fn at GOMAXPROCS procs and restores the caller's setting.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// checkGoroutines fails t if a recordAhead goroutine outlived Run. It looks
// for the goroutine's own frames among every goroutine's stack rather than
// comparing goroutine counts, which other goroutines of the process move
// as they come and go. A joined goroutine may still be leaving after it
// signalled, so the check gives it a moment.
func checkGoroutines(t *testing.T, when string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for i := 0; ; i++ {
		stacks := buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(stacks, []byte("sim.recordAhead")) {
			return
		}
		if i == 100 {
			t.Errorf("%s: a recordAhead goroutine is still alive:\n%s", when, stacks)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// badAfter is an app whose reference n (counting from zero) is rec, and
// every other one a fresh line with gap 1, so without L1s each reference is
// one miss segment and rec lands n/missChunkSegs chunks into the stream.
func badAfter(n int, rec trace.Record) workload.App {
	recs := make([]trace.Record, n+1)
	for i := range recs[:n] {
		recs[i] = trace.Record{Gap: 1, Addr: uint64(i)}
	}
	recs[n] = rec
	return trace.NewApp("bad", workload.Thrashing, recs)
}

// TestRecordAheadMatchesInline is the contract of recording ahead: a run with
// Apps at GOMAXPROCS 2, whose streams a second goroutine records ahead of the
// cursors, gives exactly the run at GOMAXPROCS 1, which records inline: the
// same Result, the same repartition decisions and the same final monitor
// counters. No goroutine outlives either run.
func TestRecordAheadMatchesInline(t *testing.T) {
	type repart struct {
		cycle           uint64
		targets, actual []int
	}
	type outcome struct {
		res     Result
		log     []repart
		curves  [][]uint64
		counted []uint64
	}
	run := func(procs int) (out outcome) {
		pol := ucp.NewPolicy(4, 16, 1024, ucp.GranLines, 23)
		cfg := Config{
			Apps:               filterApps(),
			L2:                 core.New(cache.NewZCache(1024, 4, 52, 21), core.Config{Partitions: 4, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1}),
			L1Lines:            64,
			L1Ways:             4,
			InstrLimit:         120000,
			WarmupInstr:        50000,
			Alloc:              pol,
			RepartitionCycles:  200000,
			PartitionableLines: 972,
			OnRepartition: func(cycle uint64, targets, actual []int) {
				out.log = append(out.log, repart{cycle, slices.Clone(targets), slices.Clone(actual)})
			},
		}
		withProcs(procs, func() { out.res = Run(cfg) })
		checkGoroutines(t, fmt.Sprintf("after a run at GOMAXPROCS %d", procs))
		for i := range cfg.Apps {
			m := pol.Monitor(i)
			out.curves = append(out.curves, m.MissCurve())
			out.counted = append(out.counted, m.Accesses())
		}
		return out
	}
	inline, ahead := run(1), run(2)
	if len(inline.log) < 3 {
		t.Fatalf("only %d repartitions; the test needs several", len(inline.log))
	}
	if !reflect.DeepEqual(ahead.res, inline.res) {
		t.Errorf("result diverges:\n ahead  %+v\n inline %+v", ahead.res, inline.res)
	}
	if !reflect.DeepEqual(ahead.log, inline.log) {
		t.Errorf("repartition decisions diverge")
	}
	if !slices.EqualFunc(ahead.curves, inline.curves, slices.Equal) || !slices.Equal(ahead.counted, inline.counted) {
		t.Errorf("final monitor counters diverge")
	}
}

// TestRecordAheadPanicsOnCaller: a reference the segment form cannot hold,
// three chunks into one core's stream, panics on Run's goroutine, naming the
// core and the value, whoever recorded it, and leaves no goroutine behind.
func TestRecordAheadPanicsOnCaller(t *testing.T) {
	for _, procs := range []int{1, 2} {
		var msg string
		withProcs(procs, func() {
			defer func() { msg, _ = recover().(string) }()
			Run(Config{
				Apps: []workload.App{
					workload.NewStreamApp(1<<20, 1, 1, 3),
					badAfter(3*missChunkSegs+5, trace.Record{Gap: 1, Addr: 1 << 33}),
				},
				L2:         lruL2(256),
				InstrLimit: 1 << 20,
			})
		})
		if want := "core 1: line address 0x200000000"; !strings.Contains(msg, want) {
			t.Errorf("GOMAXPROCS %d: panic %q, want it to contain %q", procs, msg, want)
		}
		checkGoroutines(t, fmt.Sprintf("after a panicking run at GOMAXPROCS %d", procs))
	}
}

// locked runs fn under mr.mu and then, as a cursor does, signals the
// recordAhead goroutine, which parks if it found mu held (see extendAhead).
func locked(mr *MissRecorder, fn func()) {
	mr.mu.Lock()
	fn()
	mr.mu.Unlock()
	select {
	case mr.wake <- struct{}{}:
	default:
	}
}

// held counts the chunk buffers mr keeps: published chunks not yet released,
// plus the recycled spare.
func held(mr *MissRecorder) (n int) {
	locked(mr, func() {
		n = len(mr.chunks)
		if mr.spare != nil {
			n++
		}
	})
	return n
}

// waitFor polls cond under mr.mu until it holds and reports whether it did
// within ten seconds.
func waitFor(mr *MissRecorder, cond func() bool) bool {
	for i := 0; i < 10000; i++ {
		var ok bool
		if locked(mr, func() { ok = cond() }); ok {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestRecordAheadBounded drives recordAhead's goroutine directly: it records
// exactly readAhead chunks past each cursor, keeps at most readAhead+2 chunk
// buffers per recorder however far the cursors read, and keeps a panic it
// meets for the cursor that reaches the chunk, raised with mu released.
func TestRecordAheadBounded(t *testing.T) {
	recs := filterRecorders(0, 0, 0, 1<<30)
	bad := NewMissRecorder(badAfter(3*missChunkSegs+5, trace.Record{Gap: 1 << 15, Addr: 1}), 0, 0, Latencies{}, 0, 1<<30)
	bad.core = 4
	recs = append(recs, bad)
	cursors := make([]*MissReplay, len(recs))
	for i, mr := range recs {
		cursors[i] = mr.MissSet(1)[0]
	}
	stop := recordAhead(cursors)
	defer stop()
	for step := 1; step <= 12; step++ {
		for i, mr := range recs[:len(recs)-1] {
			cursors[i].NextChunk()
			if !waitFor(mr, func() bool { return mr.filled >= step+readAhead }) {
				t.Fatalf("step %d: recorder %d did not get %d chunks ahead", step, i, readAhead)
			}
			time.Sleep(100 * time.Microsecond) // room to overshoot, if it would
			var filled int
			if locked(mr, func() { filled = mr.filled }); filled != step+readAhead {
				t.Errorf("step %d: recorder %d published %d chunks, want %d", step, i, filled, step+readAhead)
			}
			if n := held(mr); n > readAhead+2 {
				t.Errorf("step %d: recorder %d holds %d chunk buffers, bound %d", step, i, n, readAhead+2)
			}
		}
	}

	for range 3 {
		cursors[len(recs)-1].NextChunk()
	}
	if !waitFor(bad, func() bool { return bad.failed != nil }) {
		t.Fatal("the goroutine never recorded the bad chunk")
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "core 4: instruction gap 32768") {
				t.Errorf("bad chunk: panic %q, want the core and the gap", msg)
			}
		}()
		cursors[len(recs)-1].NextChunk()
	}()
	if !bad.mu.TryLock() {
		t.Fatal("the cursor's panic left the recorder locked")
	}
	bad.mu.Unlock()
}
