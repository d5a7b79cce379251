package workload

import (
	"fmt"
	"sync"
	"testing"

	"vantage/internal/hash"
)

// testApps enumerates one factory per generator kind plus one per Table 3
// category (the latter via NewApp, exactly as mixes build them). Each factory
// is deterministic: calling it twice yields identical streams.
func testApps() map[string]func() App {
	apps := map[string]func() App{
		"zipf":   func() App { return NewZipfApp(Friendly, 3000, 0.9, 3, 2, 42) },
		"scan":   func() App { return NewScanApp(Thrashing, 5000, 2, 2, 77) },
		"stream": func() App { return NewStreamApp(1<<14, 2, 2, 99) },
		"phased": func() App {
			return NewPhasedApp(
				NewZipfApp(Fitting, 2000, 1.0, 3, 4, 5),
				NewZipfApp(Fitting, 6000, 1.0, 3, 4, 6),
				1000)
		},
	}
	for cat := Insensitive; cat <= Thrashing; cat++ {
		cat := cat
		apps["cat-"+cat.String()] = func() App {
			return NewApp(cat, Params{CacheLines: 4096, PhasedFraction: 0.5}, hash.NewRand(uint64(cat)*13+7))
		}
	}
	return apps
}

func drawSeq(app App, n int) ([]int, []uint64) {
	gaps := make([]int, n)
	addrs := make([]uint64, n)
	for i := range gaps {
		gaps[i], addrs[i] = app.Next()
	}
	return gaps, addrs
}

func checkSeq(t *testing.T, name string, app App, gaps []int, addrs []uint64) {
	t.Helper()
	for i := range gaps {
		g, a := app.Next()
		if g != gaps[i] || a != addrs[i] {
			t.Fatalf("%s: draw %d: got (%d,%d), want (%d,%d)", name, i, g, a, gaps[i], addrs[i])
		}
	}
}

// TestBatchMatchesNext pins the batched generation path draw-for-draw
// against the per-call path, across uneven batch sizes and interleaved
// Next/NextBatch use, for every generator kind and Table 3 category.
func TestBatchMatchesNext(t *testing.T) {
	const n = 3*chunkRefs + 17
	for name, mk := range testApps() {
		t.Run(name, func(t *testing.T) {
			gaps, addrs := drawSeq(mk(), n)

			batched := mk()
			b, ok := batched.(BatchApp)
			if !ok {
				t.Fatalf("%T does not implement BatchApp", batched)
			}
			pos := 0
			for _, sz := range []int{1, 7, 64, 1000, chunkRefs, 3} {
				if pos+sz > n {
					break
				}
				bg := make([]int32, sz)
				ba := make([]uint64, sz)
				b.NextBatch(bg, ba)
				for i := 0; i < sz; i++ {
					if int(bg[i]) != gaps[pos+i] || ba[i] != addrs[pos+i] {
						t.Fatalf("batch draw %d: got (%d,%d), want (%d,%d)",
							pos+i, bg[i], ba[i], gaps[pos+i], addrs[pos+i])
					}
				}
				pos += sz
				// Interleave a single Next call between batches.
				if pos < n {
					g, a := batched.Next()
					if g != gaps[pos] || a != addrs[pos] {
						t.Fatalf("interleaved draw %d: got (%d,%d), want (%d,%d)",
							pos, g, a, gaps[pos], addrs[pos])
					}
					pos++
				}
			}
			checkSeq(t, name, batched, gaps[pos:], addrs[pos:])
		})
	}
}

// TestReplayEquivalence is the draw-for-draw memoization contract: a
// ReplayApp over a recording must emit exactly the live App.Next() stream,
// across chunk boundaries, for every generator kind and Table 3 category.
func TestReplayEquivalence(t *testing.T) {
	const n = 3*chunkRefs + 17 // crosses three chunk boundaries mid-chunk
	for name, mk := range testApps() {
		t.Run(name, func(t *testing.T) {
			gaps, addrs := drawSeq(mk(), n)
			rec := NewRecording(mk(), mk, n+chunkRefs)
			if rec.Name() != mk().Name() || rec.Category() != mk().Category() {
				t.Fatal("recording does not preserve identity")
			}
			r := rec.Replay()
			if r.Name() != rec.Name() || r.Category() != rec.Category() {
				t.Fatal("replay does not preserve identity")
			}
			checkSeq(t, name, r, gaps, addrs)

			// A second cursor over the already-extended recording.
			checkSeq(t, name+"/second", rec.Replay(), gaps, addrs)

			// A batched cursor.
			rb := rec.Replay()
			bg := make([]int32, 1000)
			ba := make([]uint64, 1000)
			for pos := 0; pos+len(bg) <= n; pos += len(bg) {
				rb.NextBatch(bg, ba)
				for i := range bg {
					if int(bg[i]) != gaps[pos+i] || ba[i] != addrs[pos+i] {
						t.Fatalf("replay batch draw %d: got (%d,%d), want (%d,%d)",
							pos+i, bg[i], ba[i], gaps[pos+i], addrs[pos+i])
					}
				}
			}
		})
	}
}

// TestReplayBudgetFallThrough drives cursors past a one-chunk budget: the
// first overflowing cursor claims the recorder's live source, later ones
// rebuild from the factory and fast-forward. Both must stay draw-identical.
func TestReplayBudgetFallThrough(t *testing.T) {
	mk := func() App { return NewZipfApp(Friendly, 3000, 0.9, 3, 2, 42) }
	const n = 4*chunkRefs + 5
	gaps, addrs := drawSeq(mk(), n)

	rec := NewRecording(mk(), mk, chunkRefs) // budget: exactly one chunk
	first, second := rec.Replay(), rec.Replay()
	checkSeq(t, "first", first, gaps, addrs)
	if rec.src != nil {
		t.Fatal("first overflowing cursor should have claimed the live source")
	}
	if first.live == nil {
		t.Fatal("first cursor should have fallen through to live generation")
	}
	if got := int(rec.filled.Load()); got != 1 {
		t.Fatalf("recording grew past its budget: %d chunks", got)
	}
	// The second cursor must rebuild + fast-forward when it outruns chunk 0.
	checkSeq(t, "second", second, gaps, addrs)

	// Mixed Next/NextBatch reads across the fall-through boundary.
	third := rec.Replay()
	bg := make([]int32, chunkRefs-3)
	ba := make([]uint64, chunkRefs-3)
	third.NextBatch(bg, ba)
	for i := range bg {
		if int(bg[i]) != gaps[i] || ba[i] != addrs[i] {
			t.Fatalf("third batch draw %d mismatch", i)
		}
	}
	checkSeq(t, "third", third, gaps[len(bg):], addrs[len(bg):])

	// A RefReader over a cursor reads packed chunks while the budget lasts
	// and falls through to Next mid-stream.
	rr := NewRefReader(NewRecording(mk(), mk, chunkRefs).Replay())
	for i := range gaps {
		if g, a := rr.Next(); g != gaps[i] || a != addrs[i] {
			t.Fatalf("RefReader draw %d mismatch: (%d,%d) want (%d,%d)", i, g, a, gaps[i], addrs[i])
		}
	}
	if rr.packed != nil {
		t.Fatal("RefReader should have left the packed path past the budget")
	}

	// A zero budget records nothing but still replays correctly.
	rec0 := NewRecording(mk(), mk, 0)
	checkSeq(t, "zero-budget", rec0.Replay(), gaps, addrs)
	checkSeq(t, "zero-budget-2", rec0.Replay(), gaps, addrs)
	if got := int(rec0.filled.Load()); got != 0 {
		t.Fatalf("zero-budget recording stored %d chunks", got)
	}
}

// TestReplayConcurrentReaders hammers one recording from many goroutines
// (race detector coverage for the lock-free published-chunk reads and the
// claim/rebuild fall-through under contention).
func TestReplayConcurrentReaders(t *testing.T) {
	mk := func() App { return NewZipfApp(Friendly, 3000, 0.9, 3, 2, 42) }
	const n = 3*chunkRefs + 101
	gaps, addrs := drawSeq(mk(), n)

	rec := NewRecording(mk(), mk, 2*chunkRefs) // all readers outrun the budget
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rec.Replay()
			// Vary read granularity per worker to interleave differently.
			batch := 1 + 997*w
			bg := make([]int32, batch)
			ba := make([]uint64, batch)
			pos := 0
			for pos < n {
				if w%2 == 0 && pos+batch <= n {
					r.NextBatch(bg, ba)
					for i := range bg {
						if int(bg[i]) != gaps[pos+i] || ba[i] != addrs[pos+i] {
							errs <- fmt.Errorf("worker %d draw %d mismatch", w, pos+i)
							return
						}
					}
					pos += batch
					continue
				}
				g, a := r.Next()
				if g != gaps[pos] || a != addrs[pos] {
					errs <- fmt.Errorf("worker %d draw %d: got (%d,%d), want (%d,%d)",
						w, pos, g, a, gaps[pos], addrs[pos])
					return
				}
				pos++
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMixRecordingReplay checks the mix-level wrapper: every app of every
// replayed mix re-emits its original stream, and replays are independent.
func TestMixRecordingReplay(t *testing.T) {
	p := Params{CacheLines: 4096, PhasedFraction: 0.3}
	mkMix := func() Mix { return NewMix(Class{Friendly, Fitting, Thrashing, Insensitive}, 0, 1, p, 12345) }
	ref := mkMix()
	const n = chunkRefs + 57
	refGaps := make([][]int, len(ref.Apps))
	refAddrs := make([][]uint64, len(ref.Apps))
	for i, app := range ref.Apps {
		refGaps[i], refAddrs[i] = drawSeq(app, n)
	}

	mr := NewMixRecording(mkMix(), func(i int) App { return mkMix().Apps[i] }, 2*chunkRefs)
	if mr.ID != ref.ID || mr.Class != ref.Class {
		t.Fatalf("mix identity lost: %s vs %s", mr.ID, ref.ID)
	}
	for round := 0; round < 2; round++ {
		mix := mr.Replay()
		if mix.ID != ref.ID || len(mix.Apps) != len(ref.Apps) {
			t.Fatal("replayed mix shape differs")
		}
		for i, app := range mix.Apps {
			if app.Name() != ref.Apps[i].Name() {
				t.Fatalf("app %d name %q vs %q", i, app.Name(), ref.Apps[i].Name())
			}
			checkSeq(t, fmt.Sprintf("round%d/app%d", round, i), app, refGaps[i], refAddrs[i])
		}
	}
}
