package sim

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vantage/internal/cache"
	"vantage/internal/core"
	"vantage/internal/ctrl"
	"vantage/internal/trace"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// filterApps builds a four-app mix covering every Table 3 category (fitting
// scan, streaming, friendly zipf, insensitive zipf) with fresh state per
// call; app construction is deterministic, so every call yields
// draw-for-draw identical streams.
func filterApps() []workload.App {
	return []workload.App{
		workload.NewScanApp(workload.Fitting, 900, 2, 1, 13),
		workload.NewStreamApp(1<<20, 1, 1, 17),
		workload.NewZipfApp(workload.Friendly, 2048, 0.9, 3, 2, 19),
		workload.NewZipfApp(workload.Insensitive, 256, 0.8, 4, 4, 23),
	}
}

// filterRecorders wraps fresh copies of the mix in post-L1 recorders matching
// the given simulator geometry.
func filterRecorders(l1Lines, l1Ways int, warmup, limit uint64) []*MissRecorder {
	apps := filterApps()
	out := make([]*MissRecorder, len(apps))
	for i, a := range apps {
		out[i] = NewMissRecorder(a, l1Lines, l1Ways, DefaultLatencies(), warmup, limit)
	}
	return out
}

// TestFilteredMatchesUnfiltered is the bit-identity contract of the segment
// scheduler: Run must reproduce the reference-by-reference loop's Result
// exactly — per-core counters, IPC, throughput and finish cycles — on an
// unpartitioned LRU baseline, a repartitioning Vantage+UCP scheme (covering
// warmup splits, freeze splits and repartition firing), and a machine
// without L1s.
func TestFilteredMatchesUnfiltered(t *testing.T) {
	const (
		l1Ways = 4
		warmup = 150000
		limit  = 300000
	)
	type build func() (ctrl.Controller, Allocator, int)
	lru := func() (ctrl.Controller, Allocator, int) { return lruL2(1024), nil, 0 }
	vantageUCP := func() (ctrl.Controller, Allocator, int) {
		arr := cache.NewZCache(1024, 4, 52, 21)
		vc := core.New(arr, core.Config{Partitions: 4, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1})
		return vc, ucp.NewPolicy(4, 16, 1024, ucp.GranLines, 23), 972
	}
	for _, sc := range []struct {
		name    string
		l1Lines int
		mk      build
	}{
		{"lru", 64, lru},
		{"vantage-ucp", 64, vantageUCP},
		{"lru-noL1", 0, lru},
	} {
		cfg := func() Config {
			l2, alloc, partLines := sc.mk()
			return Config{
				L2:                 l2,
				L1Lines:            sc.l1Lines,
				L1Ways:             l1Ways,
				InstrLimit:         limit,
				WarmupInstr:        warmup,
				Alloc:              alloc,
				RepartitionCycles:  200000,
				PartitionableLines: partLines,
			}
		}
		ref := cfg()
		ref.Apps = filterApps()
		want := runReference(ref)

		got := cfg()
		got.Apps = filterApps()
		res := Run(got)
		if !reflect.DeepEqual(res.Cores, want.Cores) {
			t.Errorf("%s: per-core stats diverge:\n got %+v\nwant %+v", sc.name, res.Cores, want.Cores)
		}
		if res.Throughput != want.Throughput || res.WeightedCycles != want.WeightedCycles {
			t.Errorf("%s: aggregate diverges: throughput %.6f/%.6f cycles %d/%d",
				sc.name, res.Throughput, want.Throughput, res.WeightedCycles, want.WeightedCycles)
		}
		if want.Repartitions > 0 && res.Repartitions == 0 {
			t.Errorf("%s: never repartitioned", sc.name)
		}
	}
}

// TestFilteredCoreThatStopsMissing: an app whose working set fits its L1
// stops missing once warm, so after it freezes its filtered stream holds no
// miss ever again. The run must still finish, as soon as the slow core
// does, with the per-reference loop's Result.
func TestFilteredCoreThatStopsMissing(t *testing.T) {
	const (
		l1Lines = 64
		l1Ways  = 4
		warmup  = 1000
		limit   = 20000
	)
	apps := func() []workload.App {
		return []workload.App{
			workload.NewScanApp(workload.Insensitive, 16, 2, 1, 13),
			workload.NewStreamApp(1<<20, 1, 1, 17),
		}
	}
	want := runReference(Config{Apps: apps(), L2: lruL2(1024), L1Lines: l1Lines, L1Ways: l1Ways, InstrLimit: limit, WarmupInstr: warmup})
	if want.Cores[0].L1Misses != 0 {
		t.Fatalf("the scan app missed its L1 %d times in the window; it must fit", want.Cores[0].L1Misses)
	}
	miss := make([]*MissReplay, 2)
	for i, a := range apps() {
		miss[i] = NewMissRecorder(a, l1Lines, l1Ways, DefaultLatencies(), warmup, limit).MissSet(1)[0]
	}
	done := make(chan Result)
	go func() { done <- Run(Config{Miss: miss, L2: lruL2(1024), InstrLimit: limit, WarmupInstr: warmup}) }()
	select {
	case got := <-done:
		if !reflect.DeepEqual(got, want) {
			t.Errorf("filtered run diverges:\n got %+v\nwant %+v", got, want)
		}
	case <-time.After(time.Minute):
		t.Fatal("filtered run still searching for an L1 miss after a minute")
	}
}

// TestMissReplayConcurrentCursors runs three identical scheme configurations
// concurrently over one shared recorder set: results must match a solo run
// exactly, and the windowed chunk release must never free a chunk a cursor
// still needs. The instruction budget spans several segment chunks.
func TestMissReplayConcurrentCursors(t *testing.T) {
	const (
		l1Lines = 32
		l1Ways  = 4
		limit   = 300000
		readers = 3
	)
	runOne := func(miss []*MissReplay) Result {
		arr := cache.NewZCache(1024, 4, 52, 21)
		vc := core.New(arr, core.Config{Partitions: 4, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1})
		return Run(Config{
			Miss:               miss,
			L2:                 vc,
			InstrLimit:         limit,
			Alloc:              ucp.NewPolicy(4, 16, 1024, ucp.GranLines, 23),
			RepartitionCycles:  200000,
			PartitionableLines: 972,
		})
	}
	solo := filterRecorders(l1Lines, l1Ways, 0, limit)
	soloMiss := make([]*MissReplay, len(solo))
	for i, mr := range solo {
		soloMiss[i] = mr.MissSet(1)[0]
	}
	want := runOne(soloMiss)

	recs := filterRecorders(l1Lines, l1Ways, 0, limit)
	sets := make([][]*MissReplay, readers) // [run][app]
	for i, mr := range recs {
		for r, cur := range mr.MissSet(readers) {
			if sets[r] == nil {
				sets[r] = make([]*MissReplay, len(recs))
			}
			sets[r][i] = cur
		}
	}
	got := make([]Result, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = runOne(sets[r])
		}(r)
	}
	wg.Wait()
	for r := range got {
		if !reflect.DeepEqual(got[r], want) {
			t.Errorf("concurrent reader %d diverged:\n got %+v\nwant %+v", r, got[r], want)
		}
	}
}

// TestCountedMatchesFed is the contract of monitoring once per mix: a
// ucp.Policy that only counts the UMON codes its recorders stored must run
// exactly as the same policy fed every access, and as the reference loop:
// same Result, same repartition decisions, and the same final monitor
// counters (the decisions alone tolerate small curve errors). Recorders
// whose monitors were seeded differently do not match the policy's, so that
// run must be fed.
func TestCountedMatchesFed(t *testing.T) {
	const (
		l1Lines = 64
		l1Ways  = 4
		warmup  = 50000
		limit   = 120000
	)
	type repart struct {
		cycle           uint64
		targets, actual []int
	}
	policy := func(seed uint64) *ucp.Policy { return ucp.NewPolicy(4, 16, 1024, ucp.GranLines, seed) }
	run := func(run func(Config) Result, cfg Config) (Result, []repart) {
		var log []repart
		cfg.L2 = core.New(cache.NewZCache(1024, 4, 52, 21), core.Config{Partitions: 4, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1})
		cfg.L1Lines, cfg.L1Ways = l1Lines, l1Ways
		cfg.InstrLimit, cfg.WarmupInstr = limit, warmup
		cfg.RepartitionCycles, cfg.PartitionableLines = 200000, 972
		cfg.OnRepartition = func(cycle uint64, targets, actual []int) {
			log = append(log, repart{cycle, targets, actual})
		}
		return run(cfg), log
	}
	// streams records the mix, with monitors from a policy of the given
	// seed attached (0: none), and checks whether a run's policy counts.
	streams := func(monSeed uint64, counts bool) ([]*MissReplay, *ucp.Policy) {
		var mons *ucp.Policy
		if monSeed != 0 {
			mons = policy(monSeed)
		}
		recs := filterRecorders(l1Lines, l1Ways, warmup, limit)
		miss := make([]*MissReplay, len(recs))
		for i, mr := range recs {
			if mons != nil {
				mr.AttachMonitor(i, mons.Monitor(i))
			}
			miss[i] = mr.MissSet(1)[0]
		}
		p := policy(23)
		if got := countedMonitors(p, miss) != nil; got != counts {
			t.Fatalf("monitors seeded %d: counted %v, want %v", monSeed, got, counts)
		}
		return miss, p
	}

	miss, fed := streams(0, false)
	want, wantLog := run(Run, Config{Miss: miss, Alloc: fed})
	if len(wantLog) < 3 {
		t.Fatalf("only %d repartitions; the test needs several", len(wantLog))
	}
	for _, c := range []struct {
		name    string
		monSeed uint64
		counts  bool
	}{
		{"counted", 23, true},
		{"mismatched seed", 24, false},
	} {
		miss, p := streams(c.monSeed, c.counts)
		got, log := run(Run, Config{Miss: miss, Alloc: p})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result diverges from the fed run:\n got %+v\nwant %+v", c.name, got, want)
		}
		if !reflect.DeepEqual(log, wantLog) {
			t.Errorf("%s: repartition decisions diverge from the fed run", c.name)
		}
		for i := range miss {
			m, w := p.Monitor(i), fed.Monitor(i)
			if !slices.Equal(m.HitCurve(), w.HitCurve()) || !slices.Equal(m.MissCurve(), w.MissCurve()) || m.Accesses() != w.Accesses() {
				t.Errorf("%s: core %d's monitor counters diverge from the fed run's", c.name, i)
			}
		}
	}

	ref, refLog := run(runReference, Config{Apps: filterApps(), Alloc: policy(23)})
	if !reflect.DeepEqual(ref.Cores, want.Cores) || ref.Throughput != want.Throughput || ref.WeightedCycles != want.WeightedCycles {
		t.Errorf("reference loop diverges:\n got %+v\nwant %+v", ref, want)
	}
	// The reference may flush trailing boundaries no access observes.
	if len(refLog) < len(wantLog) || !reflect.DeepEqual(refLog[:len(wantLog)], wantLog) {
		t.Errorf("reference loop's repartition decisions diverge")
	}
}

// TestMissRecorderPanics pins the loud-failure contract of the filtered path.
func TestMissRecorderPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	app := func() workload.App { return workload.NewStreamApp(1000, 1, 1, 1) }
	expectPanic("nil source", func() {
		NewMissRecorder(nil, 32, 4, Latencies{}, 0, 1000)
	})
	expectPanic("zero limit", func() {
		NewMissRecorder(app(), 32, 4, Latencies{}, 0, 0)
	})
	expectPanic("MissSet(0)", func() {
		NewMissRecorder(app(), 32, 4, Latencies{}, 0, 1000).MissSet(0)
	})
	expectPanic("MissSet twice", func() {
		mr := NewMissRecorder(app(), 32, 4, Latencies{}, 0, 1000)
		mr.MissSet(1)
		mr.MissSet(1)
	})
	expectPanic("monitor too wide for the code", func() {
		NewMissRecorder(app(), 32, 4, Latencies{}, 0, 1000).AttachMonitor(0, ucp.NewUMON(segCodeMax, 64, 64, 1))
	})
	NewMissRecorder(app(), 32, 4, Latencies{}, 0, 1000).AttachMonitor(0, ucp.NewUMON(segCodeMax-1, 64, 64, 1))
	expectPanic("monitor attached after recording", func() {
		mr := NewMissRecorder(app(), 32, 4, Latencies{}, 0, 1000)
		mr.MissSet(1)[0].NextChunk()
		mr.AttachMonitor(0, ucp.NewUMON(16, 64, 64, 1))
	})
	expectPanic("Apps/Miss length mismatch", func() {
		mr := NewMissRecorder(app(), 32, 4, Latencies{}, 0, 1000)
		Run(Config{
			Apps:       []workload.App{app(), app()},
			Miss:       mr.MissSet(1),
			L2:         lruL2(256),
			InstrLimit: 1000,
		})
	})
	// A reference the segment form cannot hold panics, naming the core and
	// the value, instead of aliasing another core's address space.
	for _, bad := range []struct {
		rec  trace.Record
		want string
	}{
		{trace.Record{Gap: 1 << 15, Addr: 7}, "core 1: instruction gap 32768"},
		{trace.Record{Gap: 1, Addr: 1 << 32}, "core 1: line address 0x100000000"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, bad.want) {
					t.Errorf("out-of-range app: panic %q, want it to contain %q", msg, bad.want)
				}
			}()
			Run(Config{
				Apps:       []workload.App{app(), trace.NewApp("bad", workload.Thrashing, []trace.Record{bad.rec})},
				L2:         lruL2(256),
				L1Lines:    32,
				L1Ways:     4,
				InstrLimit: 1000,
			})
		}()
	}
}

// nextOnly hides an app's NextBatch, so a recorder reads it through Next.
type nextOnly struct{ workload.App }

// TestBatchedRecordMatchesNext: a recorder reads a generator through
// NextBatch, into its reader's buffer, and records exactly the segments,
// UMON codes included, that it records reading the same generator one Next
// at a time. Every generator kind is covered, plus an L1-resident app whose
// chunks missChunkRefs cuts short; each recording spans four chunks and both
// regime splits.
func TestBatchedRecordMatchesNext(t *testing.T) {
	const (
		l1Lines, l1Ways = 64, 4
		warmup, limit   = 20000, 100000
		chunks          = 4
	)
	apps := map[string]func() workload.App{
		"zipf":   func() workload.App { return workload.NewZipfApp(workload.Friendly, 2048, 0.9, 3, 2, 19) },
		"scan":   func() workload.App { return workload.NewScanApp(workload.Fitting, 900, 2, 1, 13) },
		"stream": func() workload.App { return workload.NewStreamApp(1<<20, 1, 1, 17) },
		"phased": func() workload.App {
			return workload.NewPhasedApp(
				workload.NewZipfApp(workload.Fitting, 600, 1.0, 3, 4, 5),
				workload.NewScanApp(workload.Thrashing, 5000, 2, 2, 6),
				3000)
		},
		"l1-resident": func() workload.App { return workload.NewZipfApp(workload.Insensitive, 16, 0.8, 3, 4, 29) },
	}
	record := func(app workload.App) [][]uint64 {
		mr := NewMissRecorder(app, l1Lines, l1Ways, DefaultLatencies(), warmup, limit)
		mr.AttachMonitor(0, ucp.NewPolicy(1, 16, 1024, ucp.GranWays, 7).Monitor(0))
		cur := mr.MissSet(1)[0]
		out := make([][]uint64, chunks)
		for i := range out {
			out[i] = slices.Clone(cur.NextChunk())
		}
		return out
	}
	for name, mk := range apps {
		t.Run(name, func(t *testing.T) {
			if _, ok := mk().(workload.BatchApp); !ok {
				t.Fatalf("%T does not implement BatchApp", mk())
			}
			batched, plain := record(mk()), record(nextOnly{mk()})
			short, hits := 0, 0
			for c := range batched {
				if len(batched[c]) != len(plain[c]) {
					t.Fatalf("chunk %d: %d words batched, %d through Next", c, len(batched[c]), len(plain[c]))
				}
				for s := 0; s < len(batched[c]); s += 2 {
					if b, p := batched[c][s:s+2], plain[c][s:s+2]; !slices.Equal(b, p) {
						t.Fatalf("chunk %d segment %d: batched %#x, through Next %#x", c, s/2, b, p)
					}
					if w0 := batched[c][s]; w0&segMissFlag != 0 && uint8(w0>>segCodeShift&segCodeMax) >= ucp.CodeHit {
						hits++
					}
				}
				if len(batched[c]) < 2*missChunkSegs {
					short++
				}
			}
			switch {
			case name == "l1-resident" && short == 0:
				t.Fatal("no chunk was cut short by missChunkRefs")
			case name != "l1-resident" && short > 0:
				t.Fatalf("%d of %d chunks were cut short", short, chunks)
			case name != "stream" && name != "l1-resident" && hits == 0:
				t.Fatal("no miss segment carries a monitor hit code")
			}
		})
	}
}
