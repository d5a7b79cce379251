package sim

import (
	"testing"

	"vantage/internal/cache"
	"vantage/internal/core"
	"vantage/internal/ctrl"
	"vantage/internal/hash"
	"vantage/internal/part"
	"vantage/internal/repl"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

func lruL2(lines int) ctrl.Controller {
	arr := cache.NewZCache(lines, 4, 16, 99)
	return ctrl.NewUnpartitioned(arr, repl.NewLRUTimestamp(lines), 8)
}

func TestRunPanics(t *testing.T) {
	app := workload.NewStreamApp(1000, 1, 1, 1)
	for i, cfg := range []Config{
		{},
		{Apps: []workload.App{app}},
		{Apps: []workload.App{app}, L2: lruL2(256)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			Run(cfg)
		}()
	}
}

func TestSingleCoreHotLoopHitsL1(t *testing.T) {
	// A tiny working set lives in the L1: IPC should be near 1.
	app := workload.NewZipfApp(workload.Insensitive, 32, 0.8, 4, 4, 3)
	res := Run(Config{
		Apps:       []workload.App{app},
		L2:         lruL2(1024),
		L1Lines:    256,
		L1Ways:     4,
		InstrLimit: 200000,
	})
	c := res.Cores[0]
	if c.IPC < 0.8 {
		t.Fatalf("hot-loop IPC = %.3f, want near 1", c.IPC)
	}
	if c.L2MPKI > 5 {
		t.Fatalf("insensitive app has %.1f L2 MPKI, want < 5 (Table 3)", c.L2MPKI)
	}
}

func TestSingleCoreStreamIsMemoryBound(t *testing.T) {
	app := workload.NewStreamApp(1<<20, 2, 1, 5)
	res := Run(Config{
		Apps:       []workload.App{app},
		L2:         lruL2(1024),
		L1Lines:    128,
		L1Ways:     4,
		InstrLimit: 100000,
	})
	c := res.Cores[0]
	// Every reference misses everywhere: latency ~212+gap per 3 instrs.
	if c.IPC > 0.1 {
		t.Fatalf("stream IPC = %.3f, want memory-bound (<0.1)", c.IPC)
	}
	if c.L2Misses == 0 || c.L2Misses != c.L2Accesses {
		t.Fatalf("stream should miss all L2 accesses: %d/%d", c.L2Misses, c.L2Accesses)
	}
}

func TestScanFitsInL2(t *testing.T) {
	// A cyclic scan over 512 lines against a 2048-line L2: once warm, every
	// access hits L2 (cliff behavior).
	app := workload.NewScanApp(workload.Fitting, 512, 2, 1, 7)
	res := Run(Config{
		Apps:        []workload.App{app},
		L2:          lruL2(2048),
		L1Lines:     64,
		L1Ways:      4,
		InstrLimit:  300000,
		WarmupInstr: 50000,
	})
	c := res.Cores[0]
	missRatio := float64(c.L2Misses) / float64(c.L2Accesses+1)
	if missRatio > 0.02 {
		t.Fatalf("fitting scan missing %.3f of L2 accesses after warmup", missRatio)
	}
}

func TestScanThrashesSmallL2(t *testing.T) {
	// The same scan against a 256-line L2 with LRU: ~100% misses.
	app := workload.NewScanApp(workload.Fitting, 512, 2, 1, 7)
	res := Run(Config{
		Apps:        []workload.App{app},
		L2:          lruL2(256),
		L1Lines:     64,
		L1Ways:      4,
		InstrLimit:  200000,
		WarmupInstr: 50000,
	})
	c := res.Cores[0]
	missRatio := float64(c.L2Misses) / float64(c.L2Accesses+1)
	if missRatio < 0.9 {
		t.Fatalf("undersized scan only missing %.3f; cyclic scan under LRU should thrash", missRatio)
	}
}

func TestMultiCoreDisjointAddressSpaces(t *testing.T) {
	apps := []workload.App{
		workload.NewScanApp(workload.Fitting, 200, 2, 1, 11),
		workload.NewScanApp(workload.Fitting, 200, 2, 1, 11), // identical app
	}
	l2 := lruL2(1024)
	res := Run(Config{
		Apps:       apps,
		L2:         l2,
		L1Lines:    32,
		L1Ways:     4,
		InstrLimit: 100000,
	})
	// Identical apps on disjoint address spaces: both working sets fit, and
	// the L2 must hold both copies (no false sharing).
	if l2.Size(0) < 150 || l2.Size(1) < 150 {
		t.Fatalf("occupancies %d/%d: address spaces overlapping?", l2.Size(0), l2.Size(1))
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestVantageProtectsFittingAppFromStream(t *testing.T) {
	// The paper's motivating scenario: a cache-fitting app whose working set
	// nearly fills the cache, co-running with three streams. Under shared
	// LRU the streams' combined churn exceeds the spare capacity, so the
	// scan's lines (largest reuse distance) are evicted and it thrashes;
	// UCP+Vantage walls off a covering allocation and rescues it.
	mkApps := func() []workload.App {
		return []workload.App{
			workload.NewScanApp(workload.Fitting, 900, 2, 1, 13),
			workload.NewStreamApp(1<<20, 1, 1, 17),
			workload.NewStreamApp(1<<20, 1, 1, 18),
			workload.NewStreamApp(1<<20, 1, 1, 19),
		}
	}
	run := func(l2 ctrl.Controller, alloc Allocator, partLines int) Result {
		return Run(Config{
			Apps:               mkApps(),
			L2:                 l2,
			L1Lines:            64,
			L1Ways:             4,
			InstrLimit:         300000,
			WarmupInstr:        150000,
			Alloc:              alloc,
			RepartitionCycles:  200000,
			PartitionableLines: partLines,
		})
	}
	// Baseline: shared LRU.
	base := run(lruL2(1024), nil, 0)
	// Vantage + UCP.
	arr := cache.NewZCache(1024, 4, 52, 21)
	vc := core.New(arr, core.Config{Partitions: 4, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1})
	pol := ucp.NewPolicy(4, 16, 1024, ucp.GranLines, 23)
	vres := run(vc, pol, 972)

	fitBase := base.Cores[0]
	fitVan := vres.Cores[0]
	// The paper's 4-core gains are 6.2% geometric mean (up to 40%); this
	// scenario sits near the mean, so assert a solid >5% win on both the
	// rescued app and aggregate throughput.
	if fitVan.IPC <= fitBase.IPC*1.05 {
		t.Fatalf("Vantage+UCP did not rescue the fitting app: IPC %.3f vs LRU %.3f",
			fitVan.IPC, fitBase.IPC)
	}
	if vres.Throughput <= base.Throughput*1.05 {
		t.Fatalf("Vantage throughput %.3f not clearly above LRU %.3f", vres.Throughput, base.Throughput)
	}
	if vres.Repartitions == 0 {
		t.Fatal("UCP never repartitioned")
	}
}

// TestOnRepartitionObserved pins the observer's contract on both inputs:
// one call per Result.Repartitions, each stamped with its boundary cycle (a
// strictly increasing multiple of RepartitionCycles), with targets that
// cover the partitionable capacity.
func TestOnRepartitionObserved(t *testing.T) {
	const period = 100000
	apps := func() []workload.App {
		return []workload.App{
			workload.NewStreamApp(1<<18, 2, 1, 31),
			workload.NewStreamApp(1<<18, 2, 1, 37),
		}
	}
	cfg := func() Config {
		arr := cache.NewZCache(512, 4, 16, 41)
		return Config{
			L2:                 core.New(arr, core.Config{Partitions: 2, UnmanagedFrac: 0.1, AMax: 0.5, Slack: 0.1}),
			L1Lines:            32,
			L1Ways:             4,
			InstrLimit:         100000,
			Alloc:              ucp.NewPolicy(2, 16, 512, ucp.GranLines, 43),
			RepartitionCycles:  period,
			PartitionableLines: 460,
		}
	}
	viaApps := cfg()
	viaApps.Apps = apps()
	viaMiss := cfg()
	for _, a := range apps() {
		viaMiss.Miss = append(viaMiss.Miss, NewMissRecorder(a, 32, 4, Latencies{}, 0, 100000).MissSet(1)[0])
	}
	for _, run := range []struct {
		how string
		cfg Config
	}{{"Apps", viaApps}, {"Miss", viaMiss}} {
		var stamps []uint64
		run.cfg.OnRepartition = func(cycle uint64, targets, actual []int) {
			stamps = append(stamps, cycle)
			if len(targets) != 2 || len(actual) != 2 {
				t.Fatalf("%s: bad callback shapes: %v %v", run.how, targets, actual)
			}
			if sum := targets[0] + targets[1]; sum != 460 {
				t.Fatalf("%s: targets sum to %d, want 460", run.how, sum)
			}
		}
		res := Run(run.cfg)
		if len(stamps) == 0 {
			t.Fatalf("%s: repartition callback never fired", run.how)
		}
		if uint64(len(stamps)) != res.Repartitions {
			t.Errorf("%s: %d callbacks for %d repartitions", run.how, len(stamps), res.Repartitions)
		}
		for k, c := range stamps {
			if c != uint64(k+1)*period {
				t.Fatalf("%s: callback %d stamped %d, want boundary %d", run.how, k, c, uint64(k+1)*period)
			}
		}
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	app := workload.NewScanApp(workload.Fitting, 400, 2, 1, 47)
	with := Run(Config{
		Apps: []workload.App{app}, L2: lruL2(1024),
		L1Lines: 32, L1Ways: 4, InstrLimit: 100000, WarmupInstr: 100000,
	})
	appCold := workload.NewScanApp(workload.Fitting, 400, 2, 1, 47)
	without := Run(Config{
		Apps: []workload.App{appCold}, L2: lruL2(1024),
		L1Lines: 32, L1Ways: 4, InstrLimit: 100000,
	})
	// The warm run should show a higher (or equal) hit rate than the cold
	// run whose window includes compulsory misses.
	warmMiss := float64(with.Cores[0].L2Misses) / float64(with.Cores[0].L2Accesses+1)
	coldMiss := float64(without.Cores[0].L2Misses) / float64(without.Cores[0].L2Accesses+1)
	if warmMiss > coldMiss {
		t.Fatalf("warm miss ratio %.3f above cold %.3f", warmMiss, coldMiss)
	}
	if with.Cores[0].Instructions < 100000 {
		t.Fatal("measurement window too short")
	}
}

func TestNoL1Configuration(t *testing.T) {
	app := workload.NewZipfApp(workload.Friendly, 256, 0.8, 2, 1, 53)
	res := Run(Config{
		Apps:       []workload.App{app},
		L2:         lruL2(512),
		InstrLimit: 50000,
	})
	c := res.Cores[0]
	if c.L2Accesses != c.L1Accesses {
		t.Fatalf("without L1 every reference must reach L2: %d vs %d", c.L2Accesses, c.L1Accesses)
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestDefaultLatencies(t *testing.T) {
	l := DefaultLatencies()
	if l.L1Hit != 1 || l.L2Hit != 12 || l.Memory != 200 {
		t.Fatalf("Table 2 latencies wrong: %+v", l)
	}
}

// TestRepartitionAllocatesNothing: a UCP-driven run's repartition (the
// Lookahead allocation, the controller's new targets and the observer's
// sizes) reuses its buffers, for the way-granular baselines as for Vantage.
func TestRepartitionAllocatesNothing(t *testing.T) {
	const lines, ways, parts = 4096, 16, 4
	for _, c := range []struct {
		name string
		l2   ctrl.Controller
		gran ucp.Granularity
	}{
		{"WayPart", part.NewWayPartition(cache.NewSetAssoc(lines, ways, true, 3), parts), ucp.GranWays},
		{"PIPP", part.NewPIPP(cache.NewSetAssoc(lines, ways, true, 3), parts, 3), ucp.GranWays},
		{"Vantage", core.New(cache.NewZCache(lines, 4, 52, 3), core.Config{Partitions: parts, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1}), ucp.GranLines},
	} {
		pol := ucp.NewPolicy(parts, ways, lines, c.gran, 5)
		rng := hash.NewRand(9)
		feed := func() {
			for i := 0; i < 20000; i++ {
				p := rng.Intn(parts)
				addr := uint64(p+1)<<40 | uint64(rng.Intn(lines>>p))
				pol.Access(p, addr)
				c.l2.Access(addr, p)
			}
		}
		cfg := Config{L2: c.l2, Alloc: pol, InstrLimit: 1, PartitionableLines: lines,
			OnRepartition: func(cycle uint64, targets, actual []int) {}}
		rs := newRunState(&cfg, parts)
		var res Result
		feed()
		rs.repartition(&cfg, &res, 1) // sizes every kept buffer
		feed()
		if n := testing.AllocsPerRun(20, func() { rs.repartition(&cfg, &res, 1) }); n != 0 {
			t.Errorf("%s: a repartition allocates %.1f times", c.name, n)
		}
	}
}
