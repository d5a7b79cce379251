package sim

import (
	"math"
	"runtime"
	"testing"

	"vantage/internal/cache"
	"vantage/internal/core"
	"vantage/internal/ctrl"
	"vantage/internal/repl"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// Kernel micro-benchmarks: one sim.Run per op over a fixed instruction
// budget, reporting ns/access (memory references through the hierarchy,
// approximated by the measurement-window L1 access counts) alongside the
// standard ns/op and allocs/op. The steady-state target is zero allocations
// per access; see TestRunSteadyStateAllocs for the hard assertion.

const benchInstr = 200000

func benchApps(n int) []workload.App {
	apps := make([]workload.App, n)
	for i := range apps {
		switch i % 4 {
		case 0:
			apps[i] = workload.NewZipfApp(workload.Insensitive, 1<<14, 0.9, 4, 4, uint64(3+i))
		case 1:
			apps[i] = workload.NewStreamApp(1<<18, 2, 1, uint64(5+i))
		case 2:
			apps[i] = workload.NewZipfApp(workload.Fitting, 1<<13, 0.8, 3, 4, uint64(7+i))
		default:
			apps[i] = workload.NewZipfApp(workload.Thrashing, 1<<16, 0.7, 3, 4, uint64(11+i))
		}
	}
	return apps
}

func benchRun(b *testing.B, cores int, withL1 bool, mk func() (ctrl.Controller, Allocator, int)) {
	b.Helper()
	cfg := Config{
		Apps:       benchApps(cores),
		InstrLimit: benchInstr,
	}
	if withL1 {
		cfg.L1Lines, cfg.L1Ways = 256, 4
	}
	b.ReportAllocs()
	var refs uint64
	for i := 0; i < b.N; i++ {
		l2, alloc, partLines := mk()
		cfg.L2 = l2
		if alloc != nil {
			cfg.Alloc = alloc
			cfg.RepartitionCycles = 200000
			cfg.PartitionableLines = partLines
		}
		res := Run(cfg)
		refs = 0
		for _, c := range res.Cores {
			refs += c.L1Accesses
		}
	}
	if refs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int(refs)*b.N), "ns/access")
	}
}

// BenchmarkSimKernelLRU is the unmanaged baseline: 4 cores, private L1s, a
// shared zcache L2 under coarse-timestamp LRU, no allocator.
func BenchmarkSimKernelLRU(b *testing.B) {
	benchRun(b, 4, true, func() (ctrl.Controller, Allocator, int) {
		arr := cache.NewZCache(2048, 4, 16, 99)
		return ctrl.NewUnpartitioned(arr, repl.NewLRUTimestamp(2048), 4), nil, 0
	})
}

// BenchmarkSimKernelVantageUCP is the paper's headline configuration: 4
// cores, private L1s, a Vantage-controlled zcache repartitioned by UCP.
func BenchmarkSimKernelVantageUCP(b *testing.B) {
	benchRun(b, 4, true, func() (ctrl.Controller, Allocator, int) {
		arr := cache.NewZCache(2048, 4, 52, 21)
		vc := core.New(arr, core.Config{Partitions: 4, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1})
		pol := ucp.NewPolicy(4, 16, 2048, ucp.GranLines, 23)
		return vc, pol, 1945
	})
}

// BenchmarkSimKernelNoL1 stresses the L2 path: every reference reaches the
// shared cache (and the allocator-free controller) directly.
func BenchmarkSimKernelNoL1(b *testing.B) {
	benchRun(b, 4, false, func() (ctrl.Controller, Allocator, int) {
		arr := cache.NewZCache(2048, 4, 16, 99)
		return ctrl.NewUnpartitioned(arr, repl.NewLRUTimestamp(2048), 4), nil, 0
	})
}

// TestRunSteadyStateAllocs asserts the per-access target: zero steady-state
// allocations in the kernel. Setup (controllers, heaps, stats slices) does
// allocate, so the test measures differentially: doubling the instruction
// budget must not add allocations beyond a tiny slack for one-off growth.
func TestRunSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	const runs = 5
	run := func(instr uint64) func() {
		// The apps are built before measuring: their names go through fmt,
		// whose printer pool drops entries at random under -race, and those
		// allocations are setup, not Run's. AllocsPerRun calls f runs+1 times.
		sets := make([][]workload.App, runs+1)
		for i := range sets {
			sets[i] = benchApps(4)
		}
		return func() {
			apps := sets[0]
			sets = sets[1:]
			arr := cache.NewZCache(1024, 4, 16, 99)
			l2 := ctrl.NewUnpartitioned(arr, repl.NewLRUTimestamp(1024), 4)
			Run(Config{
				Apps:       apps,
				L2:         l2,
				L1Lines:    128,
				L1Ways:     4,
				InstrLimit: instr,
			})
		}
	}
	const base = 50000
	short := testing.AllocsPerRun(runs, run(base))
	long := testing.AllocsPerRun(runs, run(2*base))
	if extra := long - short; extra > 4 {
		t.Fatalf("steady state allocates: %d extra instructions cost %.0f allocations (%.0f vs %.0f)",
			base, extra, long, short)
	}
}

// TestRunMemoryBounded: a run with Apps records 128 KiB segment chunks per
// core, and with more than one P a second goroutine records ahead of the
// cursors, but chunk buffers are recycled, so the bytes a run allocates do
// not grow with its length. Quadrupling the instruction budget records
// several more chunks per core and may not add even 4 KiB.
func TestRunMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	bytes := func(instr uint64) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			apps := benchApps(4) // setup, as in TestRunSteadyStateAllocs
			l2 := ctrl.NewUnpartitioned(cache.NewZCache(1024, 4, 16, 99), repl.NewLRUTimestamp(1024), 4)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Run(Config{Apps: apps, L2: l2, L1Lines: 128, L1Ways: 4, InstrLimit: instr})
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const base = 100000
	if short, long := bytes(base), bytes(4*base); long > short+4<<10 {
		t.Fatalf("a run's memory grows with its length: %d instructions allocate %d bytes, %d allocate %d",
			base, short, 4*base, long)
	}
}
