// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (§6) on the simulated machines of Table 2,
// scaled so the experiments run on a laptop. Each experiment returns a typed
// result with text-table and CSV renderers. The registry, Experiments, lists
// them once: WriteReport and cmd/vantage-sim both read it, and bench_test.go
// wraps each in a benchmark.
package exp

import (
	"fmt"

	"vantage/internal/hash"
	"vantage/internal/sim"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// Machine describes a simulated CMP (the paper's Table 2), scaled.
type Machine struct {
	// Name identifies the configuration, e.g. "4-core" or "32-core".
	Name string
	// Cores is the core (and partition) count.
	Cores int
	// L2Lines is the shared L2 capacity in lines (paper: 2 MB = 32768 lines
	// for 4 cores, 8 MB = 131072 lines for 32 cores).
	L2Lines int
	// L1Lines/L1Ways size the private L1s (paper: 32 KB = 512 lines, 4-way).
	L1Lines, L1Ways int
	// InstrLimit and WarmupInstr are per-core instruction budgets (paper:
	// 200 M measured after 20 B of fast-forward).
	InstrLimit, WarmupInstr uint64
	// RepartitionCycles is the UCP interval (paper: 5 M cycles).
	RepartitionCycles uint64
	// BaselineWays is the set-associative baseline's way count (paper: 16
	// ways at 4 cores, 64 ways at 32 cores); also the UMON associativity.
	BaselineWays int
	// MixesPerClass scales the workload count (paper: 10 → 350 mixes).
	MixesPerClass int
	// Seed makes mixes and arrays reproducible.
	Seed uint64
	// Contention optionally models L2 banking and memory bandwidth
	// (zero value: the paper's zero-load latencies).
	Contention sim.Contention
}

// Scale adjusts a machine's size by dividing cache capacity and instruction
// budgets; working sets scale with the cache automatically because workload
// parameters are relative to L2Lines.
type Scale int

// Scales for experiments.
const (
	// ScaleUnit is the smallest useful configuration (unit tests, quick
	// benches): 2048-line L2 for 4 cores.
	ScaleUnit Scale = iota
	// ScaleSmall is the default experiment scale: 4096-line L2 for 4 cores.
	ScaleSmall
	// ScaleFull approaches the paper's geometry (32768-line L2 for 4
	// cores); slow, intended for cmd runs only.
	ScaleFull
)

// SmallCMP returns the 4-core machine of the paper's small-scale evaluation.
func SmallCMP(s Scale) Machine {
	m := Machine{
		Name:          "4-core",
		Cores:         4,
		L1Ways:        4,
		BaselineWays:  16,
		MixesPerClass: 10,
		Seed:          2011,
	}
	switch s {
	case ScaleUnit:
		m.L2Lines, m.L1Lines = 2048, 32
		m.InstrLimit, m.WarmupInstr, m.RepartitionCycles = 150_000, 150_000, 100_000
	case ScaleSmall:
		m.L2Lines, m.L1Lines = 4096, 64
		m.InstrLimit, m.WarmupInstr, m.RepartitionCycles = 400_000, 300_000, 250_000
	case ScaleFull:
		m.L2Lines, m.L1Lines = 32768, 512
		m.InstrLimit, m.WarmupInstr, m.RepartitionCycles = 4_000_000, 2_000_000, 2_000_000
	default:
		panic("exp: unknown scale")
	}
	return m
}

// LargeCMP returns the 32-core machine of the large-scale evaluation
// (Table 2). The set-associative baseline uses 64 ways, as in Fig 7.
// Warmup budgets are sized to cover the slowest global transient — the
// streaming apps filling the L2 at one insertion per memory latency each
// (roughly L2Lines x MemLat / cores cycles) — which the paper's 20 B
// instructions of fast-forward cover implicitly.
func LargeCMP(s Scale) Machine {
	m := Machine{
		Name:          "32-core",
		Cores:         32,
		L1Ways:        4,
		BaselineWays:  64,
		MixesPerClass: 10,
		Seed:          2011,
	}
	switch s {
	case ScaleUnit:
		m.L2Lines, m.L1Lines = 8192, 32
		m.InstrLimit, m.WarmupInstr, m.RepartitionCycles = 60_000, 250_000, 50_000
	case ScaleSmall:
		m.L2Lines, m.L1Lines = 16384, 64
		m.InstrLimit, m.WarmupInstr, m.RepartitionCycles = 150_000, 500_000, 100_000
	case ScaleFull:
		m.L2Lines, m.L1Lines = 131072, 512
		m.InstrLimit, m.WarmupInstr, m.RepartitionCycles = 2_000_000, 1_000_000, 2_000_000
	default:
		panic("exp: unknown scale")
	}
	return m
}

// Mixes generates the machine's multiprogrammed workloads. For the paper's
// full sets use limit <= 0 (35 × MixesPerClass); a positive limit caps the
// count while preserving class coverage (classes round-robin first). Only
// the mixes returned are built: the (class, index) pairs are picked first.
func (m Machine) Mixes(limit int) []workload.Mix {
	classes := workload.Classes()
	per := m.MixesPerClass
	if limit > 0 {
		per = min(per, (limit+len(classes)-1)/len(classes))
	}
	var out []workload.Mix
	add := func(c, idx int) {
		out = append(out, workload.NewMix(classes[c], idx, m.Cores/4, workload.Params{CacheLines: m.L2Lines}, m.Seed))
	}
	if limit <= 0 || limit >= len(classes)*per {
		for c := range classes {
			for idx := 1; idx <= per; idx++ {
				add(c, idx)
			}
		}
		return out
	}
	// Interleave by class — take mix i of every class before mix i+1 — with
	// the classes visited in a deterministic shuffled order, so a small
	// subset samples all four categories instead of the
	// lexicographically-first (insensitive-heavy) classes.
	order := make([]int, len(classes))
	for i := range order {
		order[i] = i
	}
	rng := hash.NewRand(m.Seed ^ 0x50f)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for idx := 1; len(out) < limit; idx++ {
		for _, c := range order {
			if len(out) == limit {
				break
			}
			add(c, idx)
		}
	}
	return out
}

// Mix regenerates the single named mix with fresh app state. Mix generation
// is deterministic per (class, index, machine seed), so the returned mix has
// byte-identical app streams to the same entry of Mixes — but its own stream
// positions and PRNGs, which is what concurrent runs need: sharing one
// workload.Mix between runs lets one run's progress leak into the next.
func (m Machine) Mix(id string) (workload.Mix, error) {
	class, idx, err := workload.ParseMixID(id)
	if err != nil {
		return workload.Mix{}, err
	}
	if idx < 1 || idx > m.MixesPerClass {
		return workload.Mix{}, fmt.Errorf("exp: mix index %d outside 1..%d", idx, m.MixesPerClass)
	}
	return workload.NewMix(class, idx, m.Cores/4, workload.Params{CacheLines: m.L2Lines}, m.Seed), nil
}

// RunMix simulates one mix on one scheme and returns the result. The run
// records the mix's post-L1 streams itself (see sim.Config.Apps), so it
// consumes mix.Apps past the references it simulates: pass fresh apps.
func (m Machine) RunMix(mix workload.Mix, sch Scheme) sim.Result {
	cfg := m.runConfig(mix.ID, sch)
	cfg.Apps = mix.Apps
	return sim.Run(cfg)
}

// RunMixMiss simulates one mix on one scheme over memoized post-L1 segment
// streams (see RecordMisses): bit-identical results to RunMix on the same
// mix, with the private L1s' work done once per mix instead of once per
// scheme.
func (m Machine) RunMixMiss(mixID string, miss []*sim.MissReplay, sch Scheme) sim.Result {
	cfg := m.runConfig(mixID, sch)
	cfg.Miss = miss
	return sim.Run(cfg)
}

// runConfig assembles the simulator configuration for one scheme run, with
// the reference source (Apps or Miss) left to the caller.
func (m Machine) runConfig(mixID string, sch Scheme) sim.Config {
	l2 := sch.Build(m, uint64(len(mixID))*1337+m.Seed)
	// Note the sim.Allocator interface type: assigning a nil *ucp.Policy
	// would produce a non-nil interface and crash the baseline runs.
	var alloc sim.Allocator
	partLines := 0
	if sch.UsesUCP {
		if sch.BuildAllocator != nil {
			alloc = sch.BuildAllocator(m, m.Seed^0xa110c)
		} else {
			alloc = m.ucpPolicy(sch.Granularity)
		}
		partLines = sch.PartitionableLines(m.L2Lines)
	}
	return sim.Config{
		L2:                 l2,
		L1Lines:            m.L1Lines,
		L1Ways:             m.L1Ways,
		InstrLimit:         m.InstrLimit,
		WarmupInstr:        m.WarmupInstr,
		Alloc:              alloc,
		RepartitionCycles:  m.RepartitionCycles,
		PartitionableLines: partLines,
		Contention:         m.Contention,
	}
}

// ucpPolicy is the schemes' default UCP allocator; RecordMisses attaches one's
// monitors to its recorders, so every run's policy only counts their codes.
func (m Machine) ucpPolicy(gran ucp.Granularity) *ucp.Policy {
	return ucp.NewPolicy(m.Cores, m.BaselineWays, m.L2Lines, gran, m.Seed^0xa110c)
}

// Record returns mix unchanged.
//
// Deprecated: post-L1 recorders read a mix's apps directly; pass the mix to
// RecordMisses. Record goes when the benchmark stops calling it (ROADMAP
// item 8).
func (m Machine) Record(mix workload.Mix) workload.Mix { return mix }

// RecordMisses wraps each app of mix in a post-L1 segment recorder
// (sim.MissRecorder): the L1s are simulated once per (mix, app) and the
// baseline plus every scheme replay the shared post-L1 stream. The recorders
// read the apps themselves, so mix must be fresh and read by nothing else. A
// machine without L1s gets recorders whose every reference is a miss
// segment. Each recorder also runs the default UCP policy's monitor for its
// core (see ucpPolicy), so the UMONs observe each mix once, however many
// runs count.
func (m Machine) RecordMisses(mix workload.Mix) []*sim.MissRecorder {
	mons := m.ucpPolicy(ucp.GranWays)
	out := make([]*sim.MissRecorder, len(mix.Apps))
	for i, app := range mix.Apps {
		out[i] = sim.NewMissRecorder(app, m.L1Lines, m.L1Ways,
			sim.DefaultLatencies(), m.WarmupInstr, m.InstrLimit)
		out[i].AttachMonitor(i, mons.Monitor(i))
	}
	return out
}

// MissSets opens n replay cursors on each recorder and transposes them into
// n per-run cursor slices (one cursor per app), ready for RunMixMiss.
func MissSets(recs []*sim.MissRecorder, n int) [][]*sim.MissReplay {
	byApp := make([][]*sim.MissReplay, len(recs))
	for i, mr := range recs {
		byApp[i] = mr.MissSet(n)
	}
	out := make([][]*sim.MissReplay, n)
	for r := range out {
		out[r] = make([]*sim.MissReplay, len(recs))
		for i := range recs {
			out[r][i] = byApp[i][r]
		}
	}
	return out
}

// WithContention returns a copy of the machine with the paper's Table 2
// contention parameters enabled: 4 L2 banks and 32 GB/s peak memory
// bandwidth (16 bytes/cycle at 2 GHz = one 64 B line per 4 cycles).
func (m Machine) WithContention() Machine {
	m.Contention = sim.Contention{L2Banks: 4, L2BankBusy: 2, MemCyclesPerLine: 4}
	return m
}

// String summarizes the machine.
func (m Machine) String() string {
	return fmt.Sprintf("%s: %d lines L2, %d-way SA baseline, %d instrs/core",
		m.Name, m.L2Lines, m.BaselineWays, m.InstrLimit)
}
