// Package sim implements the multicore simulator of the paper's evaluation
// (Table 2): in-order cores with IPC=1 except on memory accesses, private L1
// caches, a shared partitioned L2, and a fixed-latency memory, running
// multiprogrammed mixes with disjoint per-core address spaces. UCP
// repartitions the shared cache at a fixed cycle interval, feeding each
// core's post-L1 access stream into its UMON.
//
// The paper's Pin-based execution-driven simulator is replaced by
// model-driven cores (workload.App address streams); latencies follow
// Table 2. Memory bandwidth contention is not modeled (fixed zero-load
// latency), a substitution recorded in DESIGN.md.
package sim

import (
	"fmt"
	"math/bits"
	"runtime"

	"vantage/internal/ctrl"
	"vantage/internal/hash"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// Allocator decides partition targets: it observes each partition's post-L1
// access stream and produces line-granularity allocations on demand.
// *ucp.Policy implements it; so do the simpler policies in that package.
type Allocator interface {
	// Access feeds one address of partition part's L2 access stream.
	Access(part int, addr uint64)
	// Allocate returns per-partition targets summing to totalLines.
	Allocate(totalLines int) []int
}

var _ Allocator = (*ucp.Policy)(nil)

// MixedAllocator is implemented by allocators whose access feed can reuse a
// precomputed hash.Mix64 of the address (all the ucp policies). The
// simulator mixes each post-L1 reference once and shares the value between
// the allocator's monitors and the L2 controller; for
// mixed == hash.Mix64(addr) the result is bit-for-bit identical to
// Access(part, addr).
type MixedAllocator interface {
	Allocator
	// AccessMixed is Access with the Mix64 finalizer already applied to addr.
	AccessMixed(part int, addr, mixed uint64)
}

var (
	_ MixedAllocator = (*ucp.Policy)(nil)
	_ MixedAllocator = (*ucp.PolicyRRIP)(nil)
	_ MixedAllocator = (*ucp.Static)(nil)
	_ MixedAllocator = (*ucp.Proportional)(nil)
)

// PolicyChooser is implemented by allocators that also pick per-partition
// insertion policies (UMON-RRIP for Vantage-DRRIP, §6.2): true = BRRIP.
type PolicyChooser interface {
	InsertionPolicies() []bool
}

// InsertionPolicySetter is implemented by controllers that accept external
// insertion-policy choices (the Vantage-DRRIP controller).
type InsertionPolicySetter interface {
	SetInsertionPolicy(part int, brrip bool)
}

// Latencies are the Table 2 access latencies, in cycles.
type Latencies struct {
	L1Hit  int // paper: 1
	L2Hit  int // paper: 4 (L1-to-bank) + 8 (bank) = 12
	Memory int // paper: 200 zero-load
}

// DefaultLatencies returns the Table 2 values.
func DefaultLatencies() Latencies { return Latencies{L1Hit: 1, L2Hit: 12, Memory: 200} }

// Config describes one simulation run.
type Config struct {
	// Apps is the mix, one App per core. Run records each app's post-L1
	// stream (see MissRecorder), which bounds what an app may produce:
	// instruction gaps of at most 2^15-1 and line addresses below 2^32. Run
	// panics, naming the core and the value, on a reference outside either.
	// With GOMAXPROCS > 1 a goroutine records ahead of each core (Run joins
	// it and re-raises its panics), so apps are read past the run's needs.
	Apps []workload.App
	// L2 is the shared cache controller under test (one partition per core
	// unless the controller is unpartitioned).
	L2 ctrl.Controller
	// L1Lines and L1Ways size the private L1s (0 lines disables them, and
	// every reference reaches the L2).
	L1Lines, L1Ways int
	// Lat are the hierarchy latencies.
	Lat Latencies
	// InstrLimit is the per-core instruction budget; IPC is measured over
	// exactly this many instructions per core (the paper's 200 M).
	InstrLimit uint64
	// WarmupInstr runs each core this many instructions before measurement
	// begins (the paper fast-forwards 20 B instructions instead).
	WarmupInstr uint64
	// Alloc, if non-nil, repartitions the L2 every RepartitionCycles;
	// PartitionableLines is the capacity handed to the allocator (for
	// Vantage, the managed region). ucp.Policy is the paper's allocator;
	// any Allocator (e.g. ucp.Static) can drive the schemes. A ucp.Policy
	// whose monitors match the streams' only counts their codes (see
	// MissRecorder.AttachMonitor); any other allocator is fed each access.
	Alloc              Allocator
	RepartitionCycles  uint64
	PartitionableLines int
	// OnRepartition, if set, observes every repartitioning decision. cycle
	// is the boundary that fired it, k*RepartitionCycles; actual holds the
	// partition sizes right after the new targets were applied.
	OnRepartition func(cycle uint64, targets, actual []int)
	// Miss, if non-nil, supplies the post-L1 segment streams directly, one
	// cursor per core (see MissRecorder), so several runs can share one
	// recording. The L1s' behaviour is then baked into the segments, and
	// Apps, L1Lines and L1Ways are ignored.
	Miss []*MissReplay
	// Contention optionally models L2 bank conflicts and memory bandwidth
	// (zero value: the paper's zero-load latencies).
	Contention Contention
}

// CoreStats accumulates one core's measurement-window counters.
type CoreStats struct {
	Instructions uint64
	Cycles       uint64
	L1Accesses   uint64
	L1Misses     uint64
	L2Accesses   uint64
	L2Misses     uint64
	IPC          float64
	L2MPKI       float64
}

// Result is the outcome of a run.
type Result struct {
	Cores []CoreStats
	// Throughput is ΣIPC, the paper's headline metric.
	Throughput float64
	// WeightedCycles is the global cycle count when the last core finished.
	WeightedCycles uint64
	// Repartitions counts allocator invocations.
	Repartitions uint64
}

// coreState is one core's runtime state.
type coreState struct {
	// The segment cursor, the current chunk view, and the decoded pending
	// miss the scheduler key points at.
	stream    *MissReplay
	segs      []uint64
	pos       int
	missCycle uint64 // clock at the pending miss (clock + hit-prefix cycles)
	missAddr  uint64 // core-tagged line address of the pending miss
	missGap   uint64
	segHits   uint64
	segSteps  uint64
	missCode  uint8 // the pending miss's UMON code (see AttachMonitor)
	cycle     uint64
	instrs    uint64 // instructions retired in the measurement window
	warmLeft  uint64
	// frozen cores have finished their measurement window; they keep
	// running (so the cache keeps seeing their traffic, as in the paper's
	// methodology) but their stats no longer change.
	frozen bool
	// hitsOnly marks a frozen core scheduled with no pending miss: its
	// scheduler key is its own clock (see advanceMiss).
	hitsOnly bool
	// startCycle is the local clock value when the measurement window
	// opened (end of warmup). Clocks are never reset: rewinding a core's
	// clock would let the min-cycle scheduler run it solo for long
	// stretches, destroying the access interleaving the shared cache sees.
	startCycle uint64
	doneCycle  uint64
	stats      CoreStats
}

// runState is the execution state of one Run with every per-access dynamic
// decision resolved up front: latencies and capability probes (mixed fast
// paths, insertion-policy hooks) live in flat fields instead of being
// re-derived from Config inside the hot loop.
type runState struct {
	cores      []coreState
	ciBits     uint // bits reserved for the core index in a scheduler key
	ciMask     uint64
	remaining  int    // cores still inside their measurement window
	instrLimit uint64 // cached for advanceMiss's hit-segment freezes

	l2         ctrl.Controller
	l2Mixed    ctrl.MixedController // l2's mixed fast path, or nil
	alloc      Allocator
	allocMixed MixedAllocator        // alloc's mixed fast path, or nil
	counted    []*ucp.UMON           // per core, the monitor that counts codes, or nil
	chooser    PolicyChooser         // alloc's insertion-policy choices, or nil
	setter     InsertionPolicySetter // l2's insertion-policy hook, or nil

	latL2Hit  int
	latL2Miss int // L2 hit latency plus memory latency

	cont *contentionState
}

// newRunState checks cfg, fills in its default latencies, and returns the
// state of an n-core run with every core at cycle zero.
func newRunState(cfg *Config, n int) *runState {
	if n == 0 {
		panic("sim: no apps")
	}
	if cfg.L2 == nil {
		panic("sim: no L2 controller")
	}
	if cfg.InstrLimit == 0 {
		panic("sim: zero instruction limit")
	}
	if cfg.Lat == (Latencies{}) {
		cfg.Lat = DefaultLatencies()
	}
	rs := &runState{
		cores:      make([]coreState, n),
		ciBits:     uint(bits.Len(uint(n - 1))),
		remaining:  n,
		instrLimit: cfg.InstrLimit,
		l2:         cfg.L2,
		alloc:      cfg.Alloc,
		latL2Hit:   cfg.Lat.L2Hit,
		latL2Miss:  cfg.Lat.L2Hit + cfg.Lat.Memory,
		cont:       newContentionState(cfg.Contention),
	}
	rs.ciMask = 1<<rs.ciBits - 1
	rs.l2Mixed, _ = cfg.L2.(ctrl.MixedController)
	rs.allocMixed, _ = cfg.Alloc.(MixedAllocator)
	rs.chooser, _ = cfg.Alloc.(PolicyChooser)
	rs.setter, _ = cfg.L2.(InsertionPolicySetter)
	for i := range rs.cores {
		rs.cores[i].warmLeft = cfg.WarmupInstr
	}
	return rs
}

// Run executes the configured simulation to completion. Every run replays
// post-L1 segments: with Apps, Run records each app's stream itself.
//
// The scheduler steps the core whose next L2 access comes first, in
// (missCycle, core index) order, so shared-cache accesses interleave in
// time order; filter.go argues why this replays exactly what a
// reference-by-reference simulation of the same machine does. Each core's
// key packs both into one word, missCycle<<ciBits | ci: because
// ci < 1<<ciBits, integer order on keys is (cycle, index) order, and clocks
// stay far below 1<<(64-ciBits) in any configured run. Keys sit in a flat
// per-core array with a cached minimum per group of eight cores, so a step
// costs one scan over the group minima and one rescan of the stepped core's
// group. Keys are unique, so the minimum is too.
func Run(cfg Config) Result {
	miss := cfg.Miss
	n := len(cfg.Apps)
	if len(miss) > 0 {
		if n > 0 && n != len(miss) {
			panic("sim: Apps and Miss lengths differ")
		}
		n = len(miss)
	}
	rs := newRunState(&cfg, n)
	policy, _ := cfg.Alloc.(*ucp.Policy)
	if len(miss) == 0 {
		miss = make([]*MissReplay, n)
		for i, app := range cfg.Apps {
			mr := NewMissRecorder(app, cfg.L1Lines, cfg.L1Ways, cfg.Lat, cfg.WarmupInstr, cfg.InstrLimit)
			mr.core = i
			if policy != nil {
				// A copy: the run alone touches the policy's monitor.
				mr.AttachMonitor(i, policy.Monitor(i).Clone())
			}
			miss[i] = mr.MissSet(1)[0]
		}
		if runtime.GOMAXPROCS(0) > 1 {
			defer recordAhead(miss)()
		}
	}
	if policy != nil {
		rs.counted = countedMonitors(policy, miss)
	}

	keys := make([]uint64, n)
	for i := range rs.cores {
		rs.cores[i].stream = miss[i]
		rs.advanceMiss(&rs.cores[i], i)
		keys[i] = rs.cores[i].missCycle<<rs.ciBits | uint64(i)
	}
	gmin := make([]uint64, (n+7)/8)
	for g := range gmin {
		gmin[g] = groupMin(keys, g)
	}

	var res Result
	nextRepart := cfg.RepartitionCycles
	repartEnabled := rs.alloc != nil && cfg.RepartitionCycles > 0
	for rs.remaining > 0 {
		next := gmin[0]
		for _, k := range gmin[1:] {
			if k < next {
				next = k
			}
		}
		ci := int(next & rs.ciMask)
		c := &rs.cores[ci]

		if c.hitsOnly {
			// A frozen core with no pending miss (see advanceMiss): it only
			// reads on, with no L2 access and no repartition.
			c.hitsOnly = false
		} else {
			// Fire every boundary at or below this miss. Between two L2
			// accesses only L1 hits run, which mutate nothing the allocator
			// or cache can see, so firing them back to back here leaves the
			// state the access below would see at any firing point.
			for repartEnabled && c.missCycle >= nextRepart {
				rs.repartition(&cfg, &res, nextRepart)
				nextRepart += cfg.RepartitionCycles
			}

			lat, l2Hit := rs.accessL2(c.missAddr, ci, c.missCode)
			now := c.missCycle + c.missGap
			lat += int(rs.cont.l2Delay(c.missAddr, now))
			if !l2Hit {
				lat += int(rs.cont.memDelay(now))
			}
			c.cycle = now + uint64(lat)
			if c.warmLeft == 0 && !c.frozen {
				c.stats.L1Accesses += c.segHits + 1
				c.stats.L1Misses++
				c.stats.L2Accesses++
				if !l2Hit {
					c.stats.L2Misses++
				}
			}
			rs.retire(c, c.segSteps)
		}
		rs.advanceMiss(c, ci)
		keys[ci] = c.missCycle<<rs.ciBits | uint64(ci)
		gmin[ci>>3] = groupMin(keys, ci>>3)
	}
	return rs.finish(res)
}

// countedMonitors returns policy's per-core monitors if every stream's codes
// come from a monitor of equal ucp.Spec on the same core, else nil.
func countedMonitors(policy *ucp.Policy, miss []*MissReplay) []*ucp.UMON {
	mons := make([]*ucp.UMON, len(miss))
	for i, r := range miss {
		mons[i] = policy.Monitor(i)
		if r.mr.mon == nil || r.mr.core != i || r.mr.mon.Spec() != mons[i].Spec() {
			return nil
		}
	}
	return mons
}

// groupMin returns the smallest key of group g (cores 8g to 8g+7).
func groupMin(keys []uint64, g int) uint64 {
	lo := g << 3
	hi := min(lo+8, len(keys))
	m := keys[lo]
	for _, k := range keys[lo+1 : hi] {
		if k < m {
			m = k
		}
	}
	return m
}

// repartition runs one allocator invocation at boundary cycle, applies its
// decisions and reports them to OnRepartition.
func (rs *runState) repartition(cfg *Config, res *Result, cycle uint64) {
	targets := rs.alloc.Allocate(cfg.PartitionableLines)
	rs.l2.SetTargets(targets)
	if rs.chooser != nil && rs.setter != nil {
		for p, brrip := range rs.chooser.InsertionPolicies() {
			rs.setter.SetInsertionPolicy(p, brrip)
		}
	}
	res.Repartitions++
	if cfg.OnRepartition != nil {
		actual := make([]int, rs.l2.NumPartitions())
		for p := range actual {
			actual[p] = rs.l2.Size(p)
		}
		cfg.OnRepartition(cycle, targets, actual)
	}
}

// retire credits steps instructions, which ended at the core's current
// clock, to its warmup or its measurement window, opening the window when
// warmup runs out and freezing the core when the window fills.
func (rs *runState) retire(c *coreState, steps uint64) {
	switch {
	case c.frozen:
	case c.warmLeft == 0:
		c.instrs += steps
		if c.instrs >= rs.instrLimit {
			rs.freeze(c)
		}
	case c.warmLeft > steps:
		c.warmLeft -= steps
	default:
		c.warmLeft = 0
		c.startCycle = c.cycle
	}
}

// freeze closes a core's measurement window at its current clock.
func (rs *runState) freeze(c *coreState) {
	c.frozen = true
	c.doneCycle = c.cycle
	c.stats.Instructions = c.instrs
	c.stats.Cycles = c.cycle - c.startCycle
	rs.remaining--
}

// finish derives the per-core rates and the aggregate result.
func (rs *runState) finish(res Result) Result {
	res.Cores = make([]CoreStats, len(rs.cores))
	for i := range rs.cores {
		c := &rs.cores[i]
		s := c.stats
		if s.Cycles > 0 {
			s.IPC = float64(s.Instructions) / float64(s.Cycles)
		}
		if s.Instructions > 0 {
			s.L2MPKI = float64(s.L2Misses) / float64(s.Instructions) * 1000
		}
		res.Cores[i] = s
		res.Throughput += s.IPC
		if c.doneCycle > res.WeightedCycles {
			res.WeightedCycles = c.doneCycle
		}
	}
	return res
}

// accessL2 performs one post-L1 reference: it counts code into the core's
// monitor or feeds the allocator, accesses the shared controller, and returns
// the access latency and whether the L2 hit. The address is mixed once here
// and shared between the allocator and the controller's hashed arrays; the
// L1 indexes by low address bits, so hits there never need the mix.
func (rs *runState) accessL2(addr uint64, core int, code uint8) (lat int, hit bool) {
	mixed := hash.Mix64(addr)
	switch {
	case rs.counted != nil:
		rs.counted[core].Count(code)
	case rs.allocMixed != nil:
		rs.allocMixed.AccessMixed(core, addr, mixed)
	case rs.alloc != nil:
		rs.alloc.Access(core, addr)
	}
	var r ctrl.AccessResult
	if rs.l2Mixed != nil {
		r = rs.l2Mixed.AccessMixed(addr, mixed, core)
	} else {
		r = rs.l2.Access(addr, core)
	}
	if r.Hit {
		return rs.latL2Hit, true
	}
	return rs.latL2Miss, false
}

// String formats a result compactly.
func (r Result) String() string {
	return fmt.Sprintf("throughput=%.3f cores=%d repartitions=%d", r.Throughput, len(r.Cores), r.Repartitions)
}
