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
	// Apps is the mix, one App per core.
	Apps []workload.App
	// L2 is the shared cache controller under test (one partition per core
	// unless the controller is unpartitioned).
	L2 ctrl.Controller
	// L1Lines and L1Ways size the private L1s (0 lines disables them).
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
	// any Allocator (e.g. ucp.Static) can drive the schemes.
	Alloc              Allocator
	RepartitionCycles  uint64
	PartitionableLines int
	// OnRepartition, if set, observes every repartitioning decision.
	OnRepartition func(cycle uint64, targets, actual []int)
	// Miss, if non-nil, replaces per-reference simulation with memoized
	// post-L1 segment streams (one cursor per core; see MissRecorder). The
	// private L1s are then not modeled per run — their behavior is baked
	// into the segments — so L1Lines/L1Ways and Apps are ignored. Mutually
	// exclusive with OnRepartition (cycle stamps would differ; see
	// filter.go).
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
	app workload.App
	// packed is app's zero-copy bulk read path (recorded streams), or nil.
	// refs/refPos are the current packed view; when packed reads run dry
	// (budget fall-through) packed is cleared and the core reverts to
	// per-reference app.Next calls.
	packed workload.PackedApp
	refs   []uint64
	refPos int
	l1     *l1Cache
	// Filtered-stream state (Config.Miss): the segment cursor, the current
	// chunk view, and the decoded pending miss the scheduler key points at.
	mstream   *MissReplay
	msegs     []uint64
	mpos      int
	missCycle uint64 // clock at the pending miss (clock + hit-prefix cycles)
	missAddr  uint64 // core-tagged line address of the pending miss
	missGap   uint64
	segHits   uint64
	segSteps  uint64
	cycle     uint64
	instrs    uint64 // instructions retired in the measurement window
	warmLeft  uint64
	// frozen cores have finished their measurement window; they keep
	// running (so the cache keeps seeing their traffic, as in the paper's
	// methodology) but their stats no longer change.
	frozen bool
	// hitsOnly marks a frozen core scheduled with no pending miss: its
	// filtered-scheduler key is its own clock (see advanceMiss).
	hitsOnly bool
	// startCycle is the local clock value when the measurement window
	// opened (end of warmup). Clocks are never reset: rewinding a core's
	// clock would let the min-cycle scheduler run it solo for long
	// stretches, destroying the access interleaving the shared cache sees.
	startCycle uint64
	doneCycle  uint64
	stats      CoreStats
}

// runState is the execution state of one Run with every per-reference
// dynamic decision resolved up front: latencies and capability probes
// (mixed fast paths, insertion-policy hooks) live in flat fields instead of
// being re-derived from Config inside the hot loop.
//
// Each scheduler heap slot packs a core's local clock and its index into one
// uint64, cycle<<ciBits | ci. Because ci < 1<<ciBits, plain integer order on
// the packed key equals lexicographic (cycle, index) order, so the sift-down
// compares one word per slot and the heap is half the size of a struct-based
// one. Clocks stay far below 1<<(64-ciBits) (2^58 even at 64 cores), so the
// shift cannot overflow in any configured run.
type runState struct {
	cores      []coreState
	heap       []uint64 // min-heap of cycle<<ciBits | core index
	ciBits     uint     // bits reserved for the core index in a heap key
	ciMask     uint64
	remaining  int    // cores still inside their measurement window
	instrLimit uint64 // cached for the filtered loop's hit-segment freezes

	l2         ctrl.Controller
	l2Mixed    ctrl.MixedController // l2's mixed fast path, or nil
	alloc      Allocator
	allocMixed MixedAllocator        // alloc's mixed fast path, or nil
	chooser    PolicyChooser         // alloc's insertion-policy choices, or nil
	setter     InsertionPolicySetter // l2's insertion-policy hook, or nil

	latL1Hit  int
	latL2Hit  int
	latL2Miss int // L2 hit latency plus memory latency

	cont *contentionState
}

// Run executes the configured simulation to completion.
func Run(cfg Config) Result {
	n := len(cfg.Apps)
	if len(cfg.Miss) > 0 {
		if n > 0 && n != len(cfg.Miss) {
			panic("sim: Apps and Miss lengths differ")
		}
		if cfg.OnRepartition != nil {
			panic("sim: OnRepartition requires unfiltered streams (see filter.go)")
		}
		n = len(cfg.Miss)
	}
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
		cores:     make([]coreState, n),
		heap:      make([]uint64, n),
		ciBits:    uint(bits.Len(uint(n - 1))),
		l2:        cfg.L2,
		alloc:     cfg.Alloc,
		latL1Hit:  cfg.Lat.L1Hit,
		latL2Hit:  cfg.Lat.L2Hit,
		latL2Miss: cfg.Lat.L2Hit + cfg.Lat.Memory,
		cont:      newContentionState(cfg.Contention),
	}
	rs.ciMask = 1<<rs.ciBits - 1
	rs.l2Mixed, _ = cfg.L2.(ctrl.MixedController)
	rs.allocMixed, _ = cfg.Alloc.(MixedAllocator)
	rs.chooser, _ = cfg.Alloc.(PolicyChooser)
	rs.setter, _ = cfg.L2.(InsertionPolicySetter)
	rs.remaining = n
	for i := range rs.cores {
		c := &rs.cores[i]
		c.warmLeft = cfg.WarmupInstr
		if len(cfg.Miss) > 0 {
			c.mstream = cfg.Miss[i]
			continue
		}
		c.app = cfg.Apps[i]
		c.packed, _ = cfg.Apps[i].(workload.PackedApp)
		if cfg.L1Lines > 0 {
			c.l1 = newL1Cache(cfg.L1Lines, cfg.L1Ways)
		}
		// The identity order is a valid heap: all clocks start at zero and
		// ties order by core index, so every parent precedes its children.
		rs.heap[i] = uint64(i) // cycle 0 packed with index i
	}

	var res Result
	if len(cfg.Miss) > 0 {
		rs.runFiltered(&cfg, &res)
		return rs.finish(res)
	}
	nextRepart := cfg.RepartitionCycles
	repartEnabled := rs.alloc != nil && cfg.RepartitionCycles > 0
	for rs.remaining > 0 {
		// Step the core with the lowest local clock (the global low-water
		// mark), so shared-cache accesses interleave in time order. Frozen
		// cores keep running so the cache keeps seeing their traffic. Only
		// the stepped core's clock changes, so restoring heap order after
		// the step is a single sift-down from the root.
		ci := int(rs.heap[0] & rs.ciMask)
		c := &rs.cores[ci]

		// Repartition when global time crosses the boundary.
		if repartEnabled && c.cycle >= nextRepart {
			targets := rs.repartition(&cfg, &res)
			if cfg.OnRepartition != nil {
				actual := make([]int, rs.l2.NumPartitions())
				for p := range actual {
					actual[p] = rs.l2.Size(p)
				}
				cfg.OnRepartition(c.cycle, targets, actual)
			}
			nextRepart += cfg.RepartitionCycles
		}

		var gap int
		var addr uint64
		if c.refPos < len(c.refs) {
			// Recorded-stream fast path: one load from the packed chunk,
			// no interface call.
			gap, addr = workload.UnpackRef(c.refs[c.refPos])
			c.refPos++
		} else if c.packed != nil {
			if c.refs = c.packed.NextPacked(); len(c.refs) > 0 {
				gap, addr = workload.UnpackRef(c.refs[0])
				c.refPos = 1
			} else {
				// Budget fall-through: the replay cursor went live.
				c.packed = nil
				gap, addr = c.app.Next()
			}
		} else {
			gap, addr = c.app.Next()
		}
		addr = uint64(ci+1)<<40 | addr // disjoint address spaces
		lat, l1Miss, l2Hit, l2Acc := rs.access(c, addr, ci)
		if l2Acc {
			now := c.cycle + uint64(gap)
			lat += int(rs.cont.l2Delay(addr, now))
			if !l2Hit {
				lat += int(rs.cont.memDelay(now))
			}
		}

		measuring := c.warmLeft == 0 && !c.frozen
		steps := uint64(gap) + 1
		c.cycle += uint64(gap) + uint64(lat)
		if measuring {
			c.stats.L1Accesses++
			if l1Miss {
				c.stats.L1Misses++
			}
			if l2Acc {
				c.stats.L2Accesses++
				if !l2Hit {
					c.stats.L2Misses++
				}
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
		rs.heap[0] = c.cycle<<rs.ciBits | uint64(ci)
		rs.fixRoot()
	}
	return rs.finish(res)
}

// repartition runs one allocator invocation and applies its decisions.
func (rs *runState) repartition(cfg *Config, res *Result) []int {
	targets := rs.alloc.Allocate(cfg.PartitionableLines)
	rs.l2.SetTargets(targets)
	if rs.chooser != nil && rs.setter != nil {
		for p, brrip := range rs.chooser.InsertionPolicies() {
			rs.setter.SetInsertionPolicy(p, brrip)
		}
	}
	res.Repartitions++
	return targets
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

// access performs one memory reference through the hierarchy and returns
// its latency plus what happened at each level.
func (rs *runState) access(c *coreState, addr uint64, core int) (lat int, l1Miss, l2Hit, l2Acc bool) {
	if c.l1 != nil && c.l1.access(addr) {
		return rs.latL1Hit, false, false, false
	}
	lat, l2Hit = rs.accessL2(addr, core)
	return lat, true, l2Hit, true
}

// accessL2 performs one post-L1 reference: it feeds the allocator's monitors
// and the shared controller, and returns the access latency and whether the
// L2 hit. The address is mixed once here and the value shared between the
// monitors and the controller's hashed arrays; the L1 indexes by low address
// bits, so hits there never need the mix.
func (rs *runState) accessL2(addr uint64, core int) (lat int, hit bool) {
	mixed := hash.Mix64(addr)
	if rs.allocMixed != nil {
		rs.allocMixed.AccessMixed(core, addr, mixed)
	} else if rs.alloc != nil {
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

// fixRoot restores the heap invariant after the root core's clock advanced:
// a hole-based sift-down (children move up into the hole, the root key is
// written once at its final level). Keys pack (cycle, index) so each
// comparison is a single integer compare; the order is a strict total order
// (core indices are unique), so the minimum core is unique and any valid
// heap shape pops the same schedule as the original linear min-scan (strict
// less-than keeps the lowest-index minimum).
//
// The heap is 8-ary: a stepped core usually traverses the sift in full (its
// clock jumps past most peers every step), so depth dominates the cost. The
// wide fan-out keeps every configured core count within two levels (a 32-core
// heap is 3 levels at 4-ary, 2 at 8-ary) and each level's children share at
// most two cache lines. Because the packed keys form a strict total order,
// the popped schedule is arity-independent — any valid heap shape yields the
// same unique minimum — so widening preserves bit-identical runs. The
// identity layout remains a valid initial heap: every parent index is below
// its children's, matching the all-zero-clock tie order.
func (rs *runState) fixRoot() { rs.siftDown(0) }

// siftDown restores the heap invariant below slot i after its key grew.
func (rs *runState) siftDown(i int) {
	h := rs.heap
	n := len(h)
	root := h[i]
	for {
		c0 := 8*i + 1
		if c0 >= n {
			break
		}
		end := c0 + 8
		if end > n {
			end = n
		}
		best := c0
		bk := h[c0]
		for j := c0 + 1; j < end; j++ {
			if h[j] < bk {
				best, bk = j, h[j]
			}
		}
		if bk >= root {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = root
}

// String formats a result compactly.
func (r Result) String() string {
	return fmt.Sprintf("throughput=%.3f cores=%d repartitions=%d", r.Throughput, len(r.Cores), r.Repartitions)
}
