// Package core implements the Vantage cache-partitioning controller, the
// primary contribution of the paper (§3 and §4).
//
// Vantage divides the cache into a managed region, which is partitioned, and
// a small unmanaged region that absorbs evictions and partition outgrowth
// (§3.3). Partition sizes are maintained by matching each partition's
// insertion rate (churn) with its demotion rate (§3.4): on every replacement
// the controller checks all candidates and demotes the ones below their
// partition's aperture into the unmanaged region, then evicts the oldest
// unmanaged candidate. The practical controller (§4) derives apertures with
// negative feedback (feedback-based aperture control) and picks demotion
// victims without tracking eviction priorities (setpoint-based demotions),
// using only 8/16-bit registers per partition — the state of the paper's
// Fig 4.
//
// Besides the practical controller, the package implements the two
// validation configurations of §6.2 (perfect-aperture control backed by
// exact priority tracking) and the Vantage-DRRIP variant where per-partition
// setpoint RRPVs replace setpoint timestamps.
package core

import (
	"fmt"

	"vantage/internal/cache"
	"vantage/internal/ctrl"
	"vantage/internal/hash"
	"vantage/internal/stats"
)

// Mode selects the controller variant.
type Mode int

const (
	// ModeSetpoint is the practical controller of §4: feedback-based
	// aperture control with setpoint-based demotions over coarse-timestamp
	// LRU. This is the configuration the paper evaluates as "Vantage".
	ModeSetpoint Mode = iota
	// ModePerfectAperture is the §6.2 validation configuration: the same
	// feedback transfer function (Eq 7) but demotions use exact eviction
	// priorities (perfect knowledge) instead of setpoints.
	ModePerfectAperture
	// ModeRRIP is Vantage-DRRIP (§6.2): per-partition setpoint RRPVs over
	// 3-bit re-reference prediction values, with per-partition dynamic
	// SRRIP/BRRIP insertion dueling.
	ModeRRIP
	// ModeOnePerEviction is the §3.3 ablation: instead of demoting on the
	// average with an aperture, every replacement demotes exactly the
	// single best candidate from an over-target partition. Its demotion
	// priorities follow Eq 2's distribution (Fig 2b) — markedly worse
	// associativity than the on-average discipline.
	ModeOnePerEviction
)

// String returns the variant name.
func (m Mode) String() string {
	switch m {
	case ModeSetpoint:
		return "Vantage"
	case ModePerfectAperture:
		return "Vantage-Perfect"
	case ModeRRIP:
		return "Vantage-DRRIP"
	case ModeOnePerEviction:
		return "Vantage-OnePerEvict"
	}
	return "Vantage-?"
}

// Config configures a Vantage controller.
type Config struct {
	// Partitions is the number of partitions (excluding the unmanaged
	// region).
	Partitions int
	// UnmanagedFrac is u, the fraction of the cache left unmanaged. The
	// paper's default evaluation setting is 0.05 with Z4/52 (§6.1).
	UnmanagedFrac float64
	// AMax is the maximum aperture (paper: 0.4–0.5).
	AMax float64
	// Slack is the feedback slack (paper: 0.1).
	Slack float64
	// Mode selects the controller variant (default ModeSetpoint).
	Mode Mode
	// Seed seeds the BRRIP bimodal throttle in ModeRRIP.
	Seed uint64
}

// thresholdEntries is the size of the demotion-thresholds lookup table
// (paper Fig 4: 8 entries).
const thresholdEntries = 8

// candsPerAdjust is c, the candidates seen per partition between setpoint
// adjustments; 256 matches the paper's 8-bit CandsSeen counter.
const candsPerAdjust = 256

// partState is the per-partition controller state of the paper's Fig 4.
// Registers are modeled at their architectural widths where the width has
// semantic effect (8-bit timestamps and candidate counters wrap).
//
// Field order is part of the hot-path contract: the demotion scan of replace
// reads currentTS/setpointTS/candsSeen/actual/target (and on a demotion
// candsDemoted/demotedLines) for every managed candidate — 52 per miss on
// the paper's zcache — so those fields lead the struct and share its first
// cache line; the cold threshold tables and instrumentation counters follow.
type partState struct {
	currentTS    uint8
	setpointTS   uint8
	candsSeen    uint8
	setpointRRPV uint8 // ModeRRIP state
	brrip        bool  // ModeRRIP: current insertion policy
	extPolicy    bool  // ModeRRIP: insertion policy set externally (UMON-RRIP)
	psel         int16 // ModeRRIP: per-partition SRRIP/BRRIP duel selector
	actual       int
	target       int
	accessCtr    int
	candsDemoted int
	demotedLines uint64
	thrSize      [thresholdEntries]int
	thrDems      [thresholdEntries]int
	// Churn measurement (insertions since last Stats call), for reporting
	// and for tests of Eq 4 behavior.
	insertions uint64
	// Lifetime per-partition counters (not architectural state; for
	// instrumentation).
	hits, misses, promotedLines uint64
}

// lineMeta is one line's controller state: the owning partition (partition
// index, unmanagedID, or -1 when none) and the replacement state (coarse
// timestamp, plus RRPV in ModeRRIP). The three fields share a four-byte
// record because the miss path reads all of them for every replacement
// candidate — 52 per miss on the paper's zcache — and split arrays would
// cost a cache miss each.
//
// Invariant: part == -1 exactly when the slot's line is invalid. It holds
// because every transition is paired — New starts all-invalid/-1, installs
// set the owner, relocations run through the move hook (which claims dst and
// clears src), and evictions clear the victim's owner just before the array
// overwrites the slot. Nothing else invalidates lines under a controller:
// deletion in the serving layer leaves the tag to age out, and expiry runs
// through DemoteExpiredSlot. The setpoint scan relies on this to detect free
// slots from the metadata word alone, without touching the line store.
type lineMeta struct {
	part int16
	ts   uint8
	rrpv uint8
}

// Controller is a Vantage cache controller implementing ctrl.Controller.
type Controller struct {
	arr   cache.Array
	marr  cache.MixedArray // arr's mixed fast path, or nil
	lines []cache.Line     // arr's backing line store, or nil (see cache.LinesAccessor)
	cfg   Config
	name  string

	parts []partState
	// Per-line state, packed so the candidate scan of replace touches one
	// word per candidate instead of three parallel arrays.
	meta []lineMeta

	unmanagedID     int16
	unmanagedTS     uint8
	unmanagedCtr    int
	unmanagedSize   int
	unmanagedTarget int

	candBuf []cache.LineID
	// metaBuf is scanSetpoint's gather scratch: the candidates' metadata
	// words are batch-copied first so the scattered loads overlap, then the
	// scan runs over the dense copy (writes still go through meta).
	metaBuf []lineMeta
	rng     *hash.Rand

	// Exact priority tracking: per-partition + unmanaged timestamp
	// histograms. Enabled in ModePerfectAperture or when an observer is set.
	track    bool
	quant    []stats.TSQuantiler // len Partitions+1; last is unmanaged
	observer ctrl.EvictionObserver
	duelMask uint64
	duelH    *hash.H3

	// Counters.
	hits, misses, demotions, promotions uint64
	evictions, forcedEvictions          uint64
	setpointAdjusts                     uint64
}

// New returns a Vantage controller over arr.
func New(arr cache.Array, cfg Config) *Controller {
	if cfg.Partitions <= 0 {
		panic("core: need at least one partition")
	}
	if cfg.UnmanagedFrac <= 0 || cfg.UnmanagedFrac >= 1 {
		panic("core: UnmanagedFrac must be in (0,1)")
	}
	if cfg.AMax <= 0 || cfg.AMax > 1 {
		panic("core: AMax must be in (0,1]")
	}
	if cfg.Slack <= 0 {
		panic("core: Slack must be positive")
	}
	n := arr.NumLines()
	c := &Controller{
		arr:             arr,
		cfg:             cfg,
		name:            cfg.Mode.String(),
		parts:           make([]partState, cfg.Partitions),
		meta:            make([]lineMeta, n),
		unmanagedID:     int16(cfg.Partitions),
		unmanagedTarget: int(cfg.UnmanagedFrac * float64(n)),
		rng:             hash.NewRand(cfg.Seed ^ 0xa17a9e),
		duelMask:        63,
		duelH:           hash.NewH3(16, hash.Mix64(cfg.Seed^0x7a91)),
	}
	c.marr, _ = arr.(cache.MixedArray)
	if la, ok := arr.(cache.LinesAccessor); ok {
		c.lines = la.Lines()
	}
	if c.unmanagedTarget < 1 {
		c.unmanagedTarget = 1
	}
	for i := range c.meta {
		c.meta[i].part = -1
	}
	for i := range c.parts {
		p := &c.parts[i]
		p.setpointTS = p.currentTS - 128 // mid-range keep window; feedback converges
		p.setpointRRPV = 7
		p.brrip = false
	}
	c.track = cfg.Mode == ModePerfectAperture
	if c.track {
		c.quant = make([]stats.TSQuantiler, cfg.Partitions+1)
	}
	// Give every partition an equal initial target over the managed region.
	managed := n - c.unmanagedTarget
	targets := make([]int, cfg.Partitions)
	for i := range targets {
		targets[i] = managed / cfg.Partitions
	}
	c.SetTargets(targets)
	if rel, ok := arr.(cache.Relocator); ok {
		rel.SetMoveHook(c.moveMeta)
	}
	return c
}

// moveMeta is the array's move hook: a relocated line keeps its metadata.
func (c *Controller) moveMeta(src, dst cache.LineID) {
	c.meta[dst] = c.meta[src]
	c.meta[src].part = -1
}

// SetMoveObserver registers fn to run after the controller's own
// bookkeeping for every line the array relocates from slot src to slot dst,
// so a caller keeping per-slot data can move it with the line. A walk that
// evicts a deep candidate moves each line on the path one step towards the
// victim's slot; an observer that swaps its src and dst records therefore
// finds the victim's record in the slot the incoming line is installed into
// (AccessResult.Slot). Arrays that never relocate never call fn.
func (c *Controller) SetMoveObserver(fn func(src, dst cache.LineID)) {
	if rel, ok := c.arr.(cache.Relocator); ok {
		rel.SetMoveHook(func(src, dst cache.LineID) {
			c.moveMeta(src, dst)
			fn(src, dst)
		})
	}
}

// Name implements ctrl.Controller.
func (c *Controller) Name() string { return c.name }

// Array implements ctrl.Controller.
func (c *Controller) Array() cache.Array { return c.arr }

// NumPartitions implements ctrl.Controller.
func (c *Controller) NumPartitions() int { return c.cfg.Partitions }

// Size implements ctrl.Controller.
func (c *Controller) Size(part int) int { return c.parts[part].actual }

// Target returns the current target size of partition part, in lines.
func (c *Controller) Target(part int) int { return c.parts[part].target }

// UnmanagedSize returns the current number of lines in the unmanaged region.
func (c *Controller) UnmanagedSize() int { return c.unmanagedSize }

// SetEvictionObserver implements ctrl.Observable. Setting an observer
// enables exact priority tracking (histograms per partition), which the
// hardware would not have; it is measurement-only and does not change
// control decisions in ModeSetpoint.
func (c *Controller) SetEvictionObserver(fn ctrl.EvictionObserver) {
	c.observer = fn
	if fn != nil && c.quant == nil {
		c.quant = make([]stats.TSQuantiler, c.cfg.Partitions+1)
		// Populate from current contents.
		for id := 0; id < c.arr.NumLines(); id++ {
			if m := &c.meta[id]; m.part >= 0 {
				c.quant[m.part].Add(m.ts)
			}
		}
	}
	c.track = c.cfg.Mode == ModePerfectAperture || fn != nil
}

// SetTargets implements ctrl.Controller: sets the per-partition allocations
// in lines and rebuilds the demotion-thresholds lookup tables (Fig 3c).
// Deleting a partition is setting its target to 0 (§3.4): its aperture
// becomes 1.0 and its lines drain into the unmanaged region.
func (c *Controller) SetTargets(targets []int) {
	if len(targets) != c.cfg.Partitions {
		panic(fmt.Sprintf("core: SetTargets got %d targets for %d partitions", len(targets), c.cfg.Partitions))
	}
	for i, t := range targets {
		if t < 0 {
			panic("core: negative target")
		}
		p := &c.parts[i]
		p.target = t
		// Fig 3c: entry k covers sizes from target·(1+slack·k/(E-1)) and
		// prescribes c·Amax·(k+1)/E demotions per c candidates.
		for k := 0; k < thresholdEntries; k++ {
			p.thrSize[k] = int(float64(t) * (1 + c.cfg.Slack*float64(k)/float64(thresholdEntries-1)))
			p.thrDems[k] = int(candsPerAdjust * c.cfg.AMax * float64(k+1) / float64(thresholdEntries))
		}
	}
}

// Targets returns a copy of the current target allocations.
func (c *Controller) Targets() []int {
	out := make([]int, c.cfg.Partitions)
	for i := range c.parts {
		out[i] = c.parts[i].target
	}
	return out
}

// Counters reports the controller's event counts.
type Counters struct {
	Hits, Misses          uint64
	Demotions, Promotions uint64
	// Evictions counts replacements that evicted a valid line; of those,
	// ForcedManagedEvictions found no unmanaged candidate (§4.3, Fig 9b).
	Evictions, ForcedManagedEvictions uint64
	SetpointAdjusts                   uint64
}

// Counters returns the accumulated event counts.
func (c *Controller) Counters() Counters {
	return Counters{
		Hits: c.hits, Misses: c.misses,
		Demotions: c.demotions, Promotions: c.promotions,
		Evictions: c.evictions, ForcedManagedEvictions: c.forcedEvictions,
		SetpointAdjusts: c.setpointAdjusts,
	}
}

// PartitionCounters are one partition's lifetime event counts.
type PartitionCounters struct {
	Hits, Misses          uint64
	Demotions, Promotions uint64
}

// PartitionCounters returns partition part's accumulated event counts.
func (c *Controller) PartitionCounters(part int) PartitionCounters {
	p := &c.parts[part]
	return PartitionCounters{
		Hits: p.hits, Misses: p.misses,
		Demotions: p.demotedLines, Promotions: p.promotedLines,
	}
}

// SnapshotPartitions implements ctrl.Snapshotter: every partition's size,
// target, and lifetime counters in one call (callers serialize with Access).
func (c *Controller) SnapshotPartitions(dst []ctrl.PartitionSnapshot) []ctrl.PartitionSnapshot {
	for i := range c.parts {
		p := &c.parts[i]
		dst = append(dst, ctrl.PartitionSnapshot{
			Size: p.actual, Target: p.target,
			Hits: p.hits, Misses: p.misses,
			Demotions: p.demotedLines, Promotions: p.promotedLines,
		})
	}
	return dst
}

// Churn returns and resets the insertion count of partition part since the
// last call; allocation policies may use it as the churn estimate Ci.
func (c *Controller) Churn(part int) uint64 {
	v := c.parts[part].insertions
	c.parts[part].insertions = 0
	return v
}

// Aperture reports the effective aperture the feedback controller is
// applying for partition part (Eq 7 evaluated at the current size); useful
// for tests and instrumentation.
func (c *Controller) Aperture(part int) float64 {
	p := &c.parts[part]
	if p.target == 0 {
		return 1
	}
	return feedbackAperture(float64(p.actual), float64(p.target), c.cfg.AMax, c.cfg.Slack)
}

// KeepWindow exposes partition part's setpoint keep-window width, in
// coarse-timestamp units (test/instrumentation hook).
func (c *Controller) KeepWindow(part int) uint8 { return c.parts[part].keepWindow() }

// InsertionPolicy reports whether partition part currently inserts with
// BRRIP (ModeRRIP only).
func (c *Controller) InsertionPolicy(part int) (brrip bool) { return c.parts[part].brrip }

var _ ctrl.Controller = (*Controller)(nil)
var _ ctrl.MixedController = (*Controller)(nil)
var _ ctrl.Observable = (*Controller)(nil)
var _ ctrl.Snapshotter = (*Controller)(nil)
