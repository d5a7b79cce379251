package main

import (
	"time"

	"vantage/internal/cache"
	"vantage/internal/clock"
	"vantage/internal/core"
	"vantage/internal/service"
	"vantage/internal/ucp"
)

// The stand-alone layer probes of the traced pass. Each builds one layer on
// its own through the layer's exported constructor, drives it from a fixed
// harness stream and reports the calibrated cost of one call. They say what
// a layer costs by itself; the spans say how often a workload calls it.

// probeReps is how many times a probe's timed loop runs; the median counts.
const probeReps = 7

// timePerOp runs fn (which performs n operations) probeReps times between
// calibration slices and returns the median calibrated ns per operation.
func timePerOp(cal *calibrator, n int, fn func()) float64 {
	per := make([]float64, probeReps)
	before := cal.slice().total
	for i := range per {
		t0 := time.Now()
		fn()
		dt := time.Since(t0)
		after := cal.slice().total
		f := cal.c0() / ((before + after) / 2)
		per[i] = float64(dt) * f / float64(n)
		before = after
	}
	return median(per)
}

// skewed draws an index in [0,n) whose popularity falls off linearly: the
// smaller of two uniform draws.
func skewed(x *uint64, n uint64) uint64 {
	*x = xorshift(*x)
	a := (*x >> 8) % n
	*x = xorshift(*x)
	b := (*x >> 8) % n
	return min(a, b)
}

const (
	probeLines = 8192
	probeParts = 32
	probeOps   = 200_000
)

// probeStream fills addrs and parts with the harness stream of the
// controller probes: probeParts partitions with equal rates, each over a
// skewed working set twice its share of the array.
func probeStream(seed uint64, addrs []uint64, parts []int) {
	x := mix64(seed) | 1
	perPart := uint64(2 * probeLines / probeParts)
	for i := range addrs {
		x = xorshift(x)
		p := int(x>>40) % probeParts
		parts[i] = p
		addrs[i] = uint64(p+1)<<40 | skewed(&x, perPart)
	}
}

// coreProbes measures the replacement layers the simulator and the service
// share: the zcache array, the Vantage controller over it, and UCP.
func coreProbes(r *report, cal *calibrator, seed uint64) {
	addrs := make([]uint64, probeOps)
	parts := make([]int, probeOps)
	probeStream(seed, addrs, parts)

	arr := cache.NewZCache(probeLines, 4, 52, seed)
	ctl := core.New(arr, core.Config{Partitions: probeParts, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1, Seed: seed})
	targets := make([]int, probeParts)
	for i := range targets {
		targets[i] = (probeLines - probeLines/20) / probeParts
	}
	ctl.SetTargets(targets)
	access := func() {
		for i, a := range addrs {
			ctl.Access(a, parts[i])
		}
	}
	access() // warm: the array fills and the setpoints settle
	c0 := ctl.Counters()
	r.set("core.access_ns", timePerOp(cal, probeOps, access))
	c1 := ctl.Counters()
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	r.set("core.hit_ratio", hits/(hits+misses))
	r.set("core.demotions_per_miss", float64(c1.Demotions-c0.Demotions)/misses)
	r.set("core.forced_evict_share", float64(c1.ForcedManagedEvictions-c0.ForcedManagedEvictions)/float64(c1.Evictions-c0.Evictions))
	r.set("core.setpoint_adjusts", float64(c1.SetpointAdjusts-c0.SetpointAdjusts))

	found := 0
	r.set("cache.zcache_lookup_ns", timePerOp(cal, probeOps, func() {
		for _, a := range addrs {
			if _, ok := arr.Lookup(a); ok {
				found++
			}
		}
	}))
	_, cands, relocs := arr.Stats()
	r.set("cache.zcache_cands_per_walk", cands)
	r.set("cache.zcache_relocs_per_walk", relocs)

	umon := ucp.NewUMON(16, probeLines/16, 64, seed)
	r.set("ucp.umon_access_ns", timePerOp(cal, probeOps, func() {
		for _, a := range addrs {
			umon.Access(a)
		}
	}))

	pol := ucp.NewPolicy(probeParts, 16, probeLines, ucp.GranLines, seed)
	for i, a := range addrs {
		pol.Access(parts[i], a)
	}
	curves := make([][]float64, probeParts)
	for p := range curves {
		curves[p] = ucp.InterpolateCurve(pol.Monitor(p).HitCurve(), 256)
	}
	const lookaheads = 20
	r.set("ucp.lookahead_us", timePerOp(cal, lookaheads, func() {
		for i := 0; i < lookaheads; i++ {
			ucp.Lookahead(curves, 256, 1)
		}
	})/1e3)
	// Allocate decays the monitors, so feed them again between calls; only
	// the Allocate calls are on the clock.
	allocNS := make([]float64, lookaheads)
	for i := range allocNS {
		for j, a := range addrs[:probeOps/10] {
			pol.Access(parts[j], a)
		}
		t0 := time.Now()
		pol.Allocate(probeLines - probeLines/20)
		allocNS[i] = float64(time.Since(t0))
	}
	r.set("ucp.allocate_us", median(allocNS)/1e3)
}

// serviceProbes measures the in-process API one call at a time on a small
// service of its own: one tenant, timers off, fake clock.
func serviceProbes(r *report, cal *calibrator, seed uint64) error {
	const lines = 2 * probeLines
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	svc, err := service.New(service.Config{Shards: 2, LinesPerShard: lines / 2, Seed: seed, Clock: clk})
	if err != nil {
		return err
	}
	defer svc.Close()
	tenant := []byte("probe")
	if _, err := svc.AddTenant("probe"); err != nil {
		return err
	}
	salt := mix64(seed ^ 0x5eed)
	var key [keyLen]byte
	var val [valueLen]byte
	put := func(i uint64, ttl time.Duration) {
		h := mix64(i ^ salt)
		putKey(key[:], h)
		putValue(val[:], h)
		if err := svc.PutBTTL(tenant, key[:], val[:], ttl); err != nil {
			panic(err) // the tenant exists and nothing injects faults
		}
	}
	get := func(i uint64) bool {
		putKey(key[:], mix64(i^salt))
		_, hit, err := svc.GetB(tenant, key[:])
		if err != nil {
			panic(err)
		}
		return hit
	}

	// Resident set: half the capacity, so every key the hit and update
	// probes touch stays in; the insert probe, which evicts, comes last.
	const resident = lines / 2
	for i := uint64(0); i < resident; i++ {
		put(i, 0)
	}
	svc.Repartition()
	x := mix64(seed) | 1
	hits := 0
	r.set("service.get_hit_ns", timePerOp(cal, probeOps, func() {
		for i := 0; i < probeOps; i++ {
			x = xorshift(x)
			if get(x % resident) {
				hits++
			}
		}
	}))
	r.set("service.get_miss_ns", timePerOp(cal, probeOps, func() {
		for i := 0; i < probeOps; i++ {
			x = xorshift(x)
			if get(1<<40 | x>>24) {
				hits++
			}
		}
	}))
	r.set("service.put_update_ns", timePerOp(cal, probeOps, func() {
		for i := 0; i < probeOps; i++ {
			x = xorshift(x)
			put(x%resident, 0)
		}
	}))
	fresh := uint64(1) << 41
	r.set("service.put_insert_ns", timePerOp(cal, probeOps, func() {
		for i := 0; i < probeOps; i++ {
			fresh++
			put(fresh, 0)
		}
	}))

	const rounds = 20
	r.set("service.repartition_us", timePerOp(cal, rounds, func() {
		for i := 0; i < rounds; i++ {
			svc.Repartition()
		}
	})/1e3)
	// One sweep pass reclaims up to SweepBatch expired entries per shard;
	// give every pass a full batch to reclaim.
	batch := svc.Config().SweepBatch * svc.Config().Shards
	sweepNS := make([]float64, rounds)
	for i := range sweepNS {
		for j := 0; j < batch; j++ {
			fresh++
			put(fresh, time.Second)
		}
		clk.Advance(2 * time.Second)
		t0 := time.Now()
		svc.SweepOnce()
		sweepNS[i] = float64(time.Since(t0))
	}
	r.set("service.sweep_pass_us", median(sweepNS)/1e3)
	return nil
}

// serviceCounts reports the request and replacement counters a workload's
// services moved between two snapshots, summed over the services.
func serviceCounts(r *report, before, after []service.Stats) {
	var d struct{ gets, hits, misses, expired, puts, demotions, forced, drains, binFrames, mgets float64 }
	for i := range after {
		sum := func(st service.Stats, sign float64) {
			for _, t := range st.Tenants {
				d.gets += sign * float64(t.Gets)
				d.hits += sign * float64(t.Hits)
				d.misses += sign * float64(t.Misses)
				d.expired += sign * float64(t.Expired)
				d.puts += sign * float64(t.Puts)
				d.demotions += sign * float64(t.Demotions)
				d.forced += sign * float64(t.ForcedEvictions)
			}
			d.drains += sign * float64(st.UMONDrains)
			d.binFrames += sign * float64(st.BinFrames)
			d.mgets += sign * float64(st.MGets)
		}
		sum(after[i], 1)
		sum(before[i], -1)
	}
	r.set("service.gets", d.gets)
	r.set("service.hits", d.hits)
	r.set("service.misses", d.misses)
	r.set("service.expired", d.expired)
	r.set("service.puts", d.puts)
	if d.puts > 0 {
		r.set("service.demotions_per_put", d.demotions/d.puts)
	}
	r.set("service.forced_evictions", d.forced)
	r.set("service.umon_drains", d.drains)
	r.set("service.bin_frames", d.binFrames)
	r.set("service.mgets", d.mgets)
}
