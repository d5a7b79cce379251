package core

import (
	"testing"

	"vantage/internal/cache"
	"vantage/internal/hash"
)

// TestSetpointScanMatchesGeneral proves what scanSetpoint's comment claims:
// the specialised scan takes every decision scanGeneral's ModeSetpoint path
// takes. Two controllers on identical Z4/52 arrays see the same stream; one
// has a no-op eviction observer, which turns on tracking and so sends every
// miss through scanGeneral. The stream retargets every few thousand
// accesses, keeps one partition at target 0 for a while (the demote-always
// path) and expires random slots, so free slots, demotions, forced
// evictions and setpoint adjustments all occur.
func TestSetpointScanMatchesGeneral(t *testing.T) {
	const (
		lines    = 2048
		parts    = 6
		accesses = 200_000
	)
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		build := func() *Controller {
			return New(cache.NewZCache(lines, 4, 52, seed), Config{
				Partitions: parts, UnmanagedFrac: 0.05, AMax: 0.5, Slack: 0.1, Seed: seed,
			})
		}
		fast, general := build(), build()
		general.SetEvictionObserver(func(part int, priority float64, demotion bool) {})
		if fast.track || !general.track {
			t.Fatal("the twins do not take different scans")
		}

		rng := hash.NewRand(seed)
		ws := make([]int, parts)
		for p := range ws {
			ws[p] = 64 + rng.Intn(lines)
		}
		targets := make([]int, parts)
		for i := 0; i < accesses; i++ {
			if i%5000 == 0 {
				left := lines - lines/20
				for p := range targets {
					targets[p] = rng.Intn(left/(parts-p) + 1)
					left -= targets[p]
				}
				targets[parts-1] += left
				if i/5000%4 == 1 {
					targets[seed%parts] = 0
				}
				fast.SetTargets(targets)
				general.SetTargets(targets)
			}
			if rng.Intn(64) == 0 {
				id := cache.LineID(rng.Intn(lines))
				if a, b := fast.DemoteExpiredSlot(id), general.DemoteExpiredSlot(id); a != b {
					t.Fatalf("seed %d access %d: DemoteExpiredSlot(%d) = %v and %v", seed, i, id, a, b)
				}
			}
			p := rng.Intn(parts)
			addr := uint64(p+1)<<40 | uint64(rng.Intn(ws[p]))
			if a, b := fast.Access(addr, p), general.Access(addr, p); a != b {
				t.Fatalf("seed %d access %d: scanSetpoint gave %+v, scanGeneral %+v", seed, i, a, b)
			}
		}
		a, b := fast.Counters(), general.Counters()
		if a != b {
			t.Fatalf("seed %d: counters differ:\nsetpoint %+v\ngeneral  %+v", seed, a, b)
		}
		for p := 0; p < parts; p++ {
			if x, y := fast.PartitionCounters(p), general.PartitionCounters(p); x != y {
				t.Fatalf("seed %d partition %d: counters differ: %+v and %+v", seed, p, x, y)
			}
		}
		if a.ForcedManagedEvictions == 0 || a.SetpointAdjusts == 0 {
			t.Fatalf("seed %d: the stream never reached the fallback path or the setpoint feedback: %+v", seed, a)
		}
		t.Logf("seed %d: %+v", seed, a)
	}
}
