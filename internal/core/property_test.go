package core

import (
	"testing"
	"testing/quick"

	"vantage/internal/cache"
	"vantage/internal/hash"
)

// TestPropertyConservation drives randomized traffic shapes through the
// controller and checks the bookkeeping identities after every batch:
//   - Σ partition sizes + unmanaged size == valid lines in the array
//   - every valid line has an owner; every invalid line has none
//   - no partition size is negative
func TestPropertyConservation(t *testing.T) {
	f := func(seed uint64, wsRaw [4]uint16, targetRaw [4]uint16) bool {
		arr := cache.NewZCache(1024, 4, 52, seed)
		c := New(arr, Config{Partitions: 4, UnmanagedFrac: 0.08, AMax: 0.5, Slack: 0.1, Seed: seed})
		targets := make([]int, 4)
		for i, tr := range targetRaw {
			targets[i] = int(tr) % 400 // may be 0: deletion is legal
		}
		c.SetTargets(targets)
		rng := hash.NewRand(seed | 1)
		ws := make([]int, 4)
		for i, w := range wsRaw {
			ws[i] = int(w)%1500 + 1
		}
		for step := 0; step < 4000; step++ {
			p := rng.Intn(4)
			c.Access(uint64(p+1)<<40|uint64(rng.Intn(ws[p])), p)
		}
		valid, owned := 0, 0
		for id := 0; id < arr.NumLines(); id++ {
			hasOwner := c.meta[id].part >= 0
			if arr.Line(cache.LineID(id)).Valid {
				valid++
				if !hasOwner {
					return false
				}
			} else if hasOwner {
				return false
			}
		}
		total := c.UnmanagedSize()
		if total < 0 {
			return false
		}
		for p := 0; p < 4; p++ {
			if c.Size(p) < 0 {
				return false
			}
			total += c.Size(p)
		}
		owned = total
		return owned == valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCountersConsistent checks counter identities under random
// traffic: evictions <= misses, hits+misses == accesses issued, and
// forced evictions <= evictions.
func TestPropertyCountersConsistent(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		arr := cache.NewZCache(512, 4, 16, seed)
		c := New(arr, Config{Partitions: 2, UnmanagedFrac: 0.1, AMax: 0.4, Slack: 0.1, Seed: seed})
		rng := hash.NewRand(seed | 1)
		accesses := uint64(n) + 100
		for i := uint64(0); i < accesses; i++ {
			p := rng.Intn(2)
			c.Access(uint64(p+1)<<40|uint64(rng.Intn(700)), p)
		}
		cnt := c.Counters()
		if cnt.Hits+cnt.Misses != accesses {
			return false
		}
		if cnt.Evictions > cnt.Misses {
			return false
		}
		return cnt.ForcedManagedEvictions <= cnt.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLookupAfterTraffic: any address just accessed must hit on an
// immediate re-access, whatever the controller did in between (demotion,
// relocation, promotion).
func TestPropertyLookupAfterTraffic(t *testing.T) {
	f := func(seed uint64) bool {
		arr := cache.NewZCache(512, 4, 52, seed)
		c := New(arr, Config{Partitions: 3, UnmanagedFrac: 0.1, AMax: 0.5, Slack: 0.1, Seed: seed})
		rng := hash.NewRand(seed | 1)
		for i := 0; i < 2000; i++ {
			p := rng.Intn(3)
			addr := uint64(p+1)<<40 | uint64(rng.Intn(600))
			c.Access(addr, p)
			if r := c.Access(addr, p); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTargetsNeverDemoteUnder: a partition never demotes while at
// or below its target (checked via the observer across random traffic).
func TestPropertyTargetsNeverDemoteUnder(t *testing.T) {
	f := func(seed uint64) bool {
		arr := cache.NewZCache(1024, 4, 52, seed)
		c := New(arr, Config{Partitions: 2, UnmanagedFrac: 0.1, AMax: 0.5, Slack: 0.1, Seed: seed})
		c.SetTargets([]int{600, 321})
		ok := true
		c.SetEvictionObserver(func(part int, pri float64, dem bool) {
			// At demotion time the partition was over target (size is
			// decremented by the demotion itself, so >= target holds after).
			if dem && part < 2 && c.Size(part) < c.Target(part) {
				ok = false
			}
		})
		rng := hash.NewRand(seed | 1)
		for i := 0; i < 6000; i++ {
			p := rng.Intn(2)
			c.Access(uint64(p+1)<<40|uint64(rng.Intn(900)), p)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotContract checks what a slot-indexed store relies on: a shadow
// array written at AccessResult.Slot and swapped by the move observer names
// every resident line's address; after a miss the slot it reports holds the
// evicted line's shadow (or nothing); and a twin controller driven by
// LookupMixed+Touch on resident addresses decides exactly as one driven by
// Access alone.
func TestSlotContract(t *testing.T) {
	newCtl := func() (*cache.ZCache, *Controller) {
		arr := cache.NewZCache(256, 4, 52, 9)
		return arr, New(arr, Config{Partitions: 4, UnmanagedFrac: 0.08, AMax: 0.5, Slack: 0.1, Seed: 9})
	}
	arr, c := newCtl()
	_, twin := newCtl()
	shadow := make([]uint64, arr.NumLines()) // 0 = nothing stored
	c.SetMoveObserver(func(src, dst cache.LineID) {
		shadow[dst], shadow[src] = shadow[src], shadow[dst]
	})
	rng := hash.NewRand(77)
	for step := 0; step < 20000; step++ {
		p := rng.Intn(4)
		addr := uint64(p+1)<<40 | uint64(1+rng.Intn(200))
		mixed := hash.Mix64(addr)

		res := c.AccessMixed(addr, mixed, p)
		id, resident := twin.LookupMixed(addr, mixed)
		if resident {
			twin.Touch(id, p)
		} else if tr := twin.AccessMixed(addr, mixed, p); tr != res {
			t.Fatalf("step %d: twin miss %+v, want %+v", step, tr, res)
		}
		if resident != res.Hit {
			t.Fatalf("step %d: twin resident %v, Access hit %v", step, resident, res.Hit)
		}

		if id, ok := arr.Lookup(addr); !ok || id != res.Slot {
			t.Fatalf("step %d: Slot %d, Lookup finds %d (%v)", step, res.Slot, id, ok)
		}
		switch {
		case res.Hit && shadow[res.Slot] != addr:
			t.Fatalf("step %d: hit slot %d shadows %#x, want %#x", step, res.Slot, shadow[res.Slot], addr)
		case !res.Hit && res.EvictedValid && shadow[res.Slot] != res.Evicted:
			t.Fatalf("step %d: install slot %d shadows %#x, want the evicted %#x", step, res.Slot, shadow[res.Slot], res.Evicted)
		case !res.Hit && !res.EvictedValid && shadow[res.Slot] != 0:
			t.Fatalf("step %d: install slot %d was free but shadows %#x", step, res.Slot, shadow[res.Slot])
		}
		shadow[res.Slot] = addr
		for id := 0; id < arr.NumLines(); id++ {
			if l := arr.Line(cache.LineID(id)); l.Valid && shadow[id] != l.Addr {
				t.Fatalf("step %d: slot %d holds %#x, shadow says %#x", step, id, l.Addr, shadow[id])
			} else if !l.Valid && shadow[id] != 0 {
				t.Fatalf("step %d: free slot %d shadows %#x", step, id, shadow[id])
			}
		}
	}
	if c.Counters() != twin.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", c.Counters(), twin.Counters())
	}
	for p := 0; p < 4; p++ {
		if c.Size(p) != twin.Size(p) || c.PartitionCounters(p) != twin.PartitionCounters(p) {
			t.Fatalf("partition %d diverged", p)
		}
	}
}
