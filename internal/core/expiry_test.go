package core

import (
	"testing"

	"vantage/internal/hash"
)

// demoteExpired is what the serving layer does for an expired key: resolve
// the address to its slot, then retire the slot.
func demoteExpired(c *Controller, addr uint64) bool {
	id, ok := c.LookupMixed(addr, hash.Mix64(addr))
	return ok && c.DemoteExpiredSlot(id)
}

// TestDemoteExpiredMovesLineToUnmanaged checks the bookkeeping: the owning
// partition's occupancy drops, the unmanaged region grows, the demotion
// counters advance, and the aperture feedback counter (candsDemoted) is NOT
// charged.
func TestDemoteExpiredMovesLineToUnmanaged(t *testing.T) {
	c := newTestController(4096, 2, ModeSetpoint)
	rng := hash.NewRand(11)
	drive(c, rng, []int{1500, 1500}, 4000)

	addr := uint64(0)<<40 | 7 // partition 0's working set includes line 7
	c.Access(addr, 0)         // make sure it is resident
	size0 := c.Size(0)
	unman := c.UnmanagedSize()
	dems := c.Counters().Demotions
	cands0 := c.parts[0].candsDemoted

	if !demoteExpired(c, addr) {
		t.Fatal("demoteExpired on a resident line returned false")
	}
	if got := c.Size(0); got != size0-1 {
		t.Fatalf("partition 0 size = %d after demoteExpired, want %d", got, size0-1)
	}
	if got := c.UnmanagedSize(); got != unman+1 {
		t.Fatalf("unmanaged size = %d, want %d", got, unman+1)
	}
	if got := c.Counters().Demotions; got != dems+1 {
		t.Fatalf("demotions = %d, want %d", got, dems+1)
	}
	if got := c.parts[0].candsDemoted; got != cands0 {
		t.Fatalf("candsDemoted changed %d -> %d; expiry must not bias aperture feedback", cands0, got)
	}

	// The line now reads as the oldest possible unmanaged candidate.
	id, ok := c.arr.Lookup(addr)
	if !ok {
		t.Fatal("line vanished from the array")
	}
	m := &c.meta[id]
	if m.part != c.unmanagedID {
		t.Fatalf("line owner = %d, want unmanaged (%d)", m.part, c.unmanagedID)
	}
	if age := c.unmanagedTS - m.ts; age != 255 {
		t.Fatalf("unmanaged age = %d, want 255 (top eviction candidate)", age)
	}

	// Demoting again (already unmanaged) re-stales without double-counting.
	if !demoteExpired(c, addr) {
		t.Fatal("demoteExpired on an unmanaged line returned false")
	}
	if got := c.UnmanagedSize(); got != unman+1 {
		t.Fatalf("unmanaged size double-counted: %d, want %d", got, unman+1)
	}
}

// TestDemoteExpiredAbsent: lines the array does not hold are reported absent
// and nothing changes.
func TestDemoteExpiredAbsent(t *testing.T) {
	c := newTestController(1024, 2, ModeSetpoint)
	if demoteExpired(c, 0xdead<<40|42) {
		t.Fatal("demoteExpired on an absent address returned true")
	}
	if got := c.Counters().Demotions; got != 0 {
		t.Fatalf("demotions = %d on absent address, want 0", got)
	}
}

// TestDemoteExpiredWithObserver checks the tracked path (observer installed):
// histograms stay consistent through expiry demotions — Remove/Add pairs must
// balance or later eviction-priority queries would corrupt.
func TestDemoteExpiredWithObserver(t *testing.T) {
	c := newTestController(4096, 2, ModeSetpoint)
	demoted := 0
	c.SetEvictionObserver(func(part int, priority float64, demotion bool) {
		if demotion {
			demoted++
		}
	})
	rng := hash.NewRand(13)
	drive(c, rng, []int{1200, 1200}, 3000)

	before := demoted
	addr := uint64(1)<<40 | 99
	c.Access(addr, 1)
	if !demoteExpired(c, addr) {
		t.Fatal("demoteExpired returned false")
	}
	if demoted != before+1 {
		t.Fatalf("observer saw %d demotions, want %d", demoted, before+1)
	}
	// The controller must stay usable: keep driving traffic through the
	// tracked histograms (Remove of an untracked ts would panic/corrupt).
	drive(c, rng, []int{1200, 1200}, 2000)
}
