// Expiry integration: the service layer's TTL subsystem reports lines whose
// values have expired, and the controller retires them through the demotion
// machinery rather than a special invalidation path. Demotion is the right
// primitive because it only changes region ownership — the line still leaves
// the array through the ordinary replacement process, so every unmanaged-
// region invariant (its size feedback, its timestamp clock, its eviction
// ordering) keeps holding; the paper's §3.4 deletion idiom applied at line
// rather than partition granularity.

package core

import "vantage/internal/cache"

// DemoteExpiredSlot moves the line in slot id (resolved by LookupMixed) into
// the unmanaged region, backdated to maximum age so it is the replacement
// process's preferred victim, and reports whether the slot held a line. The
// owning partition's occupancy drops immediately, which is the point: a mass
// expiry shrinks the partition's actual size at sweep speed instead of churn
// speed, and the next repartition sees occupancy that reflects live data.
//
// Unlike demote (the §4 churn path), this does not count toward the
// partition's candsDemoted: expired lines never pass through the candidate
// scan, so charging them to the setpoint feedback loop would bias the
// aperture toward fewer churn demotions than the target requires.
func (c *Controller) DemoteExpiredSlot(id cache.LineID) bool {
	m := &c.meta[id]
	owner := m.part
	if owner < 0 {
		return false
	}
	if owner == c.unmanagedID {
		// Already unmanaged (demoted by churn since it expired): re-stale it
		// so it still evicts first.
		if c.track {
			c.quant[c.unmanagedID].Remove(m.ts)
		}
		m.ts = c.unmanagedTS + 1
		if c.track {
			c.quant[c.unmanagedID].Add(m.ts)
		}
		return true
	}
	q := int(owner)
	p := &c.parts[q]
	if c.observer != nil {
		c.observer(q, c.quant[q].EvictionPriority(m.ts, p.currentTS), true)
	}
	if c.track {
		c.quant[q].Remove(m.ts)
	}
	p.actual--
	p.demotedLines++
	c.demotions++
	c.unmanagedSize++
	c.unmanagedTick()
	// Set the timestamp after the tick: unmanagedTS+1 reads as age 255 (the
	// 8-bit clock's maximum) to the candidate scan, making the line the top
	// unmanaged eviction candidate until the clock wraps past it.
	m.part = c.unmanagedID
	m.ts = c.unmanagedTS + 1
	if c.track {
		c.quant[c.unmanagedID].Add(m.ts)
	}
	return true
}
