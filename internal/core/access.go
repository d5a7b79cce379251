// The controller access paths: the hit path of §4.3 (timestamp refresh and
// promotions) and the miss path (demotion scan, victim selection, insertion).

package core

import (
	"vantage/internal/cache"
	"vantage/internal/ctrl"
	"vantage/internal/hash"
)

// Access implements ctrl.Controller.
func (c *Controller) Access(addr uint64, part int) ctrl.AccessResult {
	if c.marr != nil {
		return c.AccessMixed(addr, hash.Mix64(addr), part)
	}
	if id, ok := c.arr.Lookup(addr); ok {
		c.Touch(id, part)
		return ctrl.AccessResult{Hit: true, Slot: id}
	}
	c.misses++
	c.parts[part].misses++
	return c.replace(addr, 0, part)
}

// AccessMixed implements ctrl.MixedController: Access with the Mix64 of addr
// precomputed, so the zcache probes, the candidate walk, and the install
// share one mix instead of re-hashing per layer.
func (c *Controller) AccessMixed(addr, mixed uint64, part int) ctrl.AccessResult {
	if c.marr == nil {
		return c.Access(addr, part)
	}
	if id, ok := c.marr.LookupMixed(addr, mixed); ok {
		c.Touch(id, part)
		return ctrl.AccessResult{Hit: true, Slot: id}
	}
	c.misses++
	c.parts[part].misses++
	return c.replace(addr, mixed, part)
}

// LookupMixed resolves addr to the slot holding its line without touching
// any replacement state; mixed is the Mix64 of addr. With Touch and
// AccessResult.Slot it lets a serving layer keep per-line data in a slab
// indexed by slot and resolve each address once per request.
func (c *Controller) LookupMixed(addr, mixed uint64) (cache.LineID, bool) {
	if c.marr != nil {
		return c.marr.LookupMixed(addr, mixed)
	}
	return c.arr.Lookup(addr)
}

// Touch is the hit half of Access for a line already resolved to slot id
// (by LookupMixed, with no install in between): Access(addr, part) on a
// resident addr is exactly LookupMixed followed by Touch.
func (c *Controller) Touch(id cache.LineID, part int) {
	c.hits++
	c.parts[part].hits++
	c.onHit(id, part)
}

// onHit handles the §4.3 hit path: refresh the timestamp, tick the clock,
// and promote unmanaged lines into the accessor's partition.
func (c *Controller) onHit(id cache.LineID, part int) {
	p := &c.parts[part]
	m := &c.meta[id]
	owner := m.part
	switch {
	case owner == c.unmanagedID:
		// Promotion: the line rejoins the accessor's partition.
		c.promotions++
		p.promotedLines++
		c.unmanagedSize--
		if c.track {
			c.quant[c.unmanagedID].Remove(m.ts)
			c.quant[part].Add(p.currentTS)
		}
		m.part = int16(part)
		p.actual++
	case int(owner) != part:
		// Cross-partition hit (shared line): migrate to the accessor. The
		// paper's workloads have disjoint address spaces, so this is rare.
		if owner >= 0 {
			c.parts[owner].actual--
			if c.track {
				c.quant[owner].Remove(m.ts)
			}
		}
		m.part = int16(part)
		p.actual++
		if c.track {
			c.quant[part].Add(p.currentTS)
		}
	default:
		if c.track {
			c.quant[part].Move(m.ts, p.currentTS)
		}
	}
	m.ts = p.currentTS
	if c.cfg.Mode == ModeRRIP {
		m.rrpv = 0
	}
	c.tick(p)
}

// scanOutcome carries a demotion scan's victim-selection inputs.
type scanOutcome struct {
	freeSlot     cache.LineID
	bestUnman    cache.LineID
	bestDemoted  cache.LineID
	fallback     cache.LineID
	sawUnmanaged bool
}

// replace implements the §4.3 miss path. mixed is the Mix64 of addr; it is
// consulted only when the array has a mixed fast path (c.marr != nil) —
// generic-array callers pass 0.
func (c *Controller) replace(addr, mixed uint64, part int) ctrl.AccessResult {
	if c.marr != nil {
		c.candBuf = c.marr.CandidatesMixed(addr, mixed, c.candBuf[:0])
	} else {
		c.candBuf = c.arr.Candidates(addr, c.candBuf[:0])
	}

	var res ctrl.AccessResult
	var sc scanOutcome
	if c.cfg.Mode == ModeSetpoint && !c.track {
		// The practical controller with no measurement hooks is the
		// configuration every production run uses; it gets a scan
		// specialized to it.
		sc = c.scanSetpoint()
	} else {
		sc = c.scanGeneral()
	}
	freeSlot, bestUnmanStale, sawUnmanaged := sc.freeSlot, sc.bestUnman, sc.sawUnmanaged
	bestDemoted, fallback := sc.bestDemoted, sc.fallback

	// Pick the victim: free slot > oldest pre-existing unmanaged candidate >
	// demoted candidate > any managed candidate (forced managed eviction).
	victim := cache.InvalidLine
	switch {
	case freeSlot != cache.InvalidLine:
		victim = freeSlot
	case sawUnmanaged:
		victim = bestUnmanStale
	case bestDemoted != cache.InvalidLine:
		victim = bestDemoted
		res.ForcedManagedEviction = true
	default:
		victim = fallback
		res.ForcedManagedEviction = true
	}

	var vline *cache.Line
	if c.lines != nil {
		vline = &c.lines[victim]
	} else {
		vline = c.arr.Line(victim)
	}
	if line := vline; line.Valid {
		res.EvictedValid = true
		res.Evicted = line.Addr
		c.evictions++
		if res.ForcedManagedEviction {
			c.forcedEvictions++
		}
		vm := &c.meta[victim]
		owner := vm.part
		if owner == c.unmanagedID {
			if c.observer != nil {
				c.observer(int(c.unmanagedID), c.quant[c.unmanagedID].EvictionPriority(vm.ts, c.unmanagedTS), false)
			}
			c.unmanagedSize--
			if c.track {
				c.quant[c.unmanagedID].Remove(vm.ts)
			}
		} else if owner >= 0 {
			q := int(owner)
			if c.observer != nil {
				c.observer(q, c.quant[q].EvictionPriority(vm.ts, c.parts[q].currentTS), false)
			}
			c.parts[q].actual--
			if c.track {
				c.quant[q].Remove(vm.ts)
			}
		}
		vm.part = -1
	}

	var id cache.LineID
	var moves int
	if c.marr != nil {
		id, moves = c.marr.InstallMixed(addr, mixed, victim)
	} else {
		id, moves = c.arr.Install(addr, victim)
	}
	res.Relocations = moves
	res.Slot = id

	p := &c.parts[part]
	im := &c.meta[id]
	im.part = int16(part)
	im.ts = p.currentTS
	if c.cfg.Mode == ModeRRIP {
		im.rrpv = c.insertRRPV(part)
	}
	p.actual++
	p.insertions++
	if c.track {
		c.quant[part].Add(p.currentTS)
	}
	c.tick(p)
	c.duelOnMiss(addr, part)
	return res
}

// scanSetpoint is the demotion scan specialized for ModeSetpoint with no
// priority tracking and no eviction observer — the practical controller of
// §4 as every production configuration runs it. Relative to scanGeneral it
// relies on the candidate-metadata invariant (meta[id].part == -1 exactly
// when the slot is invalid; see lineMeta) to skip the line-store load
// entirely, inlines the demotion bookkeeping, and keeps the unmanaged clock
// in registers. Every arithmetic step and tie-break matches scanGeneral's
// ModeSetpoint path, so the two scans are decision-identical.
func (c *Controller) scanSetpoint() scanOutcome {
	out := scanOutcome{
		freeSlot:    cache.InvalidLine,
		bestUnman:   cache.InvalidLine,
		bestDemoted: cache.InvalidLine,
		fallback:    c.candBuf[0],
	}
	var (
		bestUnmanAge uint8
		bestDemAge   uint8
		fallbackAge  = -1
	)
	meta, parts := c.meta, c.parts
	unmanagedID := c.unmanagedID
	// The unmanaged clock is advanced by every demotion; it runs in locals
	// and is stored back after the scan (nothing else reads it mid-scan:
	// observers are nil on this path).
	uTS, uCtr := c.unmanagedTS, c.unmanagedCtr
	uPeriod := c.unmanagedTarget / 16
	if uPeriod < 1 {
		uPeriod = 1
	}
	demotions := uint64(0)
	// Gather the candidates' metadata words up front: the copies are
	// independent scattered loads the CPU can overlap, where the scan's own
	// loads would serialize behind its branches. Candidates are unique, so a
	// demotion never mutates the metadata of a later candidate and the dense
	// copy stays exact.
	if cap(c.metaBuf) < len(c.candBuf) {
		c.metaBuf = make([]lineMeta, len(c.candBuf))
	}
	mv := c.metaBuf[:len(c.candBuf)]
	for i, id := range c.candBuf {
		mv[i] = meta[id]
	}
	for ci, id := range c.candBuf {
		m := &mv[ci]
		owner := m.part
		if owner < 0 {
			if out.freeSlot == cache.InvalidLine {
				out.freeSlot = id
			}
			continue
		}
		if owner == unmanagedID {
			age := uTS - m.ts
			if !out.sawUnmanaged || age > bestUnmanAge {
				out.bestUnman, bestUnmanAge, out.sawUnmanaged = id, age, true
			}
			continue
		}
		p := &parts[owner]
		p.candsSeen++
		age := p.currentTS - m.ts
		if p.actual > p.target && (p.target == 0 || age > p.currentTS-p.setpointTS) {
			// Demote (inlined from demote(), minus the tracking hooks).
			// Writes go through the backing array, not the gathered copy.
			p.actual--
			p.candsDemoted++
			p.demotedLines++
			demotedTS := uTS
			meta[id] = lineMeta{part: unmanagedID, ts: demotedTS, rrpv: m.rrpv}
			demotions++
			uCtr++
			if uCtr >= uPeriod {
				uCtr = 0
				uTS++
			}
			if dAge := uTS - demotedTS; out.bestDemoted == cache.InvalidLine || dAge > bestDemAge {
				out.bestDemoted, bestDemAge = id, dAge
			}
		} else if int(age) > fallbackAge {
			out.fallback, fallbackAge = id, int(age)
		}
		if p.candsSeen == 0 { // wrapped: 256 candidates seen
			c.unmanagedTS, c.unmanagedCtr = uTS, uCtr
			c.adjustSetpoint(int(owner))
		}
	}
	c.unmanagedTS, c.unmanagedCtr = uTS, uCtr
	c.demotions += demotions
	c.unmanagedSize += int(demotions)
	return out
}

// scanGeneral is the demotion scan for every other configuration: the
// validation modes, tracking-enabled runs, and observers.
func (c *Controller) scanGeneral() scanOutcome {
	out := scanOutcome{
		freeSlot:    cache.InvalidLine,
		bestUnman:   cache.InvalidLine,
		bestDemoted: cache.InvalidLine,
		fallback:    c.candBuf[0],
	}
	var (
		bestUnmanAge uint8
		bestDemAge   uint8
		fallbackAge  = -1
		// ModeOnePerEviction scratch.
		onePerBest cache.LineID = cache.InvalidLine
		onePerAge  int          = -1
		onePerPart int
	)

	// Index the backing line store directly when the array exposes it: the
	// scan reads one line per candidate and an interface call each would
	// dominate it. The per-line metadata, the partition table, and the
	// loop-invariant config are hoisted into locals; demotions mutate
	// elements through the same backing arrays, so the aliases stay exact.
	// c.unmanagedTS is NOT hoisted: each demotion can advance it.
	lines := c.lines
	meta, parts := c.meta, c.parts
	mode, unmanagedID := c.cfg.Mode, c.unmanagedID
	for _, id := range c.candBuf {
		var line *cache.Line
		if lines != nil {
			line = &lines[id]
		} else {
			line = c.arr.Line(id)
		}
		if !line.Valid {
			if out.freeSlot == cache.InvalidLine {
				out.freeSlot = id
			}
			continue
		}
		m := &meta[id]
		owner := m.part
		if owner == unmanagedID {
			age := c.unmanagedTS - m.ts
			if !out.sawUnmanaged || age > bestUnmanAge {
				out.bestUnman, bestUnmanAge, out.sawUnmanaged = id, age, true
			}
			continue
		}
		q := int(owner)
		p := &parts[q]
		p.candsSeen++
		wasDemoted := false
		if mode == ModeOnePerEviction {
			// Ablation (§3.3, Fig 2b): remember the best over-target
			// candidate; exactly one is demoted after the scan.
			if p.actual > p.target || p.target == 0 {
				if age := int(p.currentTS - m.ts); age > onePerAge {
					onePerBest, onePerAge, onePerPart = id, age, q
				}
			}
		} else if c.shouldDemote(q, id) {
			c.demote(q, id)
			wasDemoted = true
			age := c.unmanagedTS - m.ts // 0: just demoted
			if out.bestDemoted == cache.InvalidLine || age > bestDemAge {
				out.bestDemoted, bestDemAge = id, age
			}
		} else if mode == ModeRRIP && p.actual > p.target && m.rrpv < 7 {
			// RRIP aging, restricted to over-target partitions (§6.2).
			m.rrpv++
		}
		if !wasDemoted {
			if age := int(p.currentTS - m.ts); age > fallbackAge {
				out.fallback, fallbackAge = id, int(age)
			}
		}
		if p.candsSeen == 0 { // wrapped: 256 candidates seen
			c.adjustSetpoint(q)
		}
	}
	if mode == ModeOnePerEviction && onePerBest != cache.InvalidLine {
		c.demote(onePerPart, onePerBest)
		out.bestDemoted = onePerBest
	}
	return out
}
