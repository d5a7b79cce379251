package sim

// runReference is the reference-by-reference simulation of the machine Run
// models, kept as the equivalence reference for the segment scheduler: each
// step takes the core with the lowest local clock (lowest index on ties,
// by a plain linear scan), draws one reference from its app, runs it through
// the core's private L1 and, on an L1 miss, through the shared L2. A
// repartition boundary fires at the first step whose core clock is at or
// past it, and OnRepartition sees it as Run's does. Miss is not supported.
func runReference(cfg Config) Result {
	n := len(cfg.Apps)
	rs := newRunState(&cfg, n)
	l1s := make([]*l1Cache, n)
	if cfg.L1Lines > 0 {
		for i := range l1s {
			l1s[i] = newL1Cache(cfg.L1Lines, cfg.L1Ways)
		}
	}
	var res Result
	nextRepart := cfg.RepartitionCycles
	repartEnabled := rs.alloc != nil && cfg.RepartitionCycles > 0
	for rs.remaining > 0 {
		ci := 0
		for i := 1; i < n; i++ {
			if rs.cores[i].cycle < rs.cores[ci].cycle {
				ci = i
			}
		}
		c := &rs.cores[ci]
		if repartEnabled && c.cycle >= nextRepart {
			rs.repartition(&cfg, &res, nextRepart)
			nextRepart += cfg.RepartitionCycles
		}

		gap, addr := cfg.Apps[ci].Next()
		addr = uint64(ci+1)<<40 | addr // disjoint address spaces
		l1Hit := l1s[ci] != nil && l1s[ci].access(addr)
		lat, l2Hit := cfg.Lat.L1Hit, false
		if !l1Hit {
			now := c.cycle + uint64(gap)
			lat, l2Hit = rs.accessL2(addr, ci, 0)
			lat += int(rs.cont.l2Delay(addr, now))
			if !l2Hit {
				lat += int(rs.cont.memDelay(now))
			}
		}
		c.cycle += uint64(gap) + uint64(lat)
		if c.warmLeft == 0 && !c.frozen {
			c.stats.L1Accesses++
			if !l1Hit {
				c.stats.L1Misses++
				c.stats.L2Accesses++
				if !l2Hit {
					c.stats.L2Misses++
				}
			}
		}
		rs.retire(c, uint64(gap)+1)
	}
	return rs.finish(res)
}
