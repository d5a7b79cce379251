// The expiry sweeper: a per-shard background pass, paced by the injected
// clock, that reclaims expired entries before any read observes them. Lazy
// expiry alone would leave a mass-expired working set occupying its
// partition until (or unless) every key is re-read; the sweeper bounds that
// window, and by reporting each reclaimed line to the Vantage controller as
// an expiry demotion it shrinks the partition's measured occupancy at sweep
// speed — so the next UCP repartition allocates against live data, not dead
// entries.
//
// Each TTL'd write pushes an (expiry deadline, address) hint onto its
// shard's min-heap. Hints are not invalidated on overwrite, delete, or
// touch; the entry's own exp field is authoritative and a stale hint is
// discarded when popped. A pass pops at most SweepBatch hints per shard per
// interval (degrade-don't-collapse: a mass expiry lengthens sweep latency
// instead of monopolizing the shard lock), so N expired entries are fully
// reclaimed within ceil(N/SweepBatch) passes plus one pass per stale hint
// batch.
//
// Lazy discarding alone does not bound the heap: stale hints survive until
// their old deadlines pop, so a hot key overwritten (or TOUCHed) with long
// TTLs accumulates one live hint plus arbitrarily many stale ones. pushHint
// therefore compacts the heap whenever it exceeds twice the live records
// (plus slack): compaction keeps exactly one hint per live TTL'd entry —
// the one matching the entry's current deadline — so the heap is always
// O(live entries) and a push is amortized O(log n). The heap size is
// exported as the exp_heap_entries gauge.

package service

import (
	"vantage/internal/cache"
	"vantage/internal/hash"
)

// expHint schedules one expiry check: the line address and the deadline the
// entry carried when the hint was pushed (Unix nanoseconds).
type expHint struct {
	at   int64
	addr uint64
}

// expHeap is a binary min-heap of expiry hints ordered by deadline.
type expHeap []expHint

func (h *expHeap) push(n expHint) {
	*h = append(*h, n)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].at <= q[i].at {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

// init restores the heap invariant over arbitrary contents (Floyd's
// bottom-up heapify, O(n)); used after compaction rewrites the slice.
func (h *expHeap) init() {
	q := *h
	for i := len(q)/2 - 1; i >= 0; i-- {
		siftDown(q, i, len(q))
	}
}

// siftDown restores the heap property at index i over q[:n].
func siftDown(q []expHint, i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q[l].at < q[min].at {
			min = l
		}
		if r < n && q[r].at < q[min].at {
			min = r
		}
		if min == i {
			return
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

func (h *expHeap) pop() expHint {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	siftDown(q, 0, n)
	return top
}

// hinted resolves a hint's address to its slot and record, or nil when no
// live record sits there any more. Caller holds sh.mu.
func (sh *shard) hinted(addr uint64) (cache.LineID, *entry) {
	if id, ok := sh.ctl.LookupMixed(addr, hash.Mix64(addr)); ok && sh.recs[id].live {
		return id, &sh.recs[id]
	}
	return cache.InvalidLine, nil
}

// pushHint records an expiry hint and compacts the heap when stale hints
// dominate. The bound is an invariant, not a heuristic: compaction keeps at
// most one hint per live record, so immediately after it the heap is
// ≤ sh.live, and the trigger therefore fires at most once per ~sh.live
// pushes — amortized O(1) slice work per push on top of the O(log n) sift.
// Caller holds sh.mu.
func (sh *shard) pushHint(n expHint) {
	sh.exph.push(n)
	if len(sh.exph) > 2*sh.live+64 {
		sh.compactHints()
	}
}

// compactHints drops every hint that no longer matches a live entry's
// current deadline, dedupes hints for the same address (a key re-PUT with
// an identical absolute deadline pushes identical hints), and re-heapifies.
// Correctness rests on the push-site invariant that every assignment of a
// non-zero entry.exp pushed a hint with at == exp: the surviving hint for a
// live entry is exactly the one the sweeper needs. Duplicates are told by
// stamping the record with the pass number, so the pass allocates nothing
// while it holds the lock. Caller holds sh.mu.
func (sh *shard) compactHints() {
	sh.compactions++
	if sh.compactions == 0 { // wrapped: no stale stamp may equal a new pass
		for i := range sh.recs {
			sh.recs[i].stamp = 0
		}
		sh.compactions = 1
	}
	kept := sh.exph[:0]
	for _, n := range sh.exph {
		_, e := sh.hinted(n.addr)
		if e == nil || e.exp != n.at || e.stamp == sh.compactions {
			continue // stale (deleted, overwritten, touched elsewhere) or a duplicate
		}
		e.stamp = sh.compactions
		kept = append(kept, n)
	}
	sh.exph = kept
	sh.exph.init()
}

// sweepShard runs one bounded sweep pass on sh, returning the number of
// expired entries reclaimed. Each reclaimed line has its value dropped and
// is demoted in the controller as an expiry demotion.
func (s *Service) sweepShard(sh *shard) int {
	now := s.clk.Now().UnixNano()
	batch := s.cfg.SweepBatch
	reclaimed := 0
	sh.mu.Lock()
	for pops := 0; pops < batch && len(sh.exph) > 0 && sh.exph[0].at <= now; pops++ {
		id, e := sh.hinted(sh.exph.pop().addr)
		if e == nil || e.exp == 0 || e.exp > now {
			continue // stale hint: entry deleted, overwritten, or touched later
		}
		sh.expire(id, e)
		reclaimed++
	}
	sh.sweepLines += uint64(reclaimed)
	sh.sweepPasses++
	sh.mu.Unlock()
	return reclaimed
}

// SweepOnce runs one bounded sweep pass on every shard and returns the total
// number of expired entries reclaimed. Exposed so tests (and deployments
// with SweepInterval 0) can drive sweeping explicitly; safe to call
// concurrently with requests and with the background sweeper.
func (s *Service) SweepOnce() int {
	total := 0
	for _, sh := range s.shards {
		total += s.sweepShard(sh)
	}
	return total
}

// sweepLoop is one shard's background sweeper, paced by the injected clock.
func (s *Service) sweepLoop(sh *shard) {
	defer s.wg.Done()
	tick := s.clk.NewTicker(s.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C():
			s.sweepShard(sh)
		}
	}
}
