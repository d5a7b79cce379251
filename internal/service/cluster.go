package service

import "time"

// This file is the Service's cluster-facing surface: the versioned tenant
// registry replication hooks and the key-export used for re-homing. The
// cluster package drives these; the surface lives here so the binary
// protocol can apply registry frames (and be fuzzed) with no cluster
// handler installed at all.
//
// The model is the paper's §5 banked-cache scaling transposed to processes:
// every node holds a full copy of the tenant registry (the "per-partition
// target registers" replicated across banks) while the keys themselves are
// spread across nodes by the cluster ring, so each node enforces Vantage
// partitioning locally on the keys it owns with no cross-node coordination
// on the data path.

// ClusterHandler is the cluster package's hook into registry mutations.
// AnnounceAdd/AnnounceRemove are called by origin-side AddTenant and
// RemoveTenant — after the local mutation committed and with no service
// locks held — to replicate the op to every peer. The remaining methods
// surface cluster topology for STATS/metrics and the CLUSTER verb.
type ClusterHandler interface {
	AnnounceAdd(version uint64, name string)
	AnnounceRemove(version uint64, name string)
	Peers() int
	Self() string
	Members() []string
	// SetMembers installs a new member set, re-homing any keys this node no
	// longer owns. It returns the number of keys drained to peers.
	SetMembers(members []string) (uint64, error)
}

// clusterHolder wraps the interface for atomic.Pointer (interfaces cannot
// be stored in atomic.Pointer directly).
type clusterHolder struct{ h ClusterHandler }

// SetClusterHandler installs (or, with nil, removes) the cluster handler.
func (s *Service) SetClusterHandler(h ClusterHandler) {
	if h == nil {
		s.cluster.Store(nil)
		return
	}
	s.cluster.Store(&clusterHolder{h: h})
}

func (s *Service) clusterHandler() ClusterHandler {
	if c := s.cluster.Load(); c != nil {
		return c.h
	}
	return nil
}

// ClusterVersion returns the registry version: 0 until the first clustered
// registry mutation, then monotonically increasing and convergent across
// peers (origin ops increment, replicas max-merge).
func (s *Service) ClusterVersion() uint64 { return s.clusterVersion.Load() }

// mergeClusterVersion raises the local version to at least v.
func (s *Service) mergeClusterVersion(v uint64) uint64 {
	for {
		cur := s.clusterVersion.Load()
		if v <= cur {
			return cur
		}
		if s.clusterVersion.CompareAndSwap(cur, v) {
			return v
		}
	}
}

// ApplyRegistryOp applies one replicated registry mutation received from a
// peer: add or remove tenant name, stamped with the origin's registry
// version. Removal of an unknown tenant is a no-op, not an error — the
// remove may race a concurrent origin-side remove, and convergence is the
// point. Returns the local registry version after the merge.
func (s *Service) ApplyRegistryOp(version uint64, add bool, name string) (uint64, error) {
	var err error
	if add {
		_, err = s.addTenantInner(name, false)
	} else if rerr := s.removeTenantInner(name, false); rerr != nil {
		if _, known := s.reg.Load().tenants[name]; known {
			err = rerr
		}
	}
	if err != nil {
		return s.clusterVersion.Load(), err
	}
	return s.mergeClusterVersion(version), nil
}

// RegistrySnapshot returns the registry version and the tenant names it
// covers, for bootstrap pulls by (re)joining peers. The version is read
// before the name list, so a concurrent mutation can only make the
// snapshot under-versioned — the puller will max-merge a later version
// from the next replicated op.
func (s *Service) RegistrySnapshot() (uint64, []string) {
	v := s.clusterVersion.Load()
	return v, s.TenantNames()
}

// SyncRegistry adopts a peer's registry snapshot: every listed tenant is
// registered locally (idempotently) and the version is max-merged. Local
// tenants absent from the snapshot are kept — a snapshot is a floor, not
// the full truth, and removal only travels as explicit ops.
func (s *Service) SyncRegistry(version uint64, names []string) error {
	for _, name := range names {
		if _, err := s.addTenantInner(name, false); err != nil {
			return err
		}
	}
	s.mergeClusterVersion(version)
	return nil
}

// AddRehomedOut credits n keys drained to peers on a membership change.
func (s *Service) AddRehomedOut(n uint64) { s.rehomedOut.Add(n) }

// RehomedCounts returns the lifetime (drained-out, received-in) re-homing
// counters.
func (s *Service) RehomedCounts() (out, in uint64) {
	return s.rehomedOut.Load(), s.rehomedIn.Load()
}

// exportRec is one live entry snapshotted by Export.
type exportRec struct {
	tenant string
	key    string
	val    []byte
	ttlMS  int64
}

// Export visits every live entry in the store as (tenant, key, value,
// remaining TTL in ms; -1 when the entry never expires). Entries whose
// tenant is being purged and entries already past their deadline are
// skipped. Shards are walked one at a time: records are collected under
// the shard lock, then visited with no locks held, so visit may call back
// into the Service (Delete, Put) freely. The value slices alias the store —
// safe because stored values are immutable snapshots (every PUT installs a
// fresh copy). Returning false from visit stops the walk.
//
// Export is the re-homing producer: on membership change the cluster layer
// exports, routes each record through the new ring, and streams records
// that moved to their new owner with TTLs preserved.
func (s *Service) Export(visit func(tenant, key string, val []byte, ttlMS int64) bool) {
	reg := s.reg.Load()
	now := s.clk.Now().UnixNano()
	var recs []exportRec
	for _, sh := range s.shards {
		recs = recs[:0]
		sh.mu.Lock()
		for id := range sh.recs {
			e := &sh.recs[id]
			if !e.live {
				continue
			}
			part := int(sh.lines[id].Addr>>40) - 1
			if part < 0 || part >= len(reg.byPart) {
				continue
			}
			t := reg.byPart[part]
			if t == nil || reg.tenants[t.name] != t {
				continue // slot purging or stale
			}
			ttlMS := int64(-1)
			if e.exp != 0 {
				rem := e.exp - now
				if rem <= 0 {
					continue // already dead; let expiry reclaim it
				}
				ttlMS = rem / int64(time.Millisecond)
				if ttlMS < 1 {
					ttlMS = 1
				}
			}
			// The key is copied: its buffer is reused once the lock drops.
			recs = append(recs, exportRec{tenant: t.name, key: string(e.key), val: e.val, ttlMS: ttlMS})
		}
		sh.mu.Unlock()
		for _, r := range recs {
			if !visit(r.tenant, r.key, r.val, r.ttlMS) {
				return
			}
		}
	}
}
