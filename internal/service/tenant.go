package service

import (
	"fmt"
	"sync/atomic"
)

// Tenant is one principal of the cache: a name bound to a partition slot.
// Its request counters are not here: each shard counts its partition slots
// under the shard lock the request already holds (see shard.cnt).
type Tenant struct {
	name string
	part int

	// inflight is the number of protocol data ops currently executing for
	// this tenant; shed counts ops refused because inflight was at the
	// per-tenant limit. Both belong to the serving layer (see request.go)
	// but live here so the limit is enforced across every connection.
	inflight atomic.Int64
	shed     atomic.Uint64

	// announced, when non-nil, is closed once the origin add's cluster
	// broadcast has reached every peer. An idempotent re-add waits on it
	// before returning OK, so no caller can observe a registered tenant
	// that its peers do not know about yet (two clients racing TENANT ADD
	// through a proxy would otherwise let the loser's next request reach a
	// peer ahead of the winner's broadcast). nil means nothing to wait for:
	// solo mode, or a replica-path add.
	announced chan struct{}
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Partition returns the Vantage partition slot the tenant maps to.
func (t *Tenant) Partition() int { return t.part }

// validTenantName reports whether name is usable in the text protocol and
// in Prometheus label values: printable ASCII, no spaces, quotes, or
// backslashes.
func validTenantName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// cloneRegistry returns a mutable deep copy of reg's containers (the
// *Tenant values are shared; they are never mutated, only replaced).
func cloneRegistry(reg *registry) *registry {
	next := &registry{
		tenants: make(map[string]*Tenant, len(reg.tenants)+1),
		byPart:  make([]*Tenant, len(reg.byPart)),
	}
	for name, t := range reg.tenants {
		next.tenants[name] = t
	}
	copy(next.byPart, reg.byPart)
	return next
}

// AddTenant registers name, assigning it a free partition slot in every
// shard, and triggers a repartitioning so the new tenant gets capacity
// before its first UCP interval. Adding an existing tenant is idempotent
// and returns its current slot. Slots belonging to tenants whose removal
// is still purging are not eligible (see RemoveTenant).
//
// AddTenant is an origin operation: when a cluster handler is installed,
// a non-idempotent add bumps the registry version and is announced to
// every peer before returning, so a follow-up request routed to any node
// finds the tenant registered.
func (s *Service) AddTenant(name string) (int, error) {
	return s.addTenantInner(name, true)
}

// addTenantInner is AddTenant minus the cluster announcement when origin
// is false — the replica path for ops received from peers, which must not
// re-broadcast.
func (s *Service) addTenantInner(name string, origin bool) (int, error) {
	if !validTenantName(name) {
		return 0, fmt.Errorf("service: invalid tenant name %q", name)
	}
	s.regMu.Lock()
	reg := s.reg.Load()
	if t, ok := reg.tenants[name]; ok {
		s.regMu.Unlock()
		if t.announced != nil {
			// Another caller is still broadcasting this add to the peers;
			// don't return OK until every node knows the tenant.
			<-t.announced
		}
		return t.part, nil
	}
	part := -1
	for p, t := range reg.byPart {
		if t == nil {
			part = p
			break
		}
	}
	if part < 0 {
		s.regMu.Unlock()
		return 0, fmt.Errorf("service: tenant limit %d reached", s.cfg.MaxTenants)
	}
	// The slot starts its counters at zero, before any request can resolve
	// the new tenant. A request that resolved the slot's previous occupant
	// and runs after this is counted to the new one, which is also where its
	// data lands.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.cnt[part] = partCounters{}
		sh.mu.Unlock()
	}
	t := &Tenant{name: name, part: part}
	h := s.clusterHandler()
	if origin && h != nil {
		t.announced = make(chan struct{})
	}
	next := cloneRegistry(reg)
	next.tenants[name] = t
	next.byPart[part] = t
	s.reg.Store(next)
	s.regMu.Unlock()
	s.Repartition()
	if t.announced != nil {
		h.AnnounceAdd(s.clusterVersion.Add(1), name)
		close(t.announced)
	}
	return part, nil
}

// RemoveTenant deletes name: its partition target drops to zero in every
// shard (the §3.4 deletion idiom — the partition's lines drain into the
// unmanaged region and age out), its stored values are purged, and its
// UMON slots are reset for the next occupant.
//
// The partition slot stays reserved (byPart non-nil) until the purge and
// monitor reset complete; only then is it released for reuse. A concurrent
// AddTenant therefore can never claim a slot whose previous occupant's
// values are still being purged — the purge would silently delete the new
// tenant's fresh data and wipe its monitor.
//
// Like AddTenant, RemoveTenant is an origin operation: with a cluster
// handler installed, a successful removal bumps the registry version and
// is announced to every peer.
func (s *Service) RemoveTenant(name string) error {
	return s.removeTenantInner(name, true)
}

// removeTenantInner is RemoveTenant minus the cluster announcement when
// origin is false (the replica path).
func (s *Service) removeTenantInner(name string, origin bool) error {
	s.regMu.Lock()
	reg := s.reg.Load()
	t, ok := reg.tenants[name]
	if !ok {
		s.regMu.Unlock()
		return errUnknownTenant(name)
	}
	// Phase 1: unregister the name so new requests fail, but keep the slot
	// reserved while cleanup runs.
	next := cloneRegistry(reg)
	delete(next.tenants, name)
	s.reg.Store(next)
	s.regMu.Unlock()

	if h := s.removePurgeHook; h != nil {
		h()
	}

	space := uint64(t.part+1) << 40
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.alloc.Monitor(t.part).Reset()
		for id := range sh.recs {
			if e := &sh.recs[id]; e.live && sh.lines[id].Addr&^(1<<40-1) == space {
				sh.drop(e)
			}
		}
		sh.mu.Unlock()
	}

	// Phase 2: cleanup done — release the slot for reuse.
	s.regMu.Lock()
	next = cloneRegistry(s.reg.Load())
	next.byPart[t.part] = nil
	s.reg.Store(next)
	s.regMu.Unlock()
	s.Repartition()
	if origin {
		if h := s.clusterHandler(); h != nil {
			h.AnnounceRemove(s.clusterVersion.Add(1), name)
		}
	}
	return nil
}

// TenantNames returns the registered tenant names (unordered).
func (s *Service) TenantNames() []string {
	reg := s.reg.Load()
	names := make([]string, 0, len(reg.tenants))
	for name := range reg.tenants {
		names = append(names, name)
	}
	return names
}

// tenant resolves a name to its Tenant.
func (s *Service) tenant(name string) (*Tenant, error) {
	if t := s.reg.Load().tenants[name]; t != nil {
		return t, nil
	}
	return nil, errUnknownTenant(name)
}
