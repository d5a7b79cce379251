// Package service turns the Vantage library into a servable system: a
// thread-safe, sharded, multi-tenant in-memory key-value cache whose
// capacity management is a live Vantage controller per shard.
//
// Keys are hashed to 64-bit line addresses in a per-tenant namespace, and
// addresses are interleaved across shards by an H3 hash, exactly the way
// internal/ctrl's Banked organization distributes a physical cache across
// banks (Table 2). Each shard pairs a Vantage controller over a zcache tag
// array with a value store; the tag array decides placement, demotion, and
// eviction, and the store holds the bytes for the lines the array retains.
// Tenants map 1:1 to Vantage partitions, so every tenant gets Vantage's
// isolation guarantees — fine-grain capacity targets, demotions confined by
// aperture, a shared unmanaged region absorbing churn — on real traffic.
//
// Capacity targets are set online by utility-based cache partitioning: each
// shard owns a ucp.Policy whose UMON-DSS monitors are fed the shard's live
// GET stream (the read stream defines utility; PUTs are the fill path), and
// a background goroutine reruns Lookahead every RepartitionInterval.
//
// Concurrency model: each shard has two locks. sh.mu serializes the shard's
// controller and value store — these stay coupled under one lock because
// the install/evict path must atomically pair a tag change with the store
// mutation. sh.umu guards the UCP monitors and a fixed-size ring of sampled
// GET addresses: the request path only appends to the ring (a few stores),
// and the expensive UMON auxiliary-tag walks happen when the ring drains —
// in the repartition loop, or inline when the ring fills. The tenant
// registry is a copy-on-write snapshot behind an atomic pointer, so the
// request path resolves tenants without any lock; registry mutations
// serialize on a writers-only mutex. Per-tenant request counters are
// atomics. The repartition loop takes shard locks one at a time, so
// reconfiguration never stops the world.
//
// The request path is allocation-free in steady state: GET returns the
// stored slice without copying (callers must treat it as immutable — every
// PUT installs a freshly copied value, so returned slices are stable
// snapshots), the address computation mixes the key once and shares the
// mixed hash between shard routing and the UMON, and the byte-slice
// variants (GetB/PutB/DeleteB) let protocol handlers avoid key/tenant
// string conversions entirely.
package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/cache"
	"vantage/internal/clock"
	"vantage/internal/core"
	"vantage/internal/ctrl"
	"vantage/internal/hash"
	"vantage/internal/latency"
	"vantage/internal/ucp"
)

// Config configures a Service.
type Config struct {
	// Shards is the number of independent cache shards (power of two).
	// Default 4.
	Shards int
	// LinesPerShard is each shard's capacity in cache lines (= stored
	// entries). Default 8192.
	LinesPerShard int
	// Ways and Candidates set the zcache geometry (default 4/52, the
	// paper's Z4/52).
	Ways, Candidates int
	// MaxTenants is the number of partition slots per shard controller
	// (paper: Vantage scales to tens of partitions per bank; the scale suite
	// registers hundreds per node). Default 16, max 1024.
	MaxTenants int
	// UnmanagedFrac, AMax and Slack are the Vantage knobs (§4.3); defaults
	// 0.05, 0.5, 0.1 — the paper's evaluation settings.
	UnmanagedFrac, AMax, Slack float64
	// MonitorWays is the UMON associativity (default 16).
	MonitorWays int
	// RepartitionInterval is the period of the online UCP loop; 0 disables
	// the background goroutine (call Repartition manually, e.g. in tests).
	RepartitionInterval time.Duration
	// Seed perturbs every hash in the service: shard routing, zcache H3
	// functions, UMON sampling. Equal seeds give identical placement.
	Seed uint64
	// Clock is the time source for TTLs, sweeping, protocol deadlines, and
	// the repartition loop. nil means the system clock; tests inject a
	// clock.Fake to drive all temporal behavior deterministically.
	Clock clock.Clock
	// DefaultTTL is applied to PUTs that carry no explicit EXPIRE clause.
	// 0 means entries without a TTL never expire.
	DefaultTTL time.Duration
	// SweepInterval is the period of the per-shard background sweeper that
	// reclaims expired entries; 0 disables it (expiry is then lazy-only, or
	// driven manually via SweepOnce).
	SweepInterval time.Duration
	// SweepBatch bounds the expiry-hint pops per sweep pass per shard, so a
	// mass expiry degrades sweep latency instead of stalling the shard lock
	// (the same degrade-don't-collapse discipline as the overload limits).
	// Default 128.
	SweepBatch int
	// TrackLatency enables the per-request latency histogram exported
	// through Stats and /metrics (vantaged_request_latency_seconds). Off by
	// default: recording is two atomic adds per request, cheap but not free.
	TrackLatency bool
}

func (c *Config) applyDefaults() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.LinesPerShard == 0 {
		c.LinesPerShard = 8192
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.Candidates == 0 {
		c.Candidates = 52
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = 16
	}
	if c.UnmanagedFrac == 0 {
		c.UnmanagedFrac = 0.05
	}
	if c.AMax == 0 {
		c.AMax = 0.5
	}
	if c.Slack == 0 {
		c.Slack = 0.1
	}
	if c.MonitorWays == 0 {
		c.MonitorWays = 16
	}
	if c.Clock == nil {
		c.Clock = clock.System()
	}
	if c.SweepBatch == 0 {
		c.SweepBatch = 128
	}
}

// entry is one stored value. The full key is kept to reject the (rare)
// collisions of two keys on one 40-bit line address. exp is the expiry
// deadline in Unix nanoseconds, 0 when the entry never expires; an entry at
// or past its deadline is dead — reads treat it as a miss (counted as an
// expired miss, not a cold one) and reclaim it on the spot.
type entry struct {
	key string
	val []byte
	exp int64
}

// umonSample is one deferred UMON access: the line address plus its Mix64,
// computed once on the request path and reused at drain time.
type umonSample struct {
	addr  uint64
	mixed uint64
	part  int32
}

// umonRingSize is the per-shard capacity of the deferred-UMON ring. When
// the ring fills between repartitions, the producer drains it inline, so no
// sample is ever dropped and per-partition feed order is preserved — the
// monitor state at allocation time is identical to feeding synchronously.
const umonRingSize = 4096

// shard is one bank of the service: a Vantage controller over a zcache tag
// array plus the value store (both guarded by mu), and the UCP monitors
// plus their deferred-access ring (guarded by umu).
type shard struct {
	mu      sync.Mutex
	ctl     *core.Controller
	store   map[uint64]entry
	managed int // partitionable lines (capacity minus unmanaged target)
	snap    []ctrl.PartitionSnapshot

	// Expiry state (under mu): a min-heap of (deadline, addr) hints pushed
	// by TTL'd writes, and the sweeper's lifetime counters. Hints are not
	// authoritative — the entry's exp field is — so a hint whose entry was
	// deleted, overwritten, or touched to a later deadline is simply
	// discarded when popped.
	exph        expHeap
	sweepLines  uint64 // expired entries reclaimed by the sweeper
	sweepPasses uint64 // sweep passes executed

	umu    sync.Mutex
	alloc  *ucp.Policy
	ring   []umonSample
	ringN  int
	drains uint64
}

// observe queues one GET address for the shard's UMONs. Appending is a few
// stores under umu; the auxiliary-tag walk happens at drain time, off the
// tag/store critical path.
func (sh *shard) observe(part int, addr, mixed uint64) {
	sh.umu.Lock()
	if sh.ringN == len(sh.ring) {
		sh.drainLocked()
	}
	sh.ring[sh.ringN] = umonSample{addr: addr, mixed: mixed, part: int32(part)}
	sh.ringN++
	sh.umu.Unlock()
}

// drainLocked feeds every queued sample into the UMONs. Caller holds umu.
func (sh *shard) drainLocked() {
	for i := 0; i < sh.ringN; i++ {
		s := &sh.ring[i]
		sh.alloc.AccessMixed(int(s.part), s.addr, s.mixed)
	}
	if sh.ringN > 0 {
		sh.drains++
	}
	sh.ringN = 0
}

// registry is an immutable snapshot of the tenant population. The request
// path reads it through an atomic pointer; mutations build a fresh copy
// under Service.regMu. byPart entries may outlive their tenants map entry:
// RemoveTenant keeps the slot reserved until the purge completes, so a
// concurrent AddTenant can never claim a slot whose cleanup is in flight.
type registry struct {
	tenants map[string]*Tenant
	byPart  []*Tenant
}

// Service is a sharded multi-tenant key-value cache driven by Vantage
// controllers. All methods are safe for concurrent use.
type Service struct {
	cfg    Config
	shards []*shard
	route  *hash.H3
	mask   uint64

	reg   atomic.Pointer[registry]
	regMu sync.Mutex // serializes registry writers

	ops          atomic.Uint64
	mgets        atomic.Uint64
	repartitions atomic.Uint64
	expired      atomic.Uint64 // reads that found an expired entry

	// Overload counters, incremented by the protocol server(s) attached to
	// this service (several Servers may share one Service; these aggregate).
	connsRejected  atomic.Uint64 // connections fast-rejected with BUSY
	requestsShed   atomic.Uint64 // data ops refused by in-flight limits
	deadlineCloses atomic.Uint64 // connections reaped by read/write deadlines

	// Binary-protocol counters (see binproto.go).
	binConnsTotal atomic.Uint64 // connections that negotiated binary framing
	binConns      atomic.Int64  // currently open binary connections
	binFrames     atomic.Uint64 // binary request frames dispatched
	bmgetKeys     atomic.Uint64 // keys carried by BMGET multi-key frames

	// fault, when non-nil, injects delays/errors into the shard path and
	// connection drops into the dispatcher (see fault.go).
	fault atomic.Pointer[faultHolder]

	// Cluster state (see cluster.go). clusterVersion is a Lamport-style
	// counter over registry mutations: origin operations increment it,
	// replicated operations max-merge the sender's value, so all peers
	// converge to equal versions at quiescence. rehomedOut/rehomedIn count
	// keys drained to / received from peers on membership changes. The
	// handler, when set, broadcasts origin registry mutations to peers.
	clusterVersion atomic.Uint64
	rehomedOut     atomic.Uint64
	rehomedIn      atomic.Uint64
	cluster        atomic.Pointer[clusterHolder]

	// latency, when non-nil, is the request-latency histogram enabled by
	// Config.TrackLatency.
	latency *latency.Hist

	clk    clock.Clock
	done   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	start  time.Time

	// removePurgeHook, when non-nil, runs between RemoveTenant's
	// unregistration and its purge — a test seam for the slot-reservation
	// ordering. Always nil in production.
	removePurgeHook func()
}

// New returns a running Service. If cfg.RepartitionInterval > 0 a background
// goroutine repartitions every interval until Close.
func New(cfg Config) (*Service, error) {
	cfg.applyDefaults()
	if cfg.Shards&(cfg.Shards-1) != 0 || cfg.Shards <= 0 {
		return nil, fmt.Errorf("service: shard count %d must be a power of two", cfg.Shards)
	}
	if cfg.MaxTenants < 1 || cfg.MaxTenants > 1024 {
		return nil, fmt.Errorf("service: MaxTenants %d out of range [1,1024]", cfg.MaxTenants)
	}
	if cfg.LinesPerShard < cfg.MaxTenants*4 {
		return nil, fmt.Errorf("service: %d lines per shard too small for %d tenants", cfg.LinesPerShard, cfg.MaxTenants)
	}
	s := &Service{
		cfg:   cfg,
		route: hash.NewH3(16, hash.Mix64(cfg.Seed^0xbabe)),
		mask:  uint64(cfg.Shards - 1),
		clk:   cfg.Clock,
		done:  make(chan struct{}),
		start: cfg.Clock.Now(),
	}
	if cfg.TrackLatency {
		s.latency = &latency.Hist{}
	}
	s.reg.Store(&registry{
		tenants: make(map[string]*Tenant),
		byPart:  make([]*Tenant, cfg.MaxTenants),
	})
	for i := 0; i < cfg.Shards; i++ {
		seed := hash.Mix64(cfg.Seed ^ uint64(i)*0x9e3779b97f4a7c15)
		arr := cache.NewZCache(cfg.LinesPerShard, cfg.Ways, cfg.Candidates, seed)
		ctl := core.New(arr, core.Config{
			Partitions:    cfg.MaxTenants,
			UnmanagedFrac: cfg.UnmanagedFrac,
			AMax:          cfg.AMax,
			Slack:         cfg.Slack,
			Seed:          seed,
		})
		unmanaged := int(cfg.UnmanagedFrac * float64(cfg.LinesPerShard))
		if unmanaged < 1 {
			unmanaged = 1
		}
		s.shards = append(s.shards, &shard{
			ctl:     ctl,
			alloc:   ucp.NewPolicy(cfg.MaxTenants, cfg.MonitorWays, cfg.LinesPerShard, ucp.GranLines, seed^0xa110c),
			store:   make(map[uint64]entry, cfg.LinesPerShard),
			managed: cfg.LinesPerShard - unmanaged,
			ring:    make([]umonSample, umonRingSize),
		})
	}
	// No tenants yet: park every partition at target 0 until traffic arrives.
	zero := make([]int, cfg.MaxTenants)
	for _, sh := range s.shards {
		sh.ctl.SetTargets(zero)
	}
	if cfg.RepartitionInterval > 0 {
		s.wg.Add(1)
		go s.repartitionLoop()
	}
	if cfg.SweepInterval > 0 {
		for _, sh := range s.shards {
			s.wg.Add(1)
			go s.sweepLoop(sh)
		}
	}
	return s, nil
}

// Close stops the repartition loop. The service remains usable for reads and
// writes afterwards (shutdown ordering: stop the protocol server first).
func (s *Service) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.done)
	}
	s.wg.Wait()
	return nil
}

// Config returns the effective configuration (defaults applied).
func (s *Service) Config() Config { return s.cfg }

// TotalLines returns the service's total capacity in lines.
func (s *Service) TotalLines() int { return s.cfg.Shards * s.cfg.LinesPerShard }

// fnv1a is FNV-1a over the key bytes; addrOf/addrOfB finish it with the
// SplitMix64 finalizer because H3 routing downstream needs well-mixed input
// bits.
func fnv1a(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func fnv1aB(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// addrOf maps a tenant partition and key to a line address: the tenant
// selects a disjoint 40-bit address space (the idiom internal/sim uses for
// per-core spaces), the key hash the line within it.
func addrOf(part int, key string) uint64 {
	return uint64(part+1)<<40 | hash.Mix64(fnv1a(key))&(1<<40-1)
}

// addrOfB is addrOf for byte-slice keys.
func addrOfB(part int, key []byte) uint64 {
	return uint64(part+1)<<40 | hash.Mix64(fnv1aB(key))&(1<<40-1)
}

// shardOf routes an address to its shard (ctrl.Banked's bankOf).
func (s *Service) shardOf(addr uint64) *shard {
	return s.shards[s.route.Hash(hash.Mix64(addr))&s.mask]
}

// Get looks key up in tenant's partition. It returns the stored value and
// whether it hit; a miss does not install anything (the caller is expected
// to fetch from its origin and Put, the cache-aside pattern).
//
// An entry at or past its expiry deadline is a miss: it is reclaimed on the
// spot (store delete + expiry demotion) and counted as an expired miss, not
// a cold one. Expired reads deliberately bypass the UMON — an expired miss
// is compulsory, no capacity allocation could have served it, so feeding it
// to the utility monitors would credit the tenant for demand that capacity
// cannot convert into hits.
//
// The returned slice aliases the store and must not be modified. It is a
// stable snapshot: overwrites install fresh copies, so a slice returned
// here is never mutated afterwards.
func (s *Service) Get(tenant, key string) ([]byte, bool, error) {
	if err := s.injectFault(OpGet, tenant); err != nil {
		return nil, false, err
	}
	t := s.reg.Load().tenants[tenant]
	if t == nil {
		return nil, false, fmt.Errorf("service: unknown tenant %q", tenant)
	}
	addr := addrOf(t.part, key)
	mixed := hash.Mix64(addr)
	sh := s.shards[s.route.Hash(mixed)&s.mask]
	var val []byte
	hit, expired := false, false
	sh.mu.Lock()
	if e, ok := sh.store[addr]; ok && e.key == key {
		if e.exp != 0 && s.clk.Now().UnixNano() >= e.exp {
			delete(sh.store, addr)
			sh.ctl.DemoteExpired(addr)
			expired = true
		} else {
			// Tag presence is implied: a stored entry's tag can only leave
			// the array via eviction, which purges the entry. Refresh recency
			// for real hits only — a dead tag (deleted key, or a 40-bit
			// collision with a different key) must age out like any cold
			// line, so it is deliberately not promoted here.
			sh.ctl.Access(addr, t.part)
			val, hit = e.val, true
		}
	}
	sh.mu.Unlock()
	if !expired {
		sh.observe(t.part, addr, mixed) // UMON-DSS sees the live read stream
	}
	s.ops.Add(1)
	t.gets.Add(1)
	switch {
	case hit:
		t.hits.Add(1)
	case expired:
		t.expired.Add(1)
		s.expired.Add(1)
	default:
		t.misses.Add(1)
	}
	return val, hit, nil
}

// GetB is Get with byte-slice tenant and key, for protocol handlers that
// parse requests into shared buffers; it performs no allocation on any
// path but the unknown-tenant error.
func (s *Service) GetB(tenant, key []byte) ([]byte, bool, error) {
	if s.fault.Load() != nil {
		if err := s.injectFault(OpGet, string(tenant)); err != nil {
			return nil, false, err
		}
	}
	t := s.reg.Load().tenants[string(tenant)]
	if t == nil {
		return nil, false, fmt.Errorf("service: unknown tenant %q", tenant)
	}
	addr := addrOfB(t.part, key)
	val, hit := s.getAt(t, addr, hash.Mix64(addr), key)
	return val, hit, nil
}

// getAt is the resolved GET path shared by GetB and the binary shard
// workers: the caller already resolved the tenant and computed the line
// address and its Mix64 (binary dispatch resolves once at decode time and
// routes on the mix, so the worker never rehashes).
func (s *Service) getAt(t *Tenant, addr, mixed uint64, key []byte) ([]byte, bool) {
	sh := s.shards[s.route.Hash(mixed)&s.mask]
	var val []byte
	hit, expired := false, false
	sh.mu.Lock()
	if e, ok := sh.store[addr]; ok && e.key == string(key) {
		if e.exp != 0 && s.clk.Now().UnixNano() >= e.exp {
			delete(sh.store, addr)
			sh.ctl.DemoteExpired(addr)
			expired = true
		} else {
			sh.ctl.Access(addr, t.part)
			val, hit = e.val, true
		}
	}
	sh.mu.Unlock()
	if !expired {
		sh.observe(t.part, addr, mixed)
	}
	s.ops.Add(1)
	t.gets.Add(1)
	switch {
	case hit:
		t.hits.Add(1)
	case expired:
		t.expired.Add(1)
		s.expired.Add(1)
	default:
		t.misses.Add(1)
	}
	return val, hit
}

// Put stores val under key in tenant's partition with the service's default
// TTL, evicting whatever line the Vantage replacement process selects if the
// shard is full. The value is copied; the caller may reuse val.
func (s *Service) Put(tenant, key string, val []byte) error {
	return s.PutTTL(tenant, key, val, s.cfg.DefaultTTL)
}

// PutTTL is Put with an explicit TTL: the entry expires ttl from now. ttl 0
// stores a non-expiring entry, overriding any configured default.
func (s *Service) PutTTL(tenant, key string, val []byte, ttl time.Duration) error {
	if err := s.injectFault(OpPut, tenant); err != nil {
		return err
	}
	t := s.reg.Load().tenants[tenant]
	if t == nil {
		return fmt.Errorf("service: unknown tenant %q", tenant)
	}
	addr := addrOf(t.part, key)
	sh := s.shardOf(addr)
	v := append([]byte(nil), val...)
	var exp int64
	if ttl > 0 {
		exp = s.clk.Now().Add(ttl).UnixNano()
	}
	sh.mu.Lock()
	res := sh.ctl.Access(addr, t.part) // hit refreshes; miss installs
	if res.EvictedValid {
		delete(sh.store, res.Evicted)
	}
	sh.store[addr] = entry{key: key, val: v, exp: exp}
	if exp != 0 {
		sh.pushHint(expHint{at: exp, addr: addr})
	}
	sh.mu.Unlock()
	s.ops.Add(1)
	t.puts.Add(1)
	if res.ForcedManagedEviction {
		t.forced.Add(1)
	}
	return nil
}

// PutB is Put with byte-slice tenant, key, and value. Key and value are
// copied as needed; on an overwrite of the same key the stored key string
// is reused, so steady-state overwrites allocate only the value copy.
func (s *Service) PutB(tenant, key, val []byte) error {
	return s.PutBTTL(tenant, key, val, s.cfg.DefaultTTL)
}

// PutBTTL is PutTTL with byte-slice tenant, key, and value.
func (s *Service) PutBTTL(tenant, key, val []byte, ttl time.Duration) error {
	if s.fault.Load() != nil {
		if err := s.injectFault(OpPut, string(tenant)); err != nil {
			return err
		}
	}
	t := s.reg.Load().tenants[string(tenant)]
	if t == nil {
		return fmt.Errorf("service: unknown tenant %q", tenant)
	}
	s.putAt(t, addrOfB(t.part, key), key, val, ttl)
	return nil
}

// putAt is the resolved PUT path shared by PutBTTL and the binary shard
// workers. The value is copied; on an overwrite of the same key the stored
// key string is reused.
func (s *Service) putAt(t *Tenant, addr uint64, key, val []byte, ttl time.Duration) {
	sh := s.shardOf(addr)
	v := append([]byte(nil), val...)
	var exp int64
	if ttl > 0 {
		exp = s.clk.Now().Add(ttl).UnixNano()
	}
	sh.mu.Lock()
	res := sh.ctl.Access(addr, t.part)
	if res.EvictedValid {
		delete(sh.store, res.Evicted)
	}
	if e, ok := sh.store[addr]; ok && e.key == string(key) {
		sh.store[addr] = entry{key: e.key, val: v, exp: exp}
	} else {
		sh.store[addr] = entry{key: string(key), val: v, exp: exp}
	}
	if exp != 0 {
		sh.pushHint(expHint{at: exp, addr: addr})
	}
	sh.mu.Unlock()
	s.ops.Add(1)
	t.puts.Add(1)
	if res.ForcedManagedEviction {
		t.forced.Add(1)
	}
}

// Touch resets key's TTL in tenant's partition: the entry now expires ttl
// from now (ttl 0 clears the TTL — the entry becomes non-expiring). It
// reports whether the entry was live; touching an expired entry reclaims it
// and returns false, same as a read would. A successful touch refreshes the
// line's recency like a GET hit, since a touch is a liveness declaration.
func (s *Service) Touch(tenant, key string, ttl time.Duration) (bool, error) {
	if err := s.injectFault(OpTouch, tenant); err != nil {
		return false, err
	}
	t := s.reg.Load().tenants[tenant]
	if t == nil {
		return false, fmt.Errorf("service: unknown tenant %q", tenant)
	}
	return s.touch(t, addrOf(t.part, key), key, ttl)
}

// TouchB is Touch with byte-slice tenant and key.
func (s *Service) TouchB(tenant, key []byte, ttl time.Duration) (bool, error) {
	if s.fault.Load() != nil {
		if err := s.injectFault(OpTouch, string(tenant)); err != nil {
			return false, err
		}
	}
	t := s.reg.Load().tenants[string(tenant)]
	if t == nil {
		return false, fmt.Errorf("service: unknown tenant %q", tenant)
	}
	return s.touchAt(t, addrOfB(t.part, key), key, ttl), nil
}

func (s *Service) touch(t *Tenant, addr uint64, key string, ttl time.Duration) (bool, error) {
	sh := s.shardOf(addr)
	now := s.clk.Now()
	var exp int64
	if ttl > 0 {
		exp = now.Add(ttl).UnixNano()
	}
	live, expired := false, false
	sh.mu.Lock()
	if e, ok := sh.store[addr]; ok && e.key == key {
		if e.exp != 0 && now.UnixNano() >= e.exp {
			delete(sh.store, addr)
			sh.ctl.DemoteExpired(addr)
			expired = true
		} else {
			e.exp = exp
			sh.store[addr] = e
			if exp != 0 {
				sh.pushHint(expHint{at: exp, addr: addr})
			}
			sh.ctl.Access(addr, t.part) // tag is present: refreshes recency
			live = true
		}
	}
	sh.mu.Unlock()
	s.ops.Add(1)
	if expired {
		t.expired.Add(1)
		s.expired.Add(1)
	}
	return live, nil
}

// touchAt is the resolved TOUCH path shared by TouchB and the binary shard
// workers; unlike touch it compares the stored key against a byte slice, so
// the protocol paths never build a key string.
func (s *Service) touchAt(t *Tenant, addr uint64, key []byte, ttl time.Duration) bool {
	sh := s.shardOf(addr)
	now := s.clk.Now()
	var exp int64
	if ttl > 0 {
		exp = now.Add(ttl).UnixNano()
	}
	live, expired := false, false
	sh.mu.Lock()
	if e, ok := sh.store[addr]; ok && e.key == string(key) {
		if e.exp != 0 && now.UnixNano() >= e.exp {
			delete(sh.store, addr)
			sh.ctl.DemoteExpired(addr)
			expired = true
		} else {
			e.exp = exp
			sh.store[addr] = e
			if exp != 0 {
				sh.pushHint(expHint{at: exp, addr: addr})
			}
			sh.ctl.Access(addr, t.part)
			live = true
		}
	}
	sh.mu.Unlock()
	s.ops.Add(1)
	if expired {
		t.expired.Add(1)
		s.expired.Add(1)
	}
	return live
}

// Delete removes key's value from tenant's partition, reporting whether it
// was present. The tag line is left to age out of the array (the controller
// has no invalidation path; a dead tag is demoted and evicted like any cold
// line), so occupancy decays rather than dropping instantly.
func (s *Service) Delete(tenant, key string) (bool, error) {
	if err := s.injectFault(OpDelete, tenant); err != nil {
		return false, err
	}
	t := s.reg.Load().tenants[tenant]
	if t == nil {
		return false, fmt.Errorf("service: unknown tenant %q", tenant)
	}
	addr := addrOf(t.part, key)
	sh := s.shardOf(addr)
	sh.mu.Lock()
	e, ok := sh.store[addr]
	present := ok && e.key == key
	if present {
		delete(sh.store, addr)
	}
	sh.mu.Unlock()
	s.ops.Add(1)
	return present, nil
}

// DeleteB is Delete with byte-slice tenant and key.
func (s *Service) DeleteB(tenant, key []byte) (bool, error) {
	if s.fault.Load() != nil {
		if err := s.injectFault(OpDelete, string(tenant)); err != nil {
			return false, err
		}
	}
	t := s.reg.Load().tenants[string(tenant)]
	if t == nil {
		return false, fmt.Errorf("service: unknown tenant %q", tenant)
	}
	return s.deleteAt(t, addrOfB(t.part, key), key), nil
}

// deleteAt is the resolved DELETE path shared by DeleteB and the binary
// shard workers.
func (s *Service) deleteAt(t *Tenant, addr uint64, key []byte) bool {
	sh := s.shardOf(addr)
	sh.mu.Lock()
	e, ok := sh.store[addr]
	present := ok && e.key == string(key)
	if present {
		delete(sh.store, addr)
	}
	sh.mu.Unlock()
	s.ops.Add(1)
	return present
}

// Repartition reruns UCP once on every shard: each shard first drains its
// deferred-UMON ring (so the monitors reflect the full GET stream), then
// Lookahead distributes its managed capacity among the active tenants from
// its own UMON curves, and the Vantage controllers converge to the new
// targets by churn-based demotion. Safe to call concurrently with requests.
func (s *Service) Repartition() {
	reg := s.reg.Load()
	active := make([]bool, s.cfg.MaxTenants)
	for _, t := range reg.tenants {
		active[t.part] = true
	}
	for _, sh := range s.shards {
		sh.umu.Lock()
		sh.drainLocked()
		targets := sh.alloc.AllocateActive(sh.managed, active)
		sh.umu.Unlock()
		sh.mu.Lock()
		sh.ctl.SetTargets(targets)
		sh.mu.Unlock()
	}
	s.repartitions.Add(1)
}

func (s *Service) repartitionLoop() {
	defer s.wg.Done()
	tick := s.clk.NewTicker(s.cfg.RepartitionInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C():
			s.Repartition()
		}
	}
}
