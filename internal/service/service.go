// Package service turns the Vantage library into a servable system: a
// thread-safe, sharded, multi-tenant in-memory key-value cache whose
// capacity management is a live Vantage controller per shard.
//
// Keys are hashed to 64-bit line addresses in a per-tenant namespace, and
// addresses are interleaved across shards by an H3 hash, exactly the way
// internal/ctrl's Banked organization distributes a physical cache across
// banks (Table 2). Each shard pairs a Vantage controller over a zcache tag
// array with a value store laid out like the paper's data array (§3.2): one
// record per line slot, which follows its line when a zcache walk relocates
// it. The tag array decides placement, demotion, and eviction; the record in
// a line's slot holds that line's key, value and expiry, so a request
// resolves its address once — the zcache lookup — and an eviction needs no
// store operation at all (the incoming line overwrites the victim's record).
// Tenants map 1:1 to Vantage partitions, so every tenant gets Vantage's
// isolation guarantees — fine-grain capacity targets, demotions confined by
// aperture, a shared unmanaged region absorbing churn — on real traffic.
//
// Capacity targets are set online by utility-based cache partitioning: each
// shard's UMON-DSS monitors are fed its live GET stream (the read stream
// defines utility; PUTs are the fill path), and every RepartitionInterval
// one Lookahead over the shards' summed curves retargets every shard.
//
// Concurrency model: one lock per shard. sh.mu serializes the shard's
// controller, value store, UCP monitors and request counters, so a GET, PUT,
// DEL or TOUCH takes exactly one lock and writes nothing another shard's
// requests write: the controller and store are coupled because a record is
// addressed by the slot its tag occupies, the UMON sees each GET as its
// lookup happens, as UMON-DSS sits beside the tag array in the paper (§5),
// and the counters are plain integers that Stats sums under the same locks.
// The tenant registry is a copy-on-write snapshot behind an atomic pointer,
// so the request path resolves tenants without any lock; registry mutations
// serialize on a writers-only mutex. The repartition loop takes shard locks
// one at a time, so reconfiguration never stops the world.
//
// The read path is allocation-free and a PUT allocates once, for its value
// copy. GET returns the stored slice without copying, and callers (the
// protocol handlers write it to the socket after the shard lock is dropped)
// must treat it as immutable; that is why every PUT installs a freshly
// copied value rather than reusing the slot's old one — a value arena would
// let a concurrent PUT tear a reply. Key bytes are only read under the lock,
// so each slot's key buffer is reused in place. The address computation
// mixes the key once and shares the mixed hash between shard routing, the
// zcache and the UMON. The byte-slice variants (GetB/PutB/DeleteB) are the
// request path; the string-keyed methods are views onto them.
package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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

// entry is one line's record in the shard's slab: recs[id] belongs to the
// line in zcache slot id and moves with it when a walk relocates the line.
// live says the record holds a value; a dead record under a resident tag is
// a deleted, expired or purged key whose tag is ageing out. The full key is
// kept to reject the (rare) collisions of two keys on one 40-bit line
// address; its buffer is only read under sh.mu and is reused in place by
// the slot's next occupant. val is an immutable copy that GET hands out
// without copying, so it is never reused — only dropped for the GC. exp is
// the expiry deadline in Unix nanoseconds, 0 when the entry never expires;
// an entry at or past its deadline is dead — reads treat it as a miss
// (counted as an expired miss, not a cold one) and reclaim it on the spot.
type entry struct {
	key   []byte
	val   []byte
	exp   int64
	stamp uint32 // last compactHints pass that kept a hint for this record
	live  bool
}

// partCounters are one partition slot's request counters on one shard.
// expired counts reads and touches that found an entry past its TTL; forced
// counts the forced managed evictions the partition's fills caused.
type partCounters struct {
	gets, puts, hits, misses, expired, forced uint64
}

// shard is one bank of the service: a Vantage controller over a zcache tag
// array, the value store, the UCP monitors and the request counters, all
// guarded by mu. A request takes mu once and does all of its work there.
type shard struct {
	mu      sync.Mutex
	ctl     *core.Controller
	lines   []cache.Line // the zcache's tags: lines[id].Addr is recs[id]'s address
	recs    []entry      // the value store: one record per line slot
	live    int          // records holding a value
	managed int          // partitionable lines (capacity minus unmanaged target)
	snap    []ctrl.PartitionSnapshot

	// Expiry state: a min-heap of (deadline, addr) hints pushed by TTL'd
	// writes, and the sweeper's lifetime counters. Hints are not
	// authoritative — the entry's exp field is — so a hint whose entry was
	// deleted, overwritten, or touched to a later deadline is simply
	// discarded when popped.
	exph        expHeap
	compactions uint32 // compactHints passes; stamps the records a pass keeps
	sweepLines  uint64 // expired entries reclaimed by the sweeper
	sweepPasses uint64 // sweep passes executed

	// alloc holds one UMON-DSS per partition slot, fed every live GET as
	// its lookup happens (§5).
	alloc *ucp.Policy

	// Request counters: per partition slot, and the shard's totals of
	// requests served and of reads/touches that found an expired entry.
	cnt          []partCounters
	ops, expired uint64
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

	mgets        atomic.Uint64
	repartitions atomic.Uint64
	rp           repartState

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

	// fault, when non-nil, is drawn once per data request at admission
	// (see request.go) and may drop, delay or fail it (see fault.go).
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
	s.rp.hits = make([][]uint64, cfg.MaxTenants)
	s.rp.sums = make([]uint64, cfg.MaxTenants*(cfg.MonitorWays+1))
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
		recs := make([]entry, cfg.LinesPerShard)
		// The data follows the tags (§3.2): a relocated line takes its
		// record along. Swapping, not copying, walks the victim's record up
		// the relocation path into the slot the incoming line is installed
		// into, where putAt overwrites it.
		ctl.SetMoveObserver(func(src, dst cache.LineID) {
			recs[dst], recs[src] = recs[src], recs[dst]
		})
		s.shards = append(s.shards, &shard{
			ctl:     ctl,
			lines:   arr.Lines(),
			recs:    recs,
			alloc:   ucp.NewPolicy(cfg.MaxTenants, cfg.MonitorWays, cfg.LinesPerShard, ucp.GranLines, seed^0xa110c),
			managed: cfg.LinesPerShard - unmanaged,
			cnt:     make([]partCounters, cfg.MaxTenants),
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

// fnv1aB is FNV-1a over the key bytes; addrOfB finishes it with the
// SplitMix64 finalizer because H3 routing downstream needs well-mixed input
// bits.
func fnv1aB(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// addrOfB maps a tenant partition and key to a line address: the tenant
// selects a disjoint 40-bit address space (the idiom internal/sim uses for
// per-core spaces), the key hash the line within it.
func addrOfB(part int, key []byte) uint64 {
	return uint64(part+1)<<40 | hash.Mix64(fnv1aB(key))&(1<<40-1)
}

// shardOf routes an address, given its Mix64, to its shard (ctrl.Banked's
// bankOf).
func (s *Service) shardOf(mixed uint64) *shard {
	return s.shards[s.route.Hash(mixed)&s.mask]
}

// bytesOf views s as a byte slice without copying, so the string-keyed API
// is the []byte request path at no cost for any key length. The view is
// safe because that path only reads tenant and key bytes (a PUT copies the
// key into the line's record).
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// find resolves addr with one zcache lookup and returns its slot and record
// when the record holds key's value. A resident tag whose record is dead
// (deleted key, expired, purged tenant) or belongs to another key (a 40-bit
// collision) is not found, so readers never refresh its recency and it ages
// out like any cold line. Caller holds sh.mu.
func (sh *shard) find(addr, mixed uint64, key []byte) (cache.LineID, *entry) {
	if id, ok := sh.ctl.LookupMixed(addr, mixed); ok {
		if e := &sh.recs[id]; e.live && string(e.key) == string(key) {
			return id, e
		}
	}
	return cache.InvalidLine, nil
}

// drop discards e's value: the GC gets the value, the key buffer stays for
// the slot's next occupant. Caller holds sh.mu.
func (sh *shard) drop(e *entry) {
	e.live, e.val = false, nil
	sh.live--
}

// expire reclaims the expired record e in slot id: the value is dropped and
// the line demoted so the partition's occupancy shrinks. Caller holds sh.mu.
func (sh *shard) expire(id cache.LineID, e *entry) {
	sh.drop(e)
	sh.ctl.DemoteExpiredSlot(id)
}

// Get looks key up in tenant's partition. It returns the stored value and
// whether it hit; a miss does not install anything (the caller is expected
// to fetch from its origin and Put, the cache-aside pattern).
//
// An entry at or past its expiry deadline is a miss: it is reclaimed on the
// spot (value dropped + expiry demotion) and counted as an expired miss, not
// a cold one. Expired reads deliberately bypass the UMON — an expired miss
// is compulsory, no capacity allocation could have served it, so feeding it
// to the utility monitors would credit the tenant for demand that capacity
// cannot convert into hits.
//
// The returned slice aliases the store and must not be modified. It is a
// stable snapshot: overwrites install fresh copies, so a slice returned
// here is never mutated afterwards.
func (s *Service) Get(tenant, key string) ([]byte, bool, error) {
	return s.GetB(bytesOf(tenant), bytesOf(key))
}

// GetB is Get with byte-slice tenant and key, for callers that keep
// requests in shared buffers; it performs no allocation on any path but the
// unknown-tenant error.
func (s *Service) GetB(tenant, key []byte) ([]byte, bool, error) {
	v, val := s.serve(nil, &request{op: OpGet, tenant: tenant, key: key}, nil)
	return val, v == outDone, v.err(tenant)
}

// getAt is the resolved GET path (see serve): the caller already resolved
// the tenant and computed the line address and its Mix64, which routes the
// shard as well. One zcache lookup resolves the slot; a hit runs the
// controller's hit path on it. The counters and the UMON access happen in the
// same critical section.
func (s *Service) getAt(t *Tenant, addr, mixed uint64, key []byte) ([]byte, bool) {
	sh := s.shardOf(mixed)
	var val []byte
	hit := false
	sh.mu.Lock()
	c := &sh.cnt[t.part]
	c.gets++
	sh.ops++
	id, e := sh.find(addr, mixed, key)
	switch {
	case e == nil:
		c.misses++
	case e.exp != 0 && s.clk.Now().UnixNano() >= e.exp:
		sh.expire(id, e)
		c.expired++
		sh.expired++
		sh.mu.Unlock()
		return nil, false // no UMON access: see Get
	default:
		sh.ctl.Touch(id, t.part)
		val, hit = e.val, true
		c.hits++
	}
	sh.alloc.AccessMixed(t.part, addr, mixed) // UMON-DSS sees the live read stream
	sh.mu.Unlock()
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
	return s.PutBTTL(bytesOf(tenant), bytesOf(key), val, ttl)
}

// PutB is Put with byte-slice tenant, key, and value. Key and value are
// copied; the key goes into the slot's reused buffer, so a steady-state PUT
// allocates only the value copy.
func (s *Service) PutB(tenant, key, val []byte) error {
	return s.PutBTTL(tenant, key, val, s.cfg.DefaultTTL)
}

// PutBTTL is PutTTL with byte-slice tenant, key, and value.
func (s *Service) PutBTTL(tenant, key, val []byte, ttl time.Duration) error {
	v, _ := s.serve(nil, &request{op: OpPut, tenant: tenant, key: key, val: val, ttl: ttl, ttlSet: true}, nil)
	return v.err(tenant)
}

// putAt is the resolved PUT path: one controller access (a hit refreshes, a
// miss installs), then the record in the slot it reports is overwritten. On
// a miss that record is the evicted line's — the walk's relocations swapped
// it there — so an eviction needs no separate removal. The value is a fresh copy (GET hands
// out the stored slice); the key reuses the slot's buffer.
func (s *Service) putAt(t *Tenant, addr, mixed uint64, key, val []byte, ttl time.Duration) {
	sh := s.shardOf(mixed)
	v := append([]byte(nil), val...)
	var exp int64
	if ttl > 0 {
		exp = s.clk.Now().Add(ttl).UnixNano()
	}
	sh.mu.Lock()
	res := sh.ctl.AccessMixed(addr, mixed, t.part)
	e := &sh.recs[res.Slot]
	if !e.live {
		sh.live++
	}
	e.key = append(e.key[:0], key...)
	e.val, e.exp, e.live = v, exp, true
	if exp != 0 {
		sh.pushHint(expHint{at: exp, addr: addr})
	}
	c := &sh.cnt[t.part]
	c.puts++
	if res.ForcedManagedEviction {
		c.forced++
	}
	sh.ops++
	sh.mu.Unlock()
}

// Touch resets key's TTL in tenant's partition: the entry now expires ttl
// from now (ttl 0 clears the TTL — the entry becomes non-expiring). It
// reports whether the entry was live; touching an expired entry reclaims it
// and returns false, same as a read would. A successful touch refreshes the
// line's recency like a GET hit, since a touch is a liveness declaration.
func (s *Service) Touch(tenant, key string, ttl time.Duration) (bool, error) {
	return s.TouchB(bytesOf(tenant), bytesOf(key), ttl)
}

// TouchB is Touch with byte-slice tenant and key.
func (s *Service) TouchB(tenant, key []byte, ttl time.Duration) (bool, error) {
	v, _ := s.serve(nil, &request{op: OpTouch, tenant: tenant, key: key, ttl: ttl}, nil)
	return v == outDone, v.err(tenant)
}

// touchAt is the resolved TOUCH path.
func (s *Service) touchAt(t *Tenant, addr, mixed uint64, key []byte, ttl time.Duration) bool {
	sh := s.shardOf(mixed)
	now := s.clk.Now()
	var exp int64
	if ttl > 0 {
		exp = now.Add(ttl).UnixNano()
	}
	live := false
	sh.mu.Lock()
	if id, e := sh.find(addr, mixed, key); e != nil {
		if e.exp != 0 && now.UnixNano() >= e.exp {
			sh.expire(id, e)
			sh.cnt[t.part].expired++
			sh.expired++
		} else {
			e.exp = exp
			if exp != 0 {
				sh.pushHint(expHint{at: exp, addr: addr})
			}
			sh.ctl.Touch(id, t.part)
			live = true
		}
	}
	sh.ops++
	sh.mu.Unlock()
	return live
}

// Delete removes key's value from tenant's partition, reporting whether it
// was present. The tag line is left to age out of the array (the controller
// has no invalidation path; a dead tag is demoted and evicted like any cold
// line), so occupancy decays rather than dropping instantly.
func (s *Service) Delete(tenant, key string) (bool, error) {
	return s.DeleteB(bytesOf(tenant), bytesOf(key))
}

// DeleteB is Delete with byte-slice tenant and key.
func (s *Service) DeleteB(tenant, key []byte) (bool, error) {
	v, _ := s.serve(nil, &request{op: OpDelete, tenant: tenant, key: key}, nil)
	return v == outDone, v.err(tenant)
}

// deleteAt is the resolved DELETE path.
func (s *Service) deleteAt(addr, mixed uint64, key []byte) bool {
	sh := s.shardOf(mixed)
	sh.mu.Lock()
	_, e := sh.find(addr, mixed, key)
	if e != nil {
		sh.drop(e)
	}
	sh.ops++
	sh.mu.Unlock()
	return e != nil
}

// Repartition runs UCP once for the whole service (§5): it sums each active
// tenant's hit curves over the shards, taking one shard lock at a time, runs
// Lookahead on the sums with no shard lock held, and installs each target
// split evenly across the shards, zero for a slot no longer active by then.
// Calls are serialized; they are safe concurrently with requests.
func (s *Service) Repartition() {
	r := &s.rp
	r.mu.Lock()
	defer r.mu.Unlock()
	ways := s.cfg.MonitorWays + 1
	clear(r.hits)
	clear(r.sums)
	for _, t := range s.reg.Load().tenants {
		r.hits[t.part] = r.sums[t.part*ways : (t.part+1)*ways]
	}
	managed := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for p, h := range r.hits {
			m := sh.alloc.Monitor(p)
			if h != nil {
				m.AddHitCurve(h)
			}
			m.Decay()
		}
		sh.mu.Unlock()
		managed += sh.managed
	}
	r.targets = ucp.AllocateCurves(&r.sc, r.targets, r.hits, managed, ucp.GranLines)
	for i, sh := range s.shards {
		r.per = ctrl.SplitEven(r.per, r.targets, i, len(s.shards))
		sh.mu.Lock()
		reg := s.reg.Load()
		for p, t := range r.per {
			if tn := reg.byPart[p]; t != 0 && (tn == nil || reg.tenants[tn.name] != tn) {
				r.per[p] = 0 // removed, or still purging, since the solve
			}
		}
		sh.ctl.SetTargets(r.per)
		sh.mu.Unlock()
	}
	s.repartitions.Add(1)
}

// repartState is Repartition's lock, which no request takes, and scratch.
type repartState struct {
	mu      sync.Mutex
	hits    [][]uint64 // per slot: the shards' summed hit curve, nil if inactive
	sums    []uint64   // the backing array of hits, MonitorWays+1 per slot
	targets []int      // per slot: the global target
	per     []int      // per slot: one shard's share of targets
	sc      ucp.Scratch
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
