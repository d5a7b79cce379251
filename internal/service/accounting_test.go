package service

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vantage/internal/clock"
	"vantage/internal/hash"
	"vantage/internal/service/loadgen"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// TestStatsSnapshotConsistent: every Stats snapshot satisfies
// gets = hits + misses + expired for every tenant while GETs of resident,
// absent and just-expired keys run on four goroutines.
func TestStatsSnapshotConsistent(t *testing.T) {
	svc := newTestService(t, Config{Shards: 4, LinesPerShard: 1024, MaxTenants: 4, Seed: 13})
	if _, err := svc.AddTenant("a"); err != nil {
		t.Fatal(err)
	}
	tenant := []byte("a")
	for i := 0; i < 256; i++ {
		if err := svc.PutB(tenant, []byte("r"+strconv.Itoa(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := hash.NewRand(uint64(g + 1))
			var key []byte
			for !stop.Load() {
				i := rng.Intn(256)
				switch rng.Intn(8) {
				case 0: // a key that expires a nanosecond after it is stored
					key = append(append(key[:0], "x"...), strconv.Itoa(g)...)
					_ = svc.PutBTTL(tenant, key, []byte("v"), time.Nanosecond)
				case 1, 2, 3:
					key = append(append(key[:0], "m"...), strconv.Itoa(i)...)
				default:
					key = append(append(key[:0], "r"...), strconv.Itoa(i)...)
				}
				if _, _, err := svc.GetB(tenant, key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	snapshots, broken := 0, 0
	var first TenantStats
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); snapshots++ {
		ts := svc.Stats().Tenants[0]
		if ts.Gets != ts.Hits+ts.Misses+ts.Expired {
			if broken == 0 {
				first = ts
			}
			broken++
		}
	}
	stop.Store(true)
	wg.Wait()
	if broken > 0 {
		t.Fatalf("%d of %d snapshots break gets = hits + misses + expired; first: %+v", broken, snapshots, first)
	}
	if ts := svc.Stats().Tenants[0]; ts.Hits == 0 || ts.Misses == 0 || ts.Expired == 0 {
		t.Fatalf("the mix must hit, miss and expire: %+v", ts)
	}
}

// TestUMONFeedMatchesReadStream: a shard's UMONs see exactly its live read
// stream — every GET, in order, except the reads that found an expired entry
// — and nothing of PUTs or TOUCHes. A fresh ucp.Policy with the shard's seed,
// fed the same (partition, address) sequence, must hold identical monitors
// before a Repartition, and after it identical decayed monitors and targets.
func TestUMONFeedMatchesReadStream(t *testing.T) {
	fc := clock.NewFake(ttlT0)
	cfg := Config{Shards: 1, LinesPerShard: 1024, MaxTenants: 4, Seed: 17, Clock: fc}
	svc := newTestService(t, cfg)
	cfg = svc.Config()
	tenants := []string{"a", "b"}
	active := make([]bool, cfg.MaxTenants)
	for _, name := range tenants {
		p, err := svc.AddTenant(name)
		if err != nil {
			t.Fatal(err)
		}
		active[p] = true
	}
	sh := svc.shards[0]
	ref := ucp.NewPolicy(cfg.MaxTenants, cfg.MonitorWays, cfg.LinesPerShard, ucp.GranLines, hash.Mix64(cfg.Seed)^0xa110c)

	rng := hash.NewRand(5)
	var gets, expired int
	for i := 0; i < 6000; i++ {
		name := tenants[rng.Intn(2)]
		key := "k" + strconv.Itoa(rng.Intn(400))
		switch op := rng.Intn(10); {
		case op < 3:
			ttl := time.Duration(0)
			if op == 0 {
				ttl = time.Duration(1+rng.Intn(50)) * time.Millisecond
			}
			if err := svc.PutTTL(name, key, []byte("v"), ttl); err != nil {
				t.Fatal(err)
			}
		case op == 3:
			if _, err := svc.Touch(name, key, time.Duration(rng.Intn(50))*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		default:
			before := svc.Stats().Expired
			if _, _, err := svc.Get(name, key); err != nil {
				t.Fatal(err)
			}
			gets++
			if svc.Stats().Expired != before {
				expired++
				continue
			}
			tn, _ := svc.tenant(name)
			addr := addrOfB(tn.part, bytesOf(key))
			ref.AccessMixed(tn.part, addr, hash.Mix64(addr))
		}
		if i%100 == 99 {
			fc.Advance(10 * time.Millisecond)
		}
	}
	if expired == 0 || expired == gets {
		t.Fatalf("the stream needs live and expired reads: %d expired of %d GETs", expired, gets)
	}

	check := func(when string) {
		t.Helper()
		for p := 0; p < cfg.MaxTenants; p++ {
			got, want := sh.alloc.Monitor(p), ref.Monitor(p)
			if !slices.Equal(got.HitCurve(), want.HitCurve()) || !slices.Equal(got.MissCurve(), want.MissCurve()) ||
				got.Accesses() != want.Accesses() {
				t.Fatalf("%s: partition %d monitor: hits %v misses %d accesses %d, want %v %d %d", when, p,
					got.HitCurve(), got.MissCurve()[cfg.MonitorWays], got.Accesses(),
					want.HitCurve(), want.MissCurve()[cfg.MonitorWays], want.Accesses())
			}
		}
	}
	check("before Repartition")
	svc.Repartition()
	hits := make([][]uint64, cfg.MaxTenants)
	for p := range hits {
		if active[p] {
			hits[p] = ref.Monitor(p).HitCurve()
		}
		ref.Monitor(p).Decay()
	}
	if got, want := sh.ctl.Targets(), ucp.AllocateCurves(new(ucp.Scratch), nil, hits, sh.managed, ucp.GranLines); !slices.Equal(got, want) {
		t.Fatalf("targets %v, want %v", got, want)
	}
	check("after Repartition")
}

// TestReaddedTenantStartsAtZero: a tenant added into the slot a removed one
// held reads zero on every request counter, then counts its own traffic
// exactly.
func TestReaddedTenantStartsAtZero(t *testing.T) {
	fc := clock.NewFake(ttlT0)
	svc := newTestService(t, Config{Shards: 2, LinesPerShard: 256, MaxTenants: 2, Seed: 19, Clock: fc})
	oldPart, _ := svc.AddTenant("old")
	svc.AddTenant("other")

	// traffic alternates a hot set, filled with a short TTL, with a stream of
	// keys never seen before, so hits, misses, expired reads and forced
	// managed evictions all occur.
	traffic := func(i int) (key string, ttl time.Duration) {
		if i%2 == 0 {
			return "hot" + strconv.Itoa(i/2%64), 5 * time.Millisecond
		}
		return "cold" + strconv.Itoa(i), 0
	}
	for i := 0; i < 8*svc.TotalLines(); i++ {
		key, ttl := traffic(i)
		if _, hit, _ := svc.Get("old", key); !hit {
			svc.PutTTL("old", key, []byte("v"), ttl)
		}
		if i%64 == 0 {
			fc.Advance(time.Millisecond)
			svc.Repartition()
		}
	}
	old, _ := svc.TenantStats("old")
	if old.Gets == 0 || old.Puts == 0 || old.Hits == 0 || old.Misses == 0 || old.Expired == 0 || old.ForcedEvictions == 0 {
		t.Fatalf("the old tenant's churn must move every counter: %+v", old)
	}

	if err := svc.RemoveTenant("old"); err != nil {
		t.Fatal(err)
	}
	if p, _ := svc.AddTenant("new"); p != oldPart {
		t.Fatalf("new tenant got slot %d, want the freed slot %d", p, oldPart)
	}
	got, _ := svc.TenantStats("new")
	if got.Gets|got.Puts|got.Hits|got.Misses|got.Expired|got.ForcedEvictions != 0 {
		t.Fatalf("re-added tenant inherited counters: %+v", got)
	}

	forcedBefore := svc.forcedEvictions()
	var want TenantStats
	for i := 0; i < 4*svc.TotalLines(); i++ {
		key, ttl := traffic(i)
		before := svc.Stats().Expired
		_, hit, _ := svc.Get("new", key)
		want.Gets++
		switch {
		case hit:
			want.Hits++
		case svc.Stats().Expired != before:
			want.Expired++
		default:
			want.Misses++
		}
		if !hit {
			svc.PutTTL("new", key, []byte("v"), ttl)
			want.Puts++
		}
		if i%64 == 0 {
			fc.Advance(time.Millisecond)
		}
	}
	got, _ = svc.TenantStats("new")
	want.ForcedEvictions = svc.forcedEvictions() - forcedBefore
	if got.Gets != want.Gets || got.Puts != want.Puts || got.Hits != want.Hits || got.Misses != want.Misses ||
		got.Expired != want.Expired || got.ForcedEvictions != want.ForcedEvictions {
		t.Fatalf("re-added tenant counted %+v, want %+v", got, want)
	}
	if want.Hits == 0 || want.Expired == 0 || want.Misses == 0 {
		t.Fatalf("the new tenant's traffic must hit, miss and expire: %+v", want)
	}
}

// forcedEvictions sums the controllers' forced managed evictions.
func (s *Service) forcedEvictions() uint64 {
	var n uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.ctl.Counters().ForcedManagedEvictions
		sh.mu.Unlock()
	}
	return n
}

// serviceFingerprint is TestServiceFingerprint's Stats string. A change to
// it is a change of behaviour on the service's request path: explain it, or
// find the bug. Last re-recorded when Repartition became one allocation over
// the shards' summed curves, which splits each target evenly across shards.
const serviceFingerprint = "" +
	"fitting g=16384 h=6 m=16378 x=0 p=16378 occ=69 tgt=15 dem=15711 forced=745 | " +
	"friendly g=16384 h=7329 m=8823 x=232 p=9055 occ=3378 tgt=3376 dem=5195 forced=574 | " +
	"insens g=16384 h=15954 m=407 x=23 p=430 occ=128 tgt=486 dem=23 forced=181 | " +
	"thrash g=16384 h=0 m=16384 x=0 p=16384 occ=83 tgt=15 dem=15682 forced=764 | " +
	"sweep=246 passes=32"

// TestServiceFingerprint is the service's golden, the counterpart of the
// simulator's: the four Table 3 tenants run cache-aside traffic on 2 shards
// of 2,048 lines for 16 windows of a fake clock, with a TTL on 1 fill in 8
// and a Repartition and a sweep pass between windows. Every request counter,
// occupancy, target, demotion and forced eviction, and the sweeper's totals,
// must repeat exactly.
func TestServiceFingerprint(t *testing.T) {
	const (
		windows       = 16
		getsPerWindow = 4096
		ttlEvery      = 8
	)
	fc := clock.NewFake(ttlT0)
	svc := newTestService(t, Config{Shards: 2, LinesPerShard: 2048, Seed: 2011, Clock: fc})
	cats := []struct {
		name string
		cat  workload.Category
	}{
		{"friendly", workload.Friendly},
		{"fitting", workload.Fitting},
		{"thrash", workload.Thrashing},
		{"insens", workload.Insensitive},
	}
	apps := make([]workload.App, len(cats))
	for i, c := range cats {
		if _, err := svc.AddTenant(c.name); err != nil {
			t.Fatal(err)
		}
		apps[i] = loadgen.CategoryApp(c.cat, svc.TotalLines(), uint64(i+1))
	}
	val := make([]byte, 32)
	var key []byte
	fills := 0
	for w := 0; w < windows; w++ {
		svc.Repartition()
		svc.SweepOnce()
		fc.Advance(time.Second)
		for i := 0; i < getsPerWindow; i++ {
			c := i % len(cats)
			_, addr := apps[c].Next()
			key = strconv.AppendUint(key[:0], addr, 16)
			tenant := []byte(cats[c].name)
			_, hit, err := svc.GetB(tenant, key)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				continue
			}
			ttl := time.Duration(0)
			if fills%ttlEvery == 0 {
				ttl = 3 * time.Second
			}
			fills++
			if err := svc.PutBTTL(tenant, key, val, ttl); err != nil {
				t.Fatal(err)
			}
		}
	}

	var b strings.Builder
	st := svc.Stats()
	for _, ts := range st.Tenants {
		fmt.Fprintf(&b, "%s g=%d h=%d m=%d x=%d p=%d occ=%d tgt=%d dem=%d forced=%d | ",
			ts.Name, ts.Gets, ts.Hits, ts.Misses, ts.Expired, ts.Puts,
			ts.OccupancyLines, ts.TargetLines, ts.Demotions, ts.ForcedEvictions)
	}
	fmt.Fprintf(&b, "sweep=%d passes=%d", st.SweepLines, st.SweepPasses)
	if got := b.String(); got != serviceFingerprint {
		t.Fatalf("service fingerprint changed:\n got %s\nwant %s", got, serviceFingerprint)
	}
}
