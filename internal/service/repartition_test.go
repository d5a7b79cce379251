package service

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vantage/internal/clock"
	"vantage/internal/hash"
	"vantage/internal/service/loadgen"
	"vantage/internal/workload"
)

// shardTargets returns every shard's current targets, indexed [shard][slot].
func shardTargets(svc *Service) [][]int {
	out := make([][]int, len(svc.shards))
	for i, sh := range svc.shards {
		sh.mu.Lock()
		out[i] = sh.ctl.Targets()
		sh.mu.Unlock()
	}
	return out
}

// checkSplit fails t unless every active slot's per-shard targets differ by
// at most one line and sum to its global target, and every other slot has
// target 0 on every shard.
func checkSplit(t *testing.T, svc *Service) {
	t.Helper()
	svc.rp.mu.Lock()
	global := slices.Clone(svc.rp.targets)
	svc.rp.mu.Unlock()
	per := shardTargets(svc)
	reg := svc.reg.Load()
	managed := 0
	for _, sh := range svc.shards {
		managed += sh.managed
	}
	sum := 0
	for p := 0; p < svc.cfg.MaxTenants; p++ {
		lo, hi, tot := per[0][p], per[0][p], 0
		for _, tg := range per {
			lo, hi, tot = min(lo, tg[p]), max(hi, tg[p]), tot+tg[p]
		}
		if tn := reg.byPart[p]; tn == nil || reg.tenants[tn.name] != tn {
			if hi != 0 {
				t.Errorf("inactive slot %d has per-shard targets %v", p, column(per, p))
			}
			continue
		}
		if hi-lo > 1 || tot != global[p] {
			t.Errorf("slot %d: per-shard targets %v, global target %d", p, column(per, p), global[p])
		}
		sum += global[p]
	}
	if len(reg.tenants) > 0 && sum != managed {
		t.Errorf("active tenants' global targets sum to %d, want the %d managed lines", sum, managed)
	}
}

func column(per [][]int, p int) []int {
	out := make([]int, len(per))
	for i := range per {
		out[i] = per[i][p]
	}
	return out
}

// TestRepartitionSeedIndependent plays svc-mix's traffic at a quarter of its
// size: the four Table 3 tenants round robin, cache-aside with no TTLs, on
// svc-mix's hash seed and key names, on four shards of 2,048 lines, under
// six stream seeds. One allocation over the shards' summed curves settles
// every stream into the same split, so the friendly tenant's hit ratio over
// the measured windows varies by at most 0.01. Allocating per shard let the
// shards disagree: on these streams it spanned 0.48-0.54. Every tenant's
// per-shard targets differ by at most one line. At this size the solve has
// a close neighbour (one 487-line step between the friendly and the
// insensitive tenant), and other hash seeds or key names can put one stream
// on it, 0.02 below the rest.
func TestRepartitionSeedIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine replaying 2.7M requests: ~110 s under -race, nothing to detect")
	}
	const (
		shards        = 4
		linesPerShard = 2048
		getsPerWindow = 8192
		warmWindows   = 24
		windows       = 32
	)
	cats := []workload.Category{workload.Friendly, workload.Fitting, workload.Thrashing, workload.Insensitive}
	names := [][]byte{[]byte("friendly"), []byte("fitting"), []byte("thrash"), []byte("insens")}
	friendly := func(seed uint64) float64 {
		svc := newTestService(t, Config{Shards: shards, LinesPerShard: linesPerShard, Seed: 2011, Clock: clock.NewFake(ttlT0)})
		apps := make([]workload.App, len(cats))
		salts := make([]uint64, len(cats))
		for i, c := range cats {
			if _, err := svc.AddTenant(string(names[i])); err != nil {
				t.Fatal(err)
			}
			apps[i] = loadgen.CategoryApp(c, svc.TotalLines(), hash.Mix64(seed^uint64(i+1)<<32))
			salts[i] = hash.Mix64(2011 ^ uint64(i+1)*0x9e37)
		}
		val := make([]byte, 8)
		var key []byte
		var gets, hits int
		for w := 0; w < warmWindows+windows; w++ {
			svc.Repartition()
			for i := 0; i < getsPerWindow; i++ {
				c := i % len(cats)
				_, addr := apps[c].Next()
				key = fmt.Appendf(key[:0], "k%016x", hash.Mix64(addr^salts[c]))
				_, hit, err := svc.GetB(names[c], key)
				if err != nil {
					t.Fatal(err)
				}
				if c == 0 && w >= warmWindows {
					gets++
					if hit {
						hits++
					}
				}
				if !hit {
					if err := svc.PutB(names[c], key, val); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		checkSplit(t, svc)
		return float64(hits) / float64(gets)
	}
	lo, hi := 1.0, 0.0
	var ratios []string
	for _, seed := range []uint64{2011, 1, 2, 3, 4, 5} {
		r := friendly(seed)
		lo, hi = min(lo, r), max(hi, r)
		ratios = append(ratios, fmt.Sprintf("%d:%.4f", seed, r))
	}
	if hi-lo > 0.01 {
		t.Fatalf("friendly hit ratio spans %.4f-%.4f over stream seeds (%v), want a spread of at most 0.01", lo, hi, ratios)
	}
}

// TestRepartitionUnderTenantChurn runs AddTenant/RemoveTenant on one slot,
// the background repartition loop, explicit Repartition calls and traffic
// all at once (run it under -race). Afterwards every inactive slot has
// target 0 on every shard, and every active tenant's per-shard targets
// differ by at most one line and sum to its global target.
func TestRepartitionUnderTenantChurn(t *testing.T) {
	svc := newTestService(t, Config{Shards: 4, LinesPerShard: 1024, MaxTenants: 4, Seed: 41, RepartitionInterval: time.Millisecond})
	for _, name := range []string{"a", "b"} {
		if _, err := svc.AddTenant(name); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	churned := make(chan struct{})
	wg.Add(2)
	go func() { // churn: one slot comes and goes
		defer close(churned)
		for i := 0; i < 200; i++ {
			if _, err := svc.AddTenant("churn"); err != nil {
				t.Error(err)
				return
			}
			svc.Put("churn", strconv.Itoa(i), []byte("v"))
			if err := svc.RemoveTenant("churn"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // explicit repartitions beside the background loop
		defer wg.Done()
		for !stop.Load() {
			svc.Repartition()
		}
	}()
	go func() { // traffic, so the monitors have curves to allocate from
		defer wg.Done()
		rng := hash.NewRand(3)
		for !stop.Load() {
			name := []string{"a", "b"}[rng.Intn(2)]
			key := strconv.Itoa(rng.Intn(3000))
			if _, hit, _ := svc.Get(name, key); !hit {
				svc.Put(name, key, []byte("v"))
			}
		}
	}()
	<-churned
	stop.Store(true)
	wg.Wait()
	svc.Close()
	checkSplit(t, svc)
}

// TestRepartitionPastLinePoints: line-granular UCP works in 256ths of the
// capacity, at least one each, so the 257th active tenant used to make
// Lookahead panic and take the repartition loop, and the daemon, with it.
// With 300 tenants on one 4,096-line shard every Repartition must still
// hand out every managed line and give each active tenant at least one.
func TestRepartitionPastLinePoints(t *testing.T) {
	svc := newTestService(t, Config{Shards: 1, LinesPerShard: 4096, MaxTenants: 300, Seed: 47})
	for i := 0; i < 300; i++ {
		name := "t" + strconv.Itoa(i)
		if _, err := svc.AddTenant(name); err != nil {
			t.Fatal(err)
		}
		if err := svc.PutB([]byte(name), []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		svc.Repartition()
		checkSplit(t, svc)
		svc.rp.mu.Lock()
		targets := slices.Clone(svc.rp.targets)
		svc.rp.mu.Unlock()
		for p, tg := range targets[:i+1] {
			if tg < 1 {
				t.Fatalf("with %d tenants, slot %d's target is %d lines", i+1, p, tg)
			}
		}
	}
}

// TestConcurrentRepartitionsDecayOnce: two concurrent Repartition calls leave
// the monitors and targets two sequential calls leave, so no call decays a
// monitor twice or installs a half-built split.
func TestConcurrentRepartitionsDecayOnce(t *testing.T) {
	build := func() *Service {
		svc := newTestService(t, Config{Shards: 2, LinesPerShard: 1024, MaxTenants: 4, Seed: 43})
		for _, name := range []string{"a", "b", "c"} {
			if _, err := svc.AddTenant(name); err != nil {
				t.Fatal(err)
			}
		}
		rng := hash.NewRand(9)
		for i := 0; i < 20000; i++ {
			name := []string{"a", "b", "c"}[rng.Intn(3)]
			key := strconv.Itoa(rng.Intn(1 + 1500*(i%3)))
			if _, hit, _ := svc.Get(name, key); !hit {
				svc.Put(name, key, []byte("v"))
			}
		}
		return svc
	}
	seq, conc := build(), build()
	seq.Repartition()
	seq.Repartition()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conc.Repartition()
		}()
	}
	wg.Wait()
	for i := range seq.shards {
		for p := 0; p < seq.cfg.MaxTenants; p++ {
			a, b := seq.shards[i].alloc.Monitor(p), conc.shards[i].alloc.Monitor(p)
			if !slices.Equal(a.HitCurve(), b.HitCurve()) || a.Accesses() != b.Accesses() {
				t.Fatalf("shard %d slot %d: concurrent calls left hits %v accesses %d, sequential %v %d",
					i, p, b.HitCurve(), b.Accesses(), a.HitCurve(), a.Accesses())
			}
		}
	}
	if got, want := shardTargets(conc), shardTargets(seq); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("concurrent calls installed %v, sequential %v", got, want)
	}
}

// TestRepartitionAllocatesNothing: in steady state Repartition reuses its
// buffers, so it allocates nothing, under a shard lock or outside one.
func TestRepartitionAllocatesNothing(t *testing.T) {
	svc := newTestService(t, Config{Shards: 4, LinesPerShard: 1024, MaxTenants: 16, Seed: 45})
	for i := 0; i < 12; i++ {
		name := "t" + strconv.Itoa(i)
		if _, err := svc.AddTenant(name); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 200; k++ {
			svc.Get(name, strconv.Itoa(k*(i+1)))
		}
	}
	if n := testing.AllocsPerRun(10, svc.Repartition); n != 0 {
		t.Fatalf("Repartition allocates %.1f times per call", n)
	}
}
