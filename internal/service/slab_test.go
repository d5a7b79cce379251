package service

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/cache"
	"vantage/internal/clock"
	"vantage/internal/hash"
)

// slabOracle is what the differential test last wrote: for every key, the
// value and deadline the service would serve if the line is still resident.
// It cannot predict evictions, so it bounds the service instead of mirroring
// it: a hit must return exactly the oracle's value, a key the oracle does
// not hold must miss, and a miss on a key it holds means the line was
// evicted — the key is forgotten, so a later hit without a PUT is a
// resurrection.
type slabOracle struct {
	t    *testing.T
	svc  *Service
	clk  *clock.Fake
	held map[string]slabVal // "tenant/key" → last write
	part map[int]string     // partition slot → tenant name
}

type slabVal struct {
	val []byte
	exp int64 // Unix ns, 0 = never
}

func (o *slabOracle) expired(v slabVal) bool {
	return v.exp != 0 && o.clk.Now().UnixNano() >= v.exp
}

// check asserts the slab's invariants against the tag array and the oracle.
func (o *slabOracle) check(op string) {
	o.t.Helper()
	sh := o.svc.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	live := 0
	seen := make(map[uint64]int, sh.live)
	for id := range sh.recs {
		e := &sh.recs[id]
		if !e.live {
			if e.val != nil {
				o.t.Fatalf("%s: slot %d is dead but still pins a value", op, id)
			}
			continue
		}
		live++
		line := sh.lines[id]
		if !line.Valid {
			o.t.Fatalf("%s: slot %d holds a live record under an invalid line", op, id)
		}
		if e.val == nil {
			o.t.Fatalf("%s: slot %d is live with a nil value", op, id)
		}
		part := int(line.Addr>>40) - 1
		if got := addrOfB(part, e.key); got != line.Addr {
			o.t.Fatalf("%s: slot %d: key %q hashes to %#x, tag says %#x", op, id, e.key, got, line.Addr)
		}
		if prev, dup := seen[line.Addr]; dup {
			o.t.Fatalf("%s: slots %d and %d are both live at %#x", op, prev, id, line.Addr)
		}
		seen[line.Addr] = id
		// The slab never holds a value the oracle did not write there.
		want, ok := o.held[o.part[part]+"/"+string(e.key)]
		if !ok || !bytes.Equal(want.val, e.val) || want.exp != e.exp {
			o.t.Fatalf("%s: slot %d holds %q=%q exp %d; oracle has %q exp %d (held %v)",
				op, id, e.key, e.val, e.exp, want.val, want.exp, ok)
		}
	}
	if live != sh.live {
		o.t.Fatalf("%s: live counter %d, full scan %d", op, sh.live, live)
	}
	// The sweeper finds every TTL'd record: compaction never drops the hint
	// that matches a live record's deadline.
	hints := make(map[expHint]bool, len(sh.exph))
	for _, h := range sh.exph {
		hints[h] = true
	}
	for addr, id := range seen {
		if e := &sh.recs[id]; e.exp != 0 && !hints[expHint{at: e.exp, addr: addr}] {
			o.t.Fatalf("%s: slot %d expires at %d with no hint in the heap", op, id, e.exp)
		}
	}
}

// TestSlabFollowsRelocations drives a tiny Z4/52 shard — most of the array
// is on every walk, so nearly every insert relocates lines — with a seeded
// stream of every operation that reads or writes the slab, and checks it
// against slabOracle after each one.
func TestSlabFollowsRelocations(t *testing.T) {
	for _, lines := range []int{64, 256} {
		t.Run(fmt.Sprintf("lines=%d", lines), func(t *testing.T) {
			const tenants = 8
			clk := clock.NewFake(time.Unix(1_700_000_000, 0))
			svc := newTestService(t, Config{
				Shards: 1, LinesPerShard: lines, MaxTenants: tenants,
				Seed: uint64(lines), Clock: clk, SweepBatch: 16,
			})
			o := &slabOracle{t: t, svc: svc, clk: clk, held: map[string]slabVal{}, part: map[int]string{}}
			names := make([]string, tenants)
			for i := range names {
				names[i] = fmt.Sprintf("t%d", i)
				p, err := svc.AddTenant(names[i])
				if err != nil {
					t.Fatal(err)
				}
				o.part[p] = names[i]
			}
			rng := hash.NewRand(uint64(lines) * 2011)
			keysPerTenant := 4 * lines / tenants // 4x capacity: hits and evictions both common
			hits, evicted := 0, 0
			for step := 0; step < 20000; step++ {
				tenant := names[rng.Intn(tenants)]
				k := rng.Intn(keysPerTenant)
				// Key lengths vary so reused key buffers shrink and grow.
				key := fmt.Sprintf("k%d%.*s", k, k%9, "........")
				id := tenant + "/" + key
				held, ok := o.held[id]
				op := ""
				switch r := rng.Intn(100); {
				case r < 40:
					op = "GET " + id
					v, hit, err := svc.Get(tenant, key)
					if err != nil {
						t.Fatal(err)
					}
					if hit && (!ok || o.expired(held) || !bytes.Equal(v, held.val)) {
						t.Fatalf("step %d %s: hit %q; oracle held=%v expired=%v val %q", step, op, v, ok, ok && o.expired(held), held.val)
					}
					if hit {
						hits++
					} else {
						if ok && !o.expired(held) {
							evicted++
						}
						delete(o.held, id) // evicted, expired or never written
					}
				case r < 72:
					val := []byte(fmt.Sprintf("v%d", step))
					ttl := randTTL(rng, 3)
					op = fmt.Sprintf("PUT %s ttl %v", id, ttl)
					if err := svc.PutTTL(tenant, key, val, ttl); err != nil {
						t.Fatal(err)
					}
					nv := slabVal{val: val}
					if ttl > 0 {
						nv.exp = clk.Now().Add(ttl).UnixNano()
					}
					o.held[id] = nv
				case r < 80:
					op = "DEL " + id
					present, err := svc.Delete(tenant, key)
					if err != nil {
						t.Fatal(err)
					}
					if present && !ok {
						t.Fatalf("step %d %s: deleted a key the oracle does not hold", step, op)
					}
					delete(o.held, id)
				case r < 88:
					ttl := randTTL(rng, 2)
					op = fmt.Sprintf("TOUCH %s ttl %v", id, ttl)
					alive, err := svc.Touch(tenant, key, ttl)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case alive && (!ok || o.expired(held)):
						t.Fatalf("step %d %s: touched a key the oracle holds as dead", step, op)
					case alive:
						held.exp = 0
						if ttl > 0 {
							held.exp = clk.Now().Add(ttl).UnixNano()
						}
						o.held[id] = held
					default:
						delete(o.held, id)
					}
				case r < 94:
					d := time.Duration(1+rng.Intn(1500)) * time.Millisecond
					op = fmt.Sprintf("ADVANCE %v", d)
					clk.Advance(d)
				case r < 97:
					op = "SWEEP"
					svc.SweepOnce()
				case r < 99:
					op = "REPARTITION"
					svc.Repartition()
				default:
					op = "TENANT DEL+ADD " + tenant
					if err := svc.RemoveTenant(tenant); err != nil {
						t.Fatal(err)
					}
					for hk := range o.held {
						if strings.HasPrefix(hk, tenant+"/") {
							delete(o.held, hk)
						}
					}
					for p, n := range o.part {
						if n == tenant {
							delete(o.part, p)
						}
					}
					p, err := svc.AddTenant(tenant)
					if err != nil {
						t.Fatal(err)
					}
					o.part[p] = tenant
				}
				o.check(fmt.Sprintf("step %d %s", step, op))
				if got := svc.Stats().StoreEntries; got != svc.shards[0].live {
					t.Fatalf("step %d %s: StoreEntries %d, live records %d", step, op, got, svc.shards[0].live)
				}
			}
			// The stream must have reached every path it is here to check.
			sh := svc.shards[0]
			_, _, relocs := sh.ctl.Array().(*cache.ZCache).Stats()
			t.Logf("%d hits, %d evicted, %d swept, %d lazily expired, %d compactions, %.2f relocations per install",
				hits, evicted, sh.sweepLines, svc.Stats().Expired, sh.compactions, relocs)
			if hits == 0 || evicted == 0 || sh.sweepLines == 0 || svc.Stats().Expired == 0 || sh.compactions == 0 || relocs < 0.5 {
				t.Fatal("stream left a path unexercised")
			}
		})
	}
}

// randTTL draws a TTL for one write in every: half of them expire within
// the run, the other half outlive it, so rewriting their keys leaves stale
// hints for compactHints to clear.
func randTTL(rng *hash.Rand, every int) time.Duration {
	switch rng.Intn(2 * every) {
	case 0:
		return time.Duration(1+rng.Intn(5000)) * time.Millisecond
	case 1:
		return time.Hour + time.Duration(rng.Intn(5000))*time.Millisecond
	}
	return 0
}

// TestPutInsertAllocs pins the PUT path's allocation floor: the value copy
// and nothing else, whether the PUT overwrites a resident key or installs a
// new one over an evicted line (whose record and key buffer it reuses).
func TestPutInsertAllocs(t *testing.T) {
	svc := newTestService(t, Config{Shards: 1, LinesPerShard: 256, MaxTenants: 4, Seed: 11})
	if _, err := svc.AddTenant("alice"); err != nil {
		t.Fatal(err)
	}
	tenant, val := []byte("alice"), []byte("0123456789abcdef")
	// The top bit keeps every key 16 hex digits long, so a reused key buffer
	// always fits.
	var kbuf [16]byte
	key := kbuf[:]
	next := uint64(1) << 63
	insert := func() {
		next++
		key = fmtHex(kbuf[:0], next)
		if err := svc.PutB(tenant, key, val); err != nil {
			t.Fatal(err)
		}
	}
	// Steady state: every slot has held a 16-byte key, every insert evicts.
	for i := 0; i < 8*256; i++ {
		insert()
	}
	before := svc.Stats().StoreEntries
	if got := testing.AllocsPerRun(1000, insert); got != 1 {
		t.Fatalf("evicting insert allocates %.1f times per op, want 1", got)
	}
	if after := svc.Stats().StoreEntries; after != before {
		t.Fatalf("store went from %d to %d entries over 1000 inserts: not evicting", before, after)
	}
	if got := testing.AllocsPerRun(1000, func() {
		if err := svc.PutB(tenant, key, val); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("overwrite allocates %.1f times per op, want 1", got)
	}

	// The same evicting insert through each codec's step of the one
	// connection loop: the request record stays on the stack and the value
	// copy is still the only allocation. Each leg's stream holds 1,001 PUTs
	// of fresh keys, one per run of AllocsPerRun and its warm-up.
	srv := &Server{svc: svc}
	for _, leg := range []struct {
		name string
		text bool
		put  func(dst, key []byte) []byte
	}{
		{"text", true, func(dst, key []byte) []byte {
			return binwire.AppendTextReq(dst, binwire.OpPut, 0, 0, tenant, key, val)
		}},
		{"binary", false, func(dst, key []byte) []byte {
			return binwire.AppendReq(dst, binwire.OpPut, 0, 1, 0, tenant, key, val)
		}},
	} {
		var in []byte
		for i := range 1001 {
			in = leg.put(in, fmtHex(kbuf[:0], next+1+uint64(i)))
		}
		next += 1001
		c := stepConn(srv, leg.text, string(in))
		before := svc.Stats().StoreEntries
		if got := testing.AllocsPerRun(1000, func() {
			c.out = c.out[:0]
			ok := srv.step(c)
			if !ok || string(c.out) != "STORED\r\n" && (c.text || c.out[4] != binwire.StOK) {
				t.Fatalf("%s PUT answered %q", leg.name, c.out)
			}
		}); got != 1 {
			t.Errorf("%s evicting insert allocates %.1f times per op, want 1", leg.name, got)
		}
		if after := svc.Stats().StoreEntries; after != before {
			t.Errorf("%s: store went from %d to %d entries over 1000 inserts: not evicting", leg.name, before, after)
		}
	}
}
