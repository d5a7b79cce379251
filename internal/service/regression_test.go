package service

import (
	"bufio"
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vantage/internal/binwire"
)

// TestDeletedKeyTagAgesOut covers the dead-tag promotion bug: a GET whose tag
// is resident but whose store entry is gone (the key was deleted, or a 40-bit
// address collision with a different key) must NOT refresh the line's
// recency. Before the fix, Get promoted on any tag hit, so a client polling a
// deleted key kept its dead line at top recency forever — the line was never
// demoted, never evicted, and permanently wasted capacity. After the fix the
// dead tag ages out under fill pressure like any cold line.
func TestDeletedKeyTagAgesOut(t *testing.T) {
	svc := newTestService(t, Config{Shards: 1, LinesPerShard: 512, MaxTenants: 2, Seed: 21})
	if _, err := svc.AddTenant("alice"); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 16)
	if err := svc.Put("alice", "victim", val); err != nil {
		t.Fatal(err)
	}

	addr := addrOfB(0, []byte("victim"))
	sh := svc.shards[0]
	tagPresent := func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		_, ok := sh.ctl.Array().Lookup(addr)
		return ok
	}
	if !tagPresent() {
		t.Fatal("victim tag not installed by Put")
	}
	if present, err := svc.Delete("alice", "victim"); err != nil || !present {
		t.Fatalf("Delete = %v, %v", present, err)
	}

	// Poll the deleted key (the pathological client) while filling the shard
	// with fresh keys. The fills must eventually evict the dead tag.
	for i := 0; i < 60000; i++ {
		if _, hit, err := svc.Get("alice", "victim"); err != nil {
			t.Fatal(err)
		} else if hit {
			t.Fatal("Get hit a deleted key")
		}
		if err := svc.Put("alice", "fill-"+strconv.Itoa(i), val); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			svc.Repartition()
		}
		if i%128 == 0 && !tagPresent() {
			return // aged out — recency was not refreshed by the dead-tag polls
		}
	}
	if tagPresent() {
		t.Fatal("deleted key's tag still resident after 60000 fills: polling GETs are keeping a dead line hot")
	}
}

// TestRemoveTenantReservesSlotDuringPurge pins the slot-reservation ordering
// deterministically: while RemoveTenant's purge is still pending (the
// removePurgeHook seam), a concurrent AddTenant must NOT be able to claim the
// departing tenant's partition slot. Before the fix the slot was freed before
// the purge, so the hook's AddTenant succeeded and the purge then deleted the
// new tenant's fresh data.
func TestRemoveTenantReservesSlotDuringPurge(t *testing.T) {
	svc := newTestService(t, Config{Shards: 2, LinesPerShard: 2048, MaxTenants: 1, Seed: 33})
	if _, err := svc.AddTenant("old"); err != nil {
		t.Fatal(err)
	}
	val := []byte("v")
	for i := 0; i < 32; i++ {
		if err := svc.Put("old", "old-"+strconv.Itoa(i), val); err != nil {
			t.Fatal(err)
		}
	}

	claimedDuringPurge := false
	svc.removePurgeHook = func() {
		if _, err := svc.AddTenant("new"); err != nil {
			return // slot still reserved — the fixed behavior
		}
		claimedDuringPurge = true
		if err := svc.Put("new", "fresh", val); err != nil {
			t.Errorf("Put on freshly claimed slot failed: %v", err)
		}
	}
	if err := svc.RemoveTenant("old"); err != nil {
		t.Fatal(err)
	}
	svc.removePurgeHook = nil

	if claimedDuringPurge {
		// Pre-fix interleaving happened: the new tenant's data must have
		// survived the old tenant's purge (it cannot have, which is the bug).
		if _, hit, err := svc.Get("new", "fresh"); err != nil {
			t.Fatal(err)
		} else if !hit {
			t.Fatal("AddTenant claimed the slot mid-removal and the old tenant's purge deleted its fresh data")
		}
		return
	}
	// Fixed behavior: the slot opened only after cleanup; a new tenant now
	// registers cleanly and keeps its data.
	if _, err := svc.AddTenant("new"); err != nil {
		t.Fatalf("AddTenant after removal completed: %v", err)
	}
	if err := svc.Put("new", "fresh", val); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := svc.Get("new", "fresh"); err != nil || !hit {
		t.Fatalf("Get after clean claim = hit %v, err %v", hit, err)
	}
}

// TestTenantChurnRace covers the RemoveTenant slot-reuse race: removal must
// keep the partition slot reserved until the store purge and UMON reset
// finish. Before the fix the slot was freed first, so a concurrent AddTenant
// could claim it and have its fresh data purged by the old tenant's cleanup —
// observed here as a Get miss immediately after a successful Put. Run with
// -race to also catch the ordering at the memory level.
func TestTenantChurnRace(t *testing.T) {
	svc := newTestService(t, Config{Shards: 2, LinesPerShard: 2048, MaxTenants: 1, Seed: 33})
	const iters = 400
	val := []byte("fresh")
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			key := "k-" + name
			for i := 0; i < iters; i++ {
				// Both goroutines contend for the single partition slot;
				// "tenant limit reached" means the other tenant holds it (or,
				// post-fix, its removal is still purging) — retry.
				for {
					if _, err := svc.AddTenant(name); err == nil {
						break
					}
					runtime.Gosched()
				}
				if err := svc.Put(name, key, val); err != nil {
					t.Errorf("iter %d: Put(%s) failed: %v", i, name, err)
					return
				}
				if _, hit, err := svc.Get(name, key); err != nil {
					t.Errorf("iter %d: Get(%s) failed: %v", i, name, err)
					return
				} else if !hit {
					t.Errorf("iter %d: tenant %s lost its fresh Put — a concurrent removal purged the reused slot", i, name)
					return
				}
				if err := svc.RemoveTenant(name); err != nil {
					t.Errorf("iter %d: RemoveTenant(%s) failed: %v", i, name, err)
					return
				}
			}
		}(name)
	}
	wg.Wait()
}

// TestGetHitZeroAllocs locks in the allocation-free steady-state GET path: a
// hit must not allocate — no value copy (the stored slice is returned), no
// key conversions, no boxing on the controller or UMON paths.
func TestGetHitZeroAllocs(t *testing.T) {
	svc := newTestService(t, Config{Shards: 4, LinesPerShard: 1024, MaxTenants: 4, Seed: 7})
	if _, err := svc.AddTenant("alice"); err != nil {
		t.Fatal(err)
	}
	// A []byte(key) conversion stays on the stack only up to 32 bytes, so the
	// string-keyed API is checked past that too.
	for _, key := range []string{"hotkey", strings.Repeat("k", 200)} {
		if err := svc.Put("alice", key, []byte("hotvalue")); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			_, hit, err := svc.Get("alice", key)
			if err != nil || !hit {
				t.Fatalf("Get = hit %v, err %v", hit, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Get hit on a %d-byte key allocates %.1f times per op, want 0", len(key), allocs)
		}
	}

	// The same hit through each codec, which decodes into a request record
	// that must stay on the stack: a text GET through dispatch, a binary GET
	// and a 32-key BMGET through binExec.
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = "hot" + strconv.Itoa(i)
		if err := svc.Put("alice", keys[i], []byte("hotvalue")); err != nil {
			t.Fatal(err)
		}
	}
	srv := &Server{svc: svc}
	cs := &connState{}
	var text bytes.Buffer
	w := bufio.NewWriter(&text)
	line := []byte("GET alice hot0")
	bc := &binConn{}
	get := binFrame(binwire.OpGet, 0, 1, 0, "alice", "hot0", "")[4:]
	bmget := bmFrame(2, "alice", keys...)[4:]
	for _, leg := range []struct {
		name string
		runs int
		op   func()
	}{
		{"text GET", 1000, func() {
			text.Reset()
			if quit, err := srv.dispatch(line, nil, w, cs); quit || err != nil {
				t.Fatalf("dispatch: quit %v err %v", quit, err)
			}
			w.Flush()
			if !bytes.Equal(text.Bytes(), []byte("VALUE 8\r\nhotvalue\r\n")) {
				t.Fatalf("text GET answered %q", text.Bytes())
			}
		}},
		{"binary GET", 1000, func() {
			bc.out = bc.out[:0]
			if err := srv.binExec(bc, get); err != nil || bc.out[4] != binwire.StOK {
				t.Fatalf("binary GET: err %v reply %q", err, bc.out)
			}
		}},
		{"32-key BMGET", 100, func() {
			bc.out = bc.out[:0]
			if err := srv.binExec(bc, bmget); err != nil || bc.out[4] != binwire.StOK {
				t.Fatalf("BMGET: err %v reply %q", err, bc.out)
			}
			p := bc.out[4+binwire.RespHdr+2:]
			for range keys {
				if p[0] != binwire.StOK {
					t.Fatalf("BMGET key missed: reply %q", bc.out)
				}
				p = p[5+binLE.Uint32(p[1:5]):]
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(leg.runs, leg.op); allocs != 0 {
			t.Errorf("%s hit allocates %.1f times per op, want 0", leg.name, allocs)
		}
	}
}
