package part

import (
	"testing"

	"vantage/internal/cache"
	"vantage/internal/hash"
)

func TestApportionWays(t *testing.T) {
	cases := []struct {
		targets []int
		ways    int
		want    []int
	}{
		{[]int{100, 100}, 16, []int{8, 8}},
		{[]int{300, 100}, 16, []int{12, 4}},
		{[]int{0, 0}, 4, []int{2, 2}},
		{[]int{1000, 1, 1, 1}, 16, []int{13, 1, 1, 1}},
		{[]int{1, 1, 1, 1}, 4, []int{1, 1, 1, 1}},
	}
	var a apportioner
	for _, c := range cases {
		got := a.apportion(c.targets, c.ways)
		sum := 0
		for i, w := range got {
			sum += w
			if w != c.want[i] {
				t.Errorf("apportion(%v,%d) = %v, want %v", c.targets, c.ways, got, c.want)
				break
			}
		}
		if sum != c.ways {
			t.Errorf("apportion(%v,%d) sums to %d", c.targets, c.ways, sum)
		}
	}
}

func TestApportionWaysAlwaysSumsAndMinOne(t *testing.T) {
	rng := hash.NewRand(5)
	var a apportioner // reused across sizes, as a controller reuses it
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		ways := n + rng.Intn(49)
		targets := make([]int, n)
		for i := range targets {
			targets[i] = rng.Intn(10000)
		}
		got := a.apportion(targets, ways)
		sum := 0
		for _, w := range got {
			if w < 1 {
				t.Fatalf("partition with %d ways for targets %v", w, targets)
			}
			sum += w
		}
		if sum != ways {
			t.Fatalf("sum %d != %d for targets %v", sum, ways, targets)
		}
	}
}

func TestWayPartitionPanics(t *testing.T) {
	arr := cache.NewSetAssoc(256, 4, true, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("more partitions than ways did not panic")
		}
	}()
	NewWayPartition(arr, 8)
}

func TestWayPartitionRestrictsFills(t *testing.T) {
	arr := cache.NewSetAssoc(1024, 16, true, 2)
	w := NewWayPartition(arr, 4)
	w.SetTargets([]int{256, 256, 256, 256})
	rng := hash.NewRand(7)
	for i := 0; i < 20000; i++ {
		for p := 0; p < 4; p++ {
			w.Access(uint64(p)<<40|uint64(rng.Intn(1000)), p)
		}
	}
	// Every valid line must live in a way owned by its inserting partition.
	for id := 0; id < arr.NumLines(); id++ {
		lid := cache.LineID(id)
		if !arr.Line(lid).Valid {
			continue
		}
		owner := w.partOf[id]
		if owner < 0 {
			t.Fatal("valid line without owner")
		}
		if int(w.wayOf[arr.WayOf(lid)]) != int(owner) {
			t.Fatalf("line of partition %d in way %d owned by %d",
				owner, arr.WayOf(lid), w.wayOf[arr.WayOf(lid)])
		}
	}
}

func TestWayPartitionSizesBoundedByWays(t *testing.T) {
	arr := cache.NewSetAssoc(1024, 16, true, 3)
	w := NewWayPartition(arr, 4)
	w.SetTargets([]int{512, 256, 128, 128})
	if w.WaysOf(0) != 8 || w.WaysOf(1) != 4 || w.WaysOf(2) != 2 || w.WaysOf(3) != 2 {
		t.Fatalf("ways: %d %d %d %d", w.WaysOf(0), w.WaysOf(1), w.WaysOf(2), w.WaysOf(3))
	}
	rng := hash.NewRand(9)
	for i := 0; i < 30000; i++ {
		for p := 0; p < 4; p++ {
			w.Access(uint64(p)<<40|uint64(rng.Intn(4096)), p)
		}
	}
	sets := arr.Sets()
	for p := 0; p < 4; p++ {
		limit := w.WaysOf(p) * sets
		if w.Size(p) > limit {
			t.Fatalf("partition %d holds %d lines, way limit %d", p, w.Size(p), limit)
		}
		// Under streaming traffic each partition should fill its ways.
		if w.Size(p) < limit*9/10 {
			t.Fatalf("partition %d underfilled: %d of %d", p, w.Size(p), limit)
		}
	}
}

func TestWayPartitionIsolationIsStrict(t *testing.T) {
	arr := cache.NewSetAssoc(1024, 16, true, 4)
	w := NewWayPartition(arr, 2)
	w.SetTargets([]int{512, 512})
	rng := hash.NewRand(11)
	// Warm partition 0.
	for i := 0; i < 20000; i++ {
		w.Access(uint64(0)<<40|uint64(rng.Intn(400)), 0)
	}
	size0 := w.Size(0)
	// Thrash partition 1; partition 0 must not lose a single line.
	for i := 0; i < 50000; i++ {
		w.Access(uint64(1)<<40|uint64(i), 1)
	}
	if w.Size(0) != size0 {
		t.Fatalf("way-partitioning leaked: %d -> %d", size0, w.Size(0))
	}
}

func TestWayPartitionRepartitionGradual(t *testing.T) {
	arr := cache.NewSetAssoc(1024, 16, true, 5)
	w := NewWayPartition(arr, 2)
	w.SetTargets([]int{768, 256})
	rng := hash.NewRand(13)
	for i := 0; i < 30000; i++ {
		w.Access(uint64(0)<<40|uint64(rng.Intn(900)), 0)
		w.Access(uint64(1)<<40|uint64(rng.Intn(900)), 1)
	}
	big := w.Size(0)
	// Shrink partition 0 to 4 ways: its lines in reassigned ways are evicted
	// only as partition 1 misses there (the paper's slow-repartition effect).
	w.SetTargets([]int{256, 768})
	if w.Size(0) != big {
		t.Fatal("repartitioning flushed lines immediately")
	}
	for i := 0; i < 30000; i++ {
		w.Access(uint64(0)<<40|uint64(rng.Intn(900)), 0)
		w.Access(uint64(1)<<40|uint64(rng.Intn(900)), 1)
	}
	if w.Size(0) >= big {
		t.Fatal("downsized partition never shrank")
	}
}

func TestPIPPPanics(t *testing.T) {
	arr := cache.NewSetAssoc(256, 4, true, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("more partitions than ways did not panic")
		}
	}()
	NewPIPP(arr, 8, 1)
}

func TestPIPPChainInvariant(t *testing.T) {
	arr := cache.NewSetAssoc(512, 8, true, 6)
	p := NewPIPP(arr, 4, 2)
	p.SetTargets([]int{128, 128, 128, 128})
	rng := hash.NewRand(15)
	for i := 0; i < 20000; i++ {
		for q := 0; q < 4; q++ {
			p.Access(uint64(q)<<40|uint64(rng.Intn(500)), q)
		}
	}
	// chain/pos must stay mutually inverse permutations per set.
	ways := arr.Ways()
	for s := 0; s < arr.Sets(); s++ {
		seen := map[cache.LineID]bool{}
		for k := 0; k < ways; k++ {
			id := p.chain[s*ways+k]
			if arr.SetOf(id) != s {
				t.Fatalf("chain of set %d references line of set %d", s, arr.SetOf(id))
			}
			if int(p.pos[id]) != k {
				t.Fatalf("pos[%d]=%d but chain says %d", id, p.pos[id], k)
			}
			if seen[id] {
				t.Fatalf("line %d appears twice in set %d chain", id, s)
			}
			seen[id] = true
		}
	}
}

func TestPIPPApproximatesAllocations(t *testing.T) {
	arr := cache.NewSetAssoc(2048, 16, true, 7)
	p := NewPIPP(arr, 2, 3)
	p.SetTargets([]int{1536, 512}) // 12 and 4 ways
	if p.InsertPosition(0) != 12 || p.InsertPosition(1) != 4 {
		t.Fatalf("insert positions: %d %d", p.InsertPosition(0), p.InsertPosition(1))
	}
	rng := hash.NewRand(17)
	for i := 0; i < 60000; i++ {
		p.Access(uint64(0)<<40|uint64(rng.Intn(3000)), 0)
		p.Access(uint64(1)<<40|uint64(rng.Intn(3000)), 1)
	}
	s0, s1 := p.Size(0), p.Size(1)
	// PIPP only approximates targets; with equal churn, the partition with
	// the deeper insertion position must end up clearly larger.
	if s0 <= s1 {
		t.Fatalf("deep-insert partition not larger: %d vs %d", s0, s1)
	}
	if s0 < 1024 {
		t.Fatalf("partition 0 too small: %d of target 1536", s0)
	}
}

func TestPIPPStreamDetection(t *testing.T) {
	arr := cache.NewSetAssoc(1024, 16, true, 8)
	p := NewPIPP(arr, 2, 4)
	p.SetTargets([]int{512, 512})
	rng := hash.NewRand(19)
	// Partition 0: hot working set (low miss ratio). Partition 1: stream.
	for i := 0; i < 30000; i++ {
		p.Access(uint64(0)<<40|uint64(rng.Intn(200)), 0)
		p.Access(uint64(1)<<40|uint64(i), 1)
	}
	p.SetTargets([]int{512, 512})
	if p.Streaming(0) {
		t.Fatal("hot partition misclassified as streaming")
	}
	if !p.Streaming(1) {
		t.Fatal("streaming partition not detected")
	}
	if p.InsertPosition(1) != 1 {
		t.Fatalf("streaming partition insert position %d, want 1", p.InsertPosition(1))
	}
}

func TestPIPPVictimIsLRUEnd(t *testing.T) {
	arr := cache.NewSetAssoc(64, 4, false, 0) // unhashed: set = addr % 16
	p := NewPIPP(arr, 2, 5)
	// Fill set 0 from partition 0 (insert depth 2 after even split).
	for i := 0; i < 4; i++ {
		p.Access(uint64(i*16), 0)
	}
	// The next miss to set 0 must evict the chain's LRU head.
	lru := p.chain[0]
	want := arr.Line(lru).Addr
	res := p.Access(uint64(4*16), 0)
	if !res.EvictedValid || res.Evicted != want {
		t.Fatalf("evicted %#x (valid=%v), want LRU %#x", res.Evicted, res.EvictedValid, want)
	}
}

func TestSchemeNames(t *testing.T) {
	arr := cache.NewSetAssoc(256, 4, true, 1)
	if NewWayPartition(arr, 2).Name() != "WayPart" {
		t.Fatal("waypart name")
	}
	if NewPIPP(arr, 2, 1).Name() != "PIPP" {
		t.Fatal("pipp name")
	}
}

// TestPIPPPropertyChainConsistency drives randomized traffic shapes through
// PIPP with repeated repartitioning and checks the chain/pos inverse-
// permutation invariant plus size accounting.
func TestPIPPPropertyChainConsistency(t *testing.T) {
	rng := hash.NewRand(29)
	for trial := 0; trial < 10; trial++ {
		ways := []int{4, 8, 16}[rng.Intn(3)]
		sets := 32 << rng.Intn(3)
		arr := cache.NewSetAssoc(sets*ways, ways, true, rng.Uint64())
		parts := 2 + rng.Intn(ways-1)
		if parts > ways {
			parts = ways
		}
		p := NewPIPP(arr, parts, rng.Uint64())
		for step := 0; step < 5000; step++ {
			q := rng.Intn(parts)
			p.Access(uint64(q)<<40|uint64(rng.Intn(2000)), q)
			if step%1000 == 999 {
				targets := make([]int, parts)
				for i := range targets {
					targets[i] = rng.Intn(sets * ways)
				}
				p.SetTargets(targets)
			}
		}
		// Invariants.
		valid, counted := 0, 0
		for id := 0; id < arr.NumLines(); id++ {
			if arr.Line(cache.LineID(id)).Valid {
				valid++
			}
		}
		for q := 0; q < parts; q++ {
			counted += p.Size(q)
		}
		if valid != counted {
			t.Fatalf("trial %d: valid %d != counted %d", trial, valid, counted)
		}
		for s := 0; s < arr.Sets(); s++ {
			for k := 0; k < ways; k++ {
				id := p.chain[s*ways+k]
				if int(p.pos[id]) != k || arr.SetOf(id) != s {
					t.Fatalf("trial %d: chain/pos inconsistent at set %d", trial, s)
				}
			}
		}
	}
}

// TestWayPartitionPropertySizes randomizes way-partition traffic and
// repartitioning and checks occupancy accounting.
func TestWayPartitionPropertySizes(t *testing.T) {
	rng := hash.NewRand(31)
	for trial := 0; trial < 10; trial++ {
		arr := cache.NewSetAssoc(1024, 16, true, rng.Uint64())
		parts := 2 + rng.Intn(8)
		w := NewWayPartition(arr, parts)
		for step := 0; step < 6000; step++ {
			q := rng.Intn(parts)
			w.Access(uint64(q)<<40|uint64(rng.Intn(3000)), q)
			if step%1500 == 1499 {
				targets := make([]int, parts)
				for i := range targets {
					targets[i] = rng.Intn(1024)
				}
				w.SetTargets(targets)
			}
		}
		valid, counted := 0, 0
		for id := 0; id < arr.NumLines(); id++ {
			if arr.Line(cache.LineID(id)).Valid {
				valid++
			}
		}
		for q := 0; q < parts; q++ {
			counted += w.Size(q)
		}
		if valid != counted {
			t.Fatalf("trial %d: valid %d != counted %d", trial, valid, counted)
		}
	}
}
