package ucp

import (
	"slices"
	"testing"

	"vantage/internal/hash"
)

func TestNewUMONPanics(t *testing.T) {
	cases := []struct{ ways, sets, bits int }{
		{0, 64, 5}, {maxWays + 1, 64, 5}, {16, 0, 5}, {16, 63, 5}, {16, 64, -1}, {16, 64, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewUMON(%d,%d,%d) did not panic", c.ways, c.sets, c.bits)
				}
			}()
			NewUMON(c.ways, c.sets, c.bits, 1)
		}()
	}
}

func TestUMONHitCurveSmallWorkingSet(t *testing.T) {
	// Sample everything (ratioBits=0) so the estimates are exact. A working
	// set that fits in 4 ways should show no extra hits beyond depth ~4.
	u := NewUMON(16, 64, 64, 7)
	rng := hash.NewRand(3)
	// 128 distinct lines over 64 sets -> about 2 lines per set.
	for i := 0; i < 100000; i++ {
		u.Access(uint64(rng.Intn(128)))
	}
	hc := u.HitCurve()
	if hc[16] == 0 {
		t.Fatal("no hits recorded")
	}
	// Monotone non-decreasing.
	for w := 1; w <= 16; w++ {
		if hc[w] < hc[w-1] {
			t.Fatalf("hit curve decreases at %d", w)
		}
	}
	// Nearly all hits should come from the first few stack positions.
	if float64(hc[8]) < 0.99*float64(hc[16]) {
		t.Fatalf("deep stack hits for a tiny working set: %v", hc)
	}
}

func TestUMONMissCurveStream(t *testing.T) {
	u := NewUMON(16, 64, 64, 9)
	for i := 0; i < 200000; i++ {
		u.Access(uint64(i)) // pure stream: never hits
	}
	mc := u.MissCurve()
	if mc[0] == 0 {
		t.Fatal("no misses recorded")
	}
	if mc[16] != mc[0] {
		t.Fatalf("stream shows utility: %v", mc)
	}
}

func TestUMONSamplingReducesAccesses(t *testing.T) {
	full := NewUMON(16, 2048, 2048, 11)
	sampled := NewUMON(16, 2048, 64, 11)
	for i := 0; i < 100000; i++ {
		full.Access(uint64(i))
		sampled.Access(uint64(i))
	}
	if sampled.Accesses() == 0 {
		t.Fatal("sampling filtered everything")
	}
	ratio := float64(sampled.Accesses()) / float64(full.Accesses())
	if ratio < 0.02 || ratio > 0.05 {
		t.Fatalf("sampling ratio %.4f, want ~1/32", ratio)
	}
}

func TestUMONAccessMixedMatchesAccess(t *testing.T) {
	// AccessMixed with the caller-computed Mix64 must be observationally
	// identical to Access: same sampling decisions, same hit curve.
	a := NewUMON(16, 2048, 64, 17)
	b := NewUMON(16, 2048, 64, 17)
	for i := 0; i < 50000; i++ {
		addr := hash.Mix64(uint64(i)) % 4096
		a.Access(addr)
		b.AccessMixed(addr, hash.Mix64(addr))
	}
	if a.Accesses() != b.Accesses() {
		t.Fatalf("sampled access counts differ: %d vs %d", a.Accesses(), b.Accesses())
	}
	ca, cb := a.HitCurve(), b.HitCurve()
	for w := range ca {
		if ca[w] != cb[w] {
			t.Fatalf("hit curves differ at way %d: %d vs %d", w, ca[w], cb[w])
		}
	}
}

// TestUMONObserveCountMatchesAccess is the contract that lets one monitor
// observe a stream and another count its codes: over random streams with
// Decay and Reset interleaved, a monitor fed by AccessMixed and one that only
// Counts a twin's Observe codes agree on every curve after every step. The
// streams include addresses that share a decision-memo slot, and one
// geometry sits at maxWays with every address in one set, so the deepest
// stack hit produces the largest code.
func TestUMONObserveCountMatchesAccess(t *testing.T) {
	// colliding returns n addresses that share decision-memo slot slot.
	colliding := func(slot, n int) []uint64 {
		var out []uint64
		for a := uint64(1); len(out) < n; a++ {
			if int(hash.Mix64(a))&decMask == slot {
				out = append(out, a)
			}
		}
		return out
	}
	for _, c := range []struct {
		name                 string
		ways, sets, sampled  int
		pool                 []uint64
		deepest, decayPeriod int
	}{
		{"sampled", 16, 2048, 64, append(colliding(7, 40), colliding(300, 40)...), 0, 997},
		{"all-sampled", 8, 64, 64, colliding(11, 600), 0, 501},
		{"max-ways", maxWays, 1, 1, colliding(5, maxWays+8), maxWays - 1, 4001},
	} {
		fed := NewUMON(c.ways, c.sets, c.sampled, 31)
		observer := NewUMON(c.ways, c.sets, c.sampled, 31)
		counter := NewUMON(c.ways, c.sets, c.sampled, 31)
		if observer.Spec() != counter.Spec() {
			t.Fatalf("%s: equal geometries give specs %+v and %+v", c.name, observer.Spec(), counter.Spec())
		}
		rng := hash.NewRand(uint64(len(c.pool)))
		deepest := uint8(0)
		for step := 1; step <= 30000; step++ {
			var addr uint64
			if c.deepest > 0 {
				addr = c.pool[step%(c.deepest+1)] // a cycle of ways lines hits at the last slot
			} else {
				addr = c.pool[rng.Intn(len(c.pool))]
			}
			mixed := hash.Mix64(addr)
			fed.AccessMixed(addr, mixed)
			code := observer.Observe(addr, mixed)
			counter.Count(code)
			deepest = max(deepest, code)
			switch {
			case step%c.decayPeriod == 0:
				fed.Decay()
				counter.Decay()
			case step%(7*c.decayPeriod) == 3:
				fed.Reset()
				observer.Reset()
				counter.Reset()
			}
			if !slices.Equal(fed.HitCurve(), counter.HitCurve()) ||
				!slices.Equal(fed.MissCurve(), counter.MissCurve()) ||
				fed.Accesses() != counter.Accesses() {
				t.Fatalf("%s: step %d: counted monitor diverges:\n fed %v %v %d\n got %v %v %d", c.name, step,
					fed.HitCurve(), fed.MissCurve(), fed.Accesses(),
					counter.HitCurve(), counter.MissCurve(), counter.Accesses())
			}
		}
		if c.deepest > 0 && deepest != CodeHit+uint8(c.deepest) {
			t.Errorf("%s: deepest code %d, want %d", c.name, deepest, CodeHit+uint8(c.deepest))
		}
		if counter.dec != nil || counter.tags != nil || counter.h != nil {
			t.Errorf("%s: a monitor that only counts built its tag directory", c.name)
		}
	}
}

func TestUMONDecay(t *testing.T) {
	u := NewUMON(4, 64, 64, 13)
	for i := 0; i < 1000; i++ {
		u.Access(uint64(i % 10))
	}
	before := u.HitCurve()[4]
	u.Decay()
	after := u.HitCurve()[4]
	if after > before/2+4 || after < before/2-4 {
		t.Fatalf("decay: %d -> %d", before, after)
	}
}

func TestLookaheadFavorsHighUtility(t *testing.T) {
	// Partition 0 gains 100 hits/unit up to 8 units; partition 1 gains 10.
	mk := func(slope float64, knee int, units int) []float64 {
		c := make([]float64, units+1)
		for i := 1; i <= units; i++ {
			if i <= knee {
				c[i] = c[i-1] + slope
			} else {
				c[i] = c[i-1]
			}
		}
		return c
	}
	curves := [][]float64{mk(100, 8, 16), mk(10, 16, 16)}
	alloc := Lookahead(curves, 16, 1)
	if alloc[0] != 8 || alloc[1] != 8 {
		t.Fatalf("alloc = %v, want [8 8]", alloc)
	}
}

func TestLookaheadSeesPastPlateaus(t *testing.T) {
	// Cache-fitting shape: no utility until 12 units, then a cliff of 1000
	// hits. Greedy per-unit allocation would never get there; lookahead must.
	cliff := make([]float64, 17)
	for i := 12; i <= 16; i++ {
		cliff[i] = 1000
	}
	gentle := make([]float64, 17)
	for i := 1; i <= 16; i++ {
		gentle[i] = gentle[i-1] + 20 // 320 total
	}
	alloc := Lookahead([][]float64{cliff, gentle}, 16, 1)
	if alloc[0] < 12 {
		t.Fatalf("lookahead missed the cliff: %v", alloc)
	}
}

func TestLookaheadExhaustsUnits(t *testing.T) {
	flat := make([]float64, 9)
	alloc := Lookahead([][]float64{flat, flat, flat}, 24, 1)
	sum := 0
	for _, a := range alloc {
		if a < 1 {
			t.Fatalf("allocation below minimum: %v", alloc)
		}
		sum += a
	}
	if sum != 24 {
		t.Fatalf("allocated %d of 24 units: %v", sum, alloc)
	}
}

func TestLookaheadPanicsWhenInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible minPer did not panic")
		}
	}()
	Lookahead([][]float64{{0, 1}, {0, 1}}, 1, 1)
}

func TestInterpolateCurve(t *testing.T) {
	curve := []uint64{0, 10, 20, 30, 40}
	out := InterpolateCurve(curve, 8)
	if len(out) != 9 {
		t.Fatalf("len = %d", len(out))
	}
	want := []float64{0, 5, 10, 15, 20, 25, 30, 35, 40}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestInterpolateCurvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad input did not panic")
		}
	}()
	InterpolateCurve([]uint64{5}, 8)
}

func TestPolicyAllocatesTowardsUtility(t *testing.T) {
	for _, gran := range []Granularity{GranWays, GranLines} {
		p := NewPolicy(2, 16, 4096, gran, 5)
		rng := hash.NewRand(17)
		// Partition 0 reuses heavily; partition 1 streams.
		for i := 0; i < 400000; i++ {
			p.Access(0, uint64(rng.Intn(256)))
			p.Access(1, uint64(1)<<40|uint64(i))
		}
		alloc := p.Allocate(4096)
		if alloc[0]+alloc[1] != 4096 {
			t.Fatalf("gran %v: allocations sum to %d", gran, alloc[0]+alloc[1])
		}
		if alloc[0] <= alloc[1] {
			t.Fatalf("gran %v: reuse partition got %v", gran, alloc)
		}
	}
}

func TestPolicyLineGranularityIsFiner(t *testing.T) {
	// With line granularity, allocations need not be multiples of a way's
	// worth of lines. Construct asymmetric utility and check granularity.
	pw := NewPolicy(2, 4, 4096, GranWays, 7)
	pl := NewPolicy(2, 4, 4096, GranLines, 7)
	rng := hash.NewRand(19)
	for i := 0; i < 200000; i++ {
		a0 := uint64(rng.Intn(300))
		a1 := uint64(1)<<40 | uint64(rng.Intn(150))
		pw.Access(0, a0)
		pw.Access(1, a1)
		pl.Access(0, a0)
		pl.Access(1, a1)
	}
	aw := pw.Allocate(4096)
	al := pl.Allocate(4096)
	wayLines := 4096 / 4
	if aw[0]%wayLines != 0 {
		t.Fatalf("way-granular allocation not a multiple of way size: %v", aw)
	}
	_ = al // line-granular allocations are unconstrained; just must sum
	if al[0]+al[1] != 4096 {
		t.Fatalf("line allocations sum to %d", al[0]+al[1])
	}
}

func TestPolicyMinimumOneUnitEach(t *testing.T) {
	p := NewPolicy(4, 16, 1024, GranWays, 9)
	// Only partition 0 has any utility.
	rng := hash.NewRand(23)
	for i := 0; i < 100000; i++ {
		p.Access(0, uint64(rng.Intn(100)))
	}
	alloc := p.Allocate(1024)
	for i, a := range alloc {
		if a < 1024/16 {
			t.Fatalf("partition %d got %d lines, below one way's worth: %v", i, a, alloc)
		}
	}
}
