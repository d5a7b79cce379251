package workload

import (
	"math"
	"testing"
)

// fixedApp replays a fixed address sequence.
type fixedApp struct {
	seq []uint64
	pos int
}

func (f *fixedApp) Name() string       { return "fixed" }
func (f *fixedApp) Category() Category { return Friendly }
func (f *fixedApp) Next() (int, uint64) {
	a := f.seq[f.pos%len(f.seq)]
	f.pos++
	return 0, a
}

func TestMissRateCurvePanics(t *testing.T) {
	app := &fixedApp{seq: []uint64{1}}
	for _, f := range []func(){
		func() { MissRateCurve(app, 0, []int{1}) },
		func() { MissRateCurve(app, 10, []int{4, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad input accepted")
				}
			}()
			f()
		}()
	}
}

func TestMissRateCurveCyclicScan(t *testing.T) {
	// Cyclic scan over 8 lines: with LRU, size < 8 gives 100% misses
	// (after compulsory, still 100%); size >= 8 gives hits on every
	// revisit: miss ratio -> 8/n.
	seq := make([]uint64, 8)
	for i := range seq {
		seq[i] = uint64(i + 1)
	}
	app := &fixedApp{seq: seq}
	curve := MissRateCurve(app, 800, []int{4, 7, 8, 16})
	if curve[0] != 1 || curve[1] != 1 {
		t.Fatalf("undersized LRU should miss everything on a cyclic scan: %v", curve)
	}
	want := 8.0 / 800
	if math.Abs(curve[2]-want) > 1e-9 || math.Abs(curve[3]-want) > 1e-9 {
		t.Fatalf("covering sizes should only see compulsory misses: %v", curve)
	}
}

func TestMissRateCurveAlternation(t *testing.T) {
	// Sequence 1,2,1,2,...: stack distance 1 after warmup, so any size >= 2
	// hits everything, size 1 misses everything.
	app := &fixedApp{seq: []uint64{1, 2}}
	curve := MissRateCurve(app, 1000, []int{1, 2})
	if curve[0] != 1 {
		t.Fatalf("size-1 miss ratio %v, want 1", curve[0])
	}
	if math.Abs(curve[1]-2.0/1000) > 1e-9 {
		t.Fatalf("size-2 miss ratio %v, want compulsory only", curve[1])
	}
}

func TestMissRateCurveMonotone(t *testing.T) {
	app := NewZipfApp(Friendly, 2000, 0.7, 0, 1, 9)
	sizes := []int{64, 128, 256, 512, 1024, 2048}
	curve := MissRateCurve(app, 50000, sizes)
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-12 {
			t.Fatalf("MRC not monotone: %v", curve)
		}
	}
	if curve[0] < curve[len(curve)-1]+0.05 {
		t.Fatalf("zipf MRC too flat: %v", curve)
	}
}

// TestMissRateCurveMatchesSimulatedLRU cross-validates the analytic stack
// curve against a brute-force fully-associative LRU simulation.
func TestMissRateCurveMatchesSimulatedLRU(t *testing.T) {
	app := NewZipfApp(Friendly, 500, 0.8, 0, 1, 11)
	ref := NewZipfApp(Friendly, 500, 0.8, 0, 1, 11)
	const n = 20000
	const size = 128
	curve := MissRateCurve(app, n, []int{size})

	// Brute-force LRU of 128 lines.
	type node struct{ prev, next uint64 }
	lastUse := map[uint64]int{}
	clock := 0
	misses := 0
	for i := 0; i < n; i++ {
		_, a := ref.Next()
		if _, ok := lastUse[a]; !ok {
			misses++
			if len(lastUse) >= size {
				// evict least recently used
				victim, oldest := uint64(0), 1<<62
				for line, ts := range lastUse {
					if ts < oldest {
						victim, oldest = line, ts
					}
				}
				delete(lastUse, victim)
			}
		}
		lastUse[a] = clock
		clock++
	}
	_ = node{}
	got := float64(misses) / n
	if math.Abs(curve[0]-got) > 0.01 {
		t.Fatalf("stack curve %v vs simulated LRU %v", curve[0], got)
	}
}

// TestMissRateCurvePinned is a regression fence for the curve values
// themselves: the apps are deterministic, so these exact ratios must never
// drift (any change means the generator or the stack algorithm changed).
func TestMissRateCurvePinned(t *testing.T) {
	sizes := []int{64, 256, 1024, 2048}
	app := NewZipfApp(Friendly, 2000, 0.7, 0, 1, 9)
	got := MissRateCurve(app, 50000, sizes)
	want := []float64{0.84870, 0.64626, 0.27554, 0.04}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("curve drifted at size %d: got %.5f want %.5f (full: %v)",
				sizes[i], got[i], want[i], got)
		}
	}
}

func TestDistanceTrackerBasics(t *testing.T) {
	d := newDistanceTracker()
	if d.access(1) != -1 {
		t.Fatal("first touch should be cold")
	}
	if d.access(2) != -1 || d.access(3) != -1 {
		t.Fatal("cold misses expected")
	}
	// Re-access 1: lines 2 and 3 were touched since -> distance 2.
	if got := d.access(1); got != 2 {
		t.Fatalf("distance = %d, want 2", got)
	}
	// Immediately re-access 1: distance 0.
	if got := d.access(1); got != 0 {
		t.Fatalf("distance = %d, want 0", got)
	}
}
