package exp

import (
	"strings"
	"testing"

	"vantage/internal/sim"
)

func TestSpeedupMetrics(t *testing.T) {
	cores := []sim.CoreStats{{IPC: 0.5}, {IPC: 0.25}}
	solo := []float64{1.0, 0.5}
	ws, hs := speedupMetrics(cores, solo)
	if ws != 1.0 { // 0.5 + 0.5
		t.Fatalf("weighted = %v", ws)
	}
	if hs != 0.5 { // harmonic mean of {0.5, 0.5}
		t.Fatalf("harmonic = %v", hs)
	}
}

func TestSpeedupMetricsSkipsZeroSolo(t *testing.T) {
	cores := []sim.CoreStats{{IPC: 0.5}, {IPC: 0.25}}
	solo := []float64{1.0, 0}
	ws, _ := speedupMetrics(cores, solo)
	if ws != 0.5 {
		t.Fatalf("weighted with zero solo = %v", ws)
	}
	ws, hs := speedupMetrics(nil, nil)
	if ws != 0 || hs != 0 {
		t.Fatal("empty metrics not zero")
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean([]float64{2, 8}); g != 4 {
		t.Fatalf("geoMean = %v", g)
	}
	if g := geoMean(nil); g != 0 {
		t.Fatalf("empty geoMean = %v", g)
	}
}

func TestRunFairnessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 30_000, 30_000
	calls := 0
	r := RunFairness(m, LRUBaseline(), []Scheme{DefaultVantageScheme()}, 3,
		func(done, total int) { calls++ })
	if len(r.MixIDs) != 3 || len(r.Schemes) != 1 {
		t.Fatalf("shape: %d mixes %d schemes", len(r.MixIDs), len(r.Schemes))
	}
	if calls == 0 {
		t.Fatal("no progress callbacks")
	}
	if len(r.WeightedSpeedup[0]) != 3 || len(r.HarmonicSpeedup[0]) != 3 {
		t.Fatal("metric vectors wrong length")
	}
	for _, v := range r.WeightedSpeedup[0] {
		if v <= 0 {
			t.Fatalf("non-positive weighted speedup %v", v)
		}
	}
	if !strings.Contains(r.Table(), "weighted-speedup") {
		t.Fatal("fairness table incomplete")
	}
}

// TestRunFairnessSelfIsOne: a scheme compared with itself scores exactly 1
// on every mix. Apps are stateful generators, so this holds only if every
// run reads its mix's streams from reference zero instead of continuing
// where an earlier run stopped.
func TestRunFairnessSelfIsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 30_000, 30_000
	r := RunFairness(m, LRUBaseline(), []Scheme{LRUBaseline()}, 3, nil)
	if len(r.MixIDs) != 3 {
		t.Fatalf("%d mixes, want 3", len(r.MixIDs))
	}
	for i, id := range r.MixIDs {
		if ws, hs := r.WeightedSpeedup[0][i], r.HarmonicSpeedup[0][i]; ws != 1 || hs != 1 {
			t.Errorf("%s: LRU vs itself: weighted %v, harmonic %v, want exactly 1", id, ws, hs)
		}
	}
}
