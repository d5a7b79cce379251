package exp

import (
	"os"
	"testing"
)

// BenchmarkFig7Microcosm is a small Fig 7 regeneration (LargeCMP at
// ScaleUnit, 25k-instruction window, 6 mixes), runnable under the profiler
// with `go test -bench Fig7Microcosm -cpuprofile`.
func BenchmarkFig7Microcosm(b *testing.B) {
	m := LargeCMP(ScaleUnit)
	m.InstrLimit = 25_000
	for i := 0; i < b.N; i++ {
		Fig7(m, 6, nil)
	}
}

// BenchmarkFig7Window is one window of the sim-fig7 benchmark workload:
// Fig 7 on LargeCMP at ScaleUnit, 2 mixes, a 25k-instruction window. It is
// the in-package row that attributes simulator gains; compare a change with
// its parent by alternating the two test binaries.
func BenchmarkFig7Window(b *testing.B) {
	m := LargeCMP(ScaleUnit)
	m.InstrLimit = 25_000
	for i := 0; i < b.N; i++ {
		Fig7(m, 2, nil)
	}
}

// TestWarmupSensitivity documents why cache warmup, the single biggest
// wall-clock lever, may not be shortened: Fig 7 gmeans are still converging
// at the configured 250k-instruction warmup, so any cut shifts per-scheme
// results systematically (measured on this configuration: 250k→150k moves
// Vantage's gmean -2.4%, →100k -10%, →60k -34%). Gated behind an env var —
// it runs Fig 7 four times (~3 min) and exists to be rerun when warmup is
// retuned: VANTAGE_WARMUP_SWEEP=1 go test ./internal/exp -run
// TestWarmupSensitivity -v
func TestWarmupSensitivity(t *testing.T) {
	if os.Getenv("VANTAGE_WARMUP_SWEEP") == "" {
		t.Skip("set VANTAGE_WARMUP_SWEEP=1 to run the warmup convergence sweep")
	}
	for _, warm := range []uint64{250_000, 150_000, 100_000, 60_000} {
		m := LargeCMP(ScaleUnit)
		m.InstrLimit = 25_000
		m.WarmupInstr = warm
		r := Fig7(m, 6, nil)
		for _, c := range r.Curves {
			t.Logf("warm=%d scheme=%s gmean=%.5f mean=%.5f", warm, c.Scheme, c.Summary.GeoMean, c.Summary.Mean)
		}
	}
}
