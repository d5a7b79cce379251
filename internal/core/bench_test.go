package core

import (
	"testing"

	"vantage/internal/hash"
)

// BenchmarkControllerMiss times one controller access that misses: the
// zcache walk, the setpoint demotion scan and the install, on Z4/52 with
// 8,192 lines and 4 partitions whose targets cover the managed 90% of the
// lines. The fill of 4 × 8,192 random addresses leaves every partition at
// its target, so each timed access replaces a line as in steady state.
func BenchmarkControllerMiss(b *testing.B) {
	const lines, parts = 8192, 4
	c := newTestController(lines, parts, ModeSetpoint)
	targets := make([]int, parts)
	for p := range targets {
		targets[p] = lines * 9 / 10 / parts
	}
	c.SetTargets(targets)
	rng := hash.NewRand(13)
	for i := 0; i < parts*lines; i++ {
		c.Access(rng.Uint64(), i%parts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(rng.Uint64(), i%parts)
	}
}
