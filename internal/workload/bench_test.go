package workload

import "testing"

// benchApp builds the benchmark generator: a Zipf app shaped like a cache-
// friendly Table 3 draw (Zipf rank + geometric gap per reference), which is
// the dominant generator in mix streams.
func benchApp() App { return NewZipfApp(Friendly, 64<<10, 0.9, 3, 2, 42) }

// BenchmarkWorkloadGenLive measures per-call live generation: one Next per
// reference (the pre-memoization harness path).
func BenchmarkWorkloadGenLive(b *testing.B) {
	app := benchApp()
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		g, a := app.Next()
		sink += uint64(g) + a
	}
	_ = sink
}

// BenchmarkWorkloadGenBatched measures batched live generation: chunk-sized
// NextBatch calls.
func BenchmarkWorkloadGenBatched(b *testing.B) {
	app := benchApp().(BatchApp)
	gaps := make([]int32, chunkRefs)
	addrs := make([]uint64, chunkRefs)
	b.ReportAllocs()
	for done := 0; done < b.N; done += chunkRefs {
		n := min(b.N-done, chunkRefs)
		app.NextBatch(gaps[:n], addrs[:n])
	}
}

// BenchmarkWorkloadGenRead measures what the post-L1 recorder pays per
// reference: RefReader.Next over a batched generator.
func BenchmarkWorkloadGenRead(b *testing.B) {
	r := NewRefReader(benchApp())
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		g, a := r.Next()
		sink += uint64(g) + a
	}
	_ = sink
}
