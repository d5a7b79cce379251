package workload

import (
	"testing"

	"vantage/internal/hash"
)

// chunkRefs is a batch size larger than any reader's buffer, so that the
// batched draws below cross many buffer refills.
const chunkRefs = 1 << 14

// testApps enumerates one factory per generator kind plus one per Table 3
// category (the latter via NewApp, exactly as mixes build them). Each factory
// is deterministic: calling it twice yields identical streams.
func testApps() map[string]func() App {
	apps := map[string]func() App{
		"zipf":   func() App { return NewZipfApp(Friendly, 3000, 0.9, 3, 2, 42) },
		"scan":   func() App { return NewScanApp(Thrashing, 5000, 2, 2, 77) },
		"stream": func() App { return NewStreamApp(1<<14, 2, 2, 99) },
		"phased": func() App {
			return NewPhasedApp(
				NewZipfApp(Fitting, 2000, 1.0, 3, 4, 5),
				NewZipfApp(Fitting, 6000, 1.0, 3, 4, 6),
				1000)
		},
	}
	for cat := Insensitive; cat <= Thrashing; cat++ {
		cat := cat
		apps["cat-"+cat.String()] = func() App {
			return NewApp(cat, Params{CacheLines: 4096, PhasedFraction: 0.5}, hash.NewRand(uint64(cat)*13+7))
		}
	}
	return apps
}

func drawSeq(app App, n int) ([]int, []uint64) {
	gaps := make([]int, n)
	addrs := make([]uint64, n)
	for i := range gaps {
		gaps[i], addrs[i] = app.Next()
	}
	return gaps, addrs
}

func checkSeq(t *testing.T, name string, app App, gaps []int, addrs []uint64) {
	t.Helper()
	for i := range gaps {
		g, a := app.Next()
		if g != gaps[i] || a != addrs[i] {
			t.Fatalf("%s: draw %d: got (%d,%d), want (%d,%d)", name, i, g, a, gaps[i], addrs[i])
		}
	}
}

// TestBatchMatchesNext pins the batched generation path draw-for-draw
// against the per-call path, across uneven batch sizes and interleaved
// Next/NextBatch use, for every generator kind and Table 3 category.
func TestBatchMatchesNext(t *testing.T) {
	const n = 3*chunkRefs + 17
	for name, mk := range testApps() {
		t.Run(name, func(t *testing.T) {
			gaps, addrs := drawSeq(mk(), n)

			batched := mk()
			b, ok := batched.(BatchApp)
			if !ok {
				t.Fatalf("%T does not implement BatchApp", batched)
			}
			pos := 0
			for _, sz := range []int{1, 7, 64, 1000, chunkRefs, 3} {
				if pos+sz > n {
					break
				}
				bg := make([]int32, sz)
				ba := make([]uint64, sz)
				b.NextBatch(bg, ba)
				for i := 0; i < sz; i++ {
					if int(bg[i]) != gaps[pos+i] || ba[i] != addrs[pos+i] {
						t.Fatalf("batch draw %d: got (%d,%d), want (%d,%d)",
							pos+i, bg[i], ba[i], gaps[pos+i], addrs[pos+i])
					}
				}
				pos += sz
				// Interleave a single Next call between batches.
				if pos < n {
					g, a := batched.Next()
					if g != gaps[pos] || a != addrs[pos] {
						t.Fatalf("interleaved draw %d: got (%d,%d), want (%d,%d)",
							pos, g, a, gaps[pos], addrs[pos])
					}
					pos++
				}
			}
			checkSeq(t, name, batched, gaps[pos:], addrs[pos:])
		})
	}
}

// nextOnly hides an app's bulk paths, leaving Next.
type nextOnly struct{ App }

// packedPrefix hands out an app's first n references packed, a few at a
// time, and then runs dry, so a reader must continue through Next.
type packedPrefix struct {
	App
	refs []uint64
}

func (p *packedPrefix) NextPacked() []uint64 {
	out := p.refs[:min(len(p.refs), 100)]
	p.refs = p.refs[len(out):]
	return out
}

// TestRefReaderMatchesNext pins RefReader draw-for-draw against the app's
// own Next on each of its three paths: NextBatch into its buffer, a packed
// prefix that runs dry mid-stream, and plain Next.
func TestRefReaderMatchesNext(t *testing.T) {
	const n = 3*chunkRefs + 17
	for name, mk := range testApps() {
		t.Run(name, func(t *testing.T) {
			gaps, addrs := drawSeq(mk(), n)
			prefix := make([]uint64, 1234)
			for i := range prefix {
				prefix[i] = uint64(gaps[i])<<32 | addrs[i]
			}
			live := mk()
			drawSeq(live, len(prefix))
			for path, app := range map[string]App{
				"batched": mk(),
				"packed":  &packedPrefix{App: live, refs: prefix},
				"next":    nextOnly{mk()},
			} {
				r := NewRefReader(app)
				for i := range gaps {
					if g, a := r.Next(); g != gaps[i] || a != addrs[i] {
						t.Fatalf("%s draw %d: got (%d,%d), want (%d,%d)", path, i, g, a, gaps[i], addrs[i])
					}
				}
			}
		})
	}
}
