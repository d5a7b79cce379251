package service

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/hash"
)

// BenchmarkShardedAccess measures concurrent ops/sec of the sharded access
// path (Get/Put through the Vantage controllers, no network) at 1, 4, and 16
// goroutines. Each goroutine is its own tenant with a zipf working set, the
// mix is ~90% GET / 10% PUT plus fills on misses — roughly the loadgen mix.
func BenchmarkShardedAccess(b *testing.B) {
	for _, gs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", gs), func(b *testing.B) {
			svc, err := New(Config{Shards: 4, LinesPerShard: 4096, MaxTenants: 16, Seed: 77})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			total := svc.TotalLines()
			tenants := min(gs, 16)
			for i := 0; i < tenants; i++ {
				if _, err := svc.AddTenant(fmt.Sprintf("t%d", i)); err != nil {
					b.Fatal(err)
				}
			}

			// Pre-warm so the benchmark measures steady state, not cold fills.
			warm := driver{svc: svc, tenant: "t0", app: newZipfDriver(total, 1)}
			for i := 0; i < 20000; i++ {
				if err := warm.step(); err != nil {
					b.Fatal(err)
				}
			}
			svc.Repartition()

			var ops atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / gs
			if per == 0 {
				per = 1
			}
			for g := 0; g < gs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					tenant := fmt.Sprintf("t%d", g%tenants)
					app := newZipfDriver(total, uint64(g+2))
					rng := hash.NewRand(uint64(g + 100))
					val := make([]byte, 64)
					var key [16]byte
					for i := 0; i < per; i++ {
						_, addr := app.Next()
						n := fmtHex(key[:0], addr)
						k := string(n)
						if rng.Intn(10) == 0 {
							if err := svc.Put(tenant, k, val); err != nil {
								b.Error(err)
								return
							}
							ops.Add(1)
							continue
						}
						_, hit, err := svc.Get(tenant, k)
						if err != nil {
							b.Error(err)
							return
						}
						ops.Add(1)
						if !hit {
							if err := svc.Put(tenant, k, val); err != nil {
								b.Error(err)
								return
							}
							ops.Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(ops.Load())/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}

// BenchmarkBinaryConns sweeps the binary transport over connection count:
// N connections on a 4-shard service, each pipelining 32 GETs over resident
// keys per round trip. One op is one GET frame; it reports aggregate ops/s
// and the round trip's p50.
func BenchmarkBinaryConns(b *testing.B) {
	const batch, resident = 32, 1024
	for _, conns := range []int{1, 2, 8, 64} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			svc, err := New(Config{Shards: 4, LinesPerShard: 8192, Seed: 26})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			if _, err := svc.AddTenant("hot"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < resident; i++ {
				svc.Put("hot", fmt.Sprintf("k%04d", i), []byte("resident-value"))
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := Serve(svc, lis)
			defer srv.Close()

			trips := (b.N + conns*batch - 1) / (conns * batch)
			rtts := make([][]time.Duration, conns)
			clients := make([]net.Conn, conns)
			reqs := make([][]byte, conns)
			for i := range clients {
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				ack := make([]byte, 4)
				if _, err := conn.Write([]byte{binwire.Magic, 'V', 'B', binwire.Version}); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(conn, ack); err != nil {
					b.Fatal(err)
				}
				clients[i] = conn
				for j := 0; j < batch; j++ {
					key := fmt.Sprintf("k%04d", (i*batch+j)%resident)
					reqs[i] = append(reqs[i], binFrame(binwire.OpGet, 0, uint32(j), 0, "hot", key, "")...)
				}
				rtts[i] = make([]time.Duration, 0, trips)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := range clients {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					r := bufio.NewReader(clients[i])
					hdr := make([]byte, 4+binwire.RespHdr)
					for n := 0; n < trips; n++ {
						t0 := time.Now()
						if _, err := clients[i].Write(reqs[i]); err != nil {
							b.Error(err)
							return
						}
						for j := 0; j < batch; j++ {
							if _, err := io.ReadFull(r, hdr); err != nil {
								b.Error(err)
								return
							}
							if hdr[4] != binwire.StOK {
								b.Errorf("GET status %d", hdr[4])
								return
							}
							r.Discard(int(binary.LittleEndian.Uint32(hdr)) - binwire.RespHdr)
						}
						rtts[i] = append(rtts[i], time.Since(t0))
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			var all []time.Duration
			for _, r := range rtts {
				all = append(all, r...)
			}
			slices.Sort(all)
			b.ReportMetric(float64(trips*conns*batch)/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(all[len(all)/2])/1e3, "rtt_p50_us")
		})
	}
}

// fmtHex appends addr in lowercase hex to dst (avoids strconv allocation in
// the hot benchmark loop).
func fmtHex(dst []byte, addr uint64) []byte {
	const digits = "0123456789abcdef"
	if addr == 0 {
		return append(dst, '0')
	}
	var buf [16]byte
	i := len(buf)
	for addr > 0 {
		i--
		buf[i] = digits[addr&0xf]
		addr >>= 4
	}
	return append(dst, buf[i:]...)
}

// newMixGeometry returns a service at the benchmark's svc-mix geometry
// (4 shards x 8192 lines, four tenants) filled to steady state: every slot
// has held a 16-byte key (the top bit fixes fmtHex's width), so each further
// insert evicts and reuses a key buffer.
func newMixGeometry(b *testing.B) (*Service, [4][]byte) {
	svc, err := New(Config{Shards: 4, LinesPerShard: 8192, Seed: 2011})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	tenants := [4][]byte{[]byte("friendly"), []byte("fitting"), []byte("thrash"), []byte("insens")}
	for _, t := range tenants {
		if _, err := svc.AddTenant(string(t)); err != nil {
			b.Fatal(err)
		}
	}
	var key [16]byte
	val := make([]byte, 64)
	for i := 0; i < 4*svc.TotalLines(); i++ {
		if err := svc.PutB(tenants[i&3], fmtHex(key[:0], 1<<63|uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	svc.Repartition()
	return svc, tenants
}

// BenchmarkPutInsert measures an evicting insert: controller miss, zcache
// walk, demotion scan, and the record write in the slot the walk freed.
func BenchmarkPutInsert(b *testing.B) {
	svc, tenants := newMixGeometry(b)
	var key [16]byte
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.PutB(tenants[i&3], fmtHex(key[:0], 3<<62|uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetMiss measures a GET for a key that was never stored: one
// zcache lookup that finds no tag, plus the UMON access.
func BenchmarkGetMiss(b *testing.B) {
	svc, tenants := newMixGeometry(b)
	var key [16]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := svc.GetB(tenants[i&3], fmtHex(key[:0], 3<<62|uint64(i))); err != nil || hit {
			b.Fatalf("GetB = hit %v, err %v", hit, err)
		}
	}
}
