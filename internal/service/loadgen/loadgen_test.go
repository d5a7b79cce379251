package loadgen

import (
	"errors"
	"net"
	"testing"
	"time"

	"vantage/internal/clock"
	"vantage/internal/service"
	"vantage/internal/workload"
)

// newBenchServer self-hosts a fresh service+server for one subtest so runs
// are deterministic and isolated.
func newBenchServer(t *testing.T, cfg service.ServerConfig) (addr string) {
	t.Helper()
	return newBenchServerAt(t, cfg, nil)
}

// newBenchServerAt is newBenchServer on clk (nil: the system clock).
func newBenchServerAt(t *testing.T, cfg service.ServerConfig, clk clock.Clock) (addr string) {
	t.Helper()
	svc, err := service.New(service.Config{
		Shards:        2,
		LinesPerShard: 1024,
		MaxTenants:    4,
		Seed:          2011,
		Clock:         clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := service.ServeWith(svc, lis, cfg)
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv.Addr().String()
}

func benchTenants() []Tenant {
	return []Tenant{{
		Name:  "t",
		Conns: 1,
		MakeApp: func(conn int) workload.App {
			return CategoryApp(workload.Friendly, 2048, 7)
		},
	}}
}

// TestBinaryMatchesText runs the identical single-connection deterministic
// workload through the text and the binary client against fresh servers and
// requires identical per-tenant results: the binary protocol must be a pure
// transport change, invisible to cache behavior.
func TestBinaryMatchesText(t *testing.T) {
	for _, batch := range []int{1, 8} {
		run := func(bin, bmget bool) Result {
			res, err := Run(Options{
				Addr:       newBenchServer(t, service.ServerConfig{}),
				Tenants:    benchTenants(),
				OpsPerConn: 3000,
				ValueSize:  32,
				Batch:      batch,
				Binary:     bin,
				BMGet:      bmget,
			})
			if err != nil {
				t.Fatalf("batch=%d binary=%v bmget=%v: %v", batch, bin, bmget, err)
			}
			return res
		}
		text := run(false, false)
		tt := text.Tenants[0]
		for _, mode := range []struct {
			name  string
			bmget bool
		}{{"binary", false}, {"bmget", true}} {
			bt := run(true, mode.bmget).Tenants[0]
			if tt.Gets != bt.Gets || tt.Hits != bt.Hits || tt.Misses != bt.Misses || tt.Puts != bt.Puts {
				t.Fatalf("batch=%d: text %+v != %s %+v", batch, tt, mode.name, bt)
			}
			if bt.Gets != 3000 {
				t.Fatalf("batch=%d %s: did %d gets, want full 3000 budget", batch, mode.name, bt.Gets)
			}
			if bt.Hits == 0 || bt.Puts == 0 {
				t.Fatalf("batch=%d %s: degenerate run %+v", batch, mode.name, bt)
			}
		}
	}
}

// TestBinaryTTLFills checks the TTL flag path end-to-end: a tenant's
// TTL-carrying fills must actually expire on the server.
func TestBinaryTTLFills(t *testing.T) {
	addr := newBenchServer(t, service.ServerConfig{})
	tenants := benchTenants()
	tenants[0].TTL = time.Millisecond
	res, err := Run(Options{
		Addr:       addr,
		Tenants:    tenants,
		OpsPerConn: 500,
		Binary:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants[0].Puts == 0 {
		t.Fatal("no fills happened")
	}
	// Every fill carried a 1ms TTL, so after a beat the working set is dead:
	// a rerun of the same app stream on the same server should miss heavily.
	time.Sleep(20 * time.Millisecond)
	res2, err := Run(Options{
		Addr:       addr,
		Tenants:    benchTenants(),
		OpsPerConn: 500,
		Binary:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tenants[0].Misses == 0 {
		t.Fatal("expected misses after TTL expiry, got none")
	}

	// A TTL past the u32 ttl_ms field saturates at ~49.7 days on every
	// codec. A 50-day TTL once wrapped to about seven hours on binary, and
	// failed every text fill: the node refuses an EXPIRE over 2^32-1 ms.
	for _, cd := range []struct {
		name       string
		bin, bmget bool
	}{{"text", false, false}, {"binary", true, false}, {"bmget", true, true}} {
		t.Run("50d/"+cd.name, func(t *testing.T) {
			clk := clock.NewFake(time.Unix(0, 0))
			o := Options{
				Addr:       newBenchServerAt(t, service.ServerConfig{}, clk),
				OpsPerConn: 50,
				Batch:      8,
				Binary:     cd.bin,
				BMGet:      cd.bmget,
				Tenants: []Tenant{{Name: "t", TTL: 50 * 24 * time.Hour, MakeApp: func(int) workload.App {
					return CategoryApp(workload.Fitting, 2048, 7)
				}}},
			}
			if res, err := Run(o); err != nil || res.Tenants[0].Puts != 50 {
				t.Fatalf("50 fills with a 50-day TTL: %+v, %v", res.Tenants, err)
			}
			clk.Advance(8 * time.Hour)
			if res, err := Run(o); err != nil || res.Tenants[0].Hits != 50 {
				t.Fatalf("a 50-day TTL expired within 8 hours: %+v, %v", res.Tenants, err)
			}
		})
	}
}

// TestBinaryDialBusy checks the dial-time BUSY mapping: a server at its
// connection cap answers the preamble with its text reject (or a close),
// never a binary ack, and the binary client must classify that as ErrBusy.
func TestBinaryDialBusy(t *testing.T) {
	addr := newBenchServer(t, service.ServerConfig{MaxConns: 1})
	hold, err := dial(addr, codecBinary, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer hold.close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err = dial(addr, codecBinary, "t")
		if errors.Is(err, ErrBusy) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial over cap: got %v, want ErrBusy", err)
		}
		// The first conn's accept may still be settling; retry briefly.
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBinaryChaosRun drives both clients through the chaos path: more
// connections than the cap, so dials are BUSY-rejected and counted while
// the in-cap connections complete their budget.
func TestBinaryChaosRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		bin  bool
	}{{"text", false}, {"binary", true}} {
		t.Run(tc.name, func(t *testing.T) {
			addr := newBenchServer(t, service.ServerConfig{MaxConns: 2})
			tenants := benchTenants()
			tenants[0].Conns = 6
			res, err := Run(Options{
				Addr:       addr,
				Tenants:    tenants,
				OpsPerConn: 300,
				Batch:      4,
				Binary:     tc.bin,
				Chaos:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rejected == 0 {
				t.Fatalf("6 conns against max-conns=2 produced no BUSY rejects: %+v", res)
			}
			if res.Ops == 0 {
				t.Fatal("no surviving throughput under overload")
			}
		})
	}
}
