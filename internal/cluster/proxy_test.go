// Proxy equivalence tests: the forwarder must be invisible. The same
// deterministic workload driven through "vantaged proxy" over the text and
// the binary protocol must produce identical per-tenant results — the
// cluster-mode extension of the loadgen's TestBinaryMatchesText — and a
// proxied run must match a ring-aware client run, since both route every
// key to the same owner.
//
// Ring ownership hashes member addresses, so every compared run must see
// the cluster at the same addresses: the tests reserve ports once and
// rebind them for each fresh cluster.
package cluster_test

import (
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"vantage/internal/cluster"
	"vantage/internal/service"
	"vantage/internal/service/loadgen"
	"vantage/internal/workload"
)

// reservePorts binds and immediately releases n loopback listeners,
// returning their addresses for the compared clusters to rebind.
func reservePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		lis.Close()
	}
	return addrs
}

// listenAt rebinds addr, retrying briefly: the previous cluster's listener
// just closed and the port can take a beat to free.
func listenAt(t testing.TB, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		lis, err := net.Listen("tcp", addr)
		if err == nil {
			return lis
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// proxyCluster is one disposable cluster bound at fixed addresses, with an
// optional proxy in front. Close tears the whole thing down so the next
// cluster can rebind the same ports.
type proxyCluster struct {
	proxyAddr string
	closers   []func()
	closed    bool
}

// Close is idempotent: tests close explicitly to free the ports for the
// next cluster, and t.Cleanup closes again as a failure backstop.
func (pc *proxyCluster) Close() {
	if pc.closed {
		return
	}
	pc.closed = true
	for i := len(pc.closers) - 1; i >= 0; i-- {
		pc.closers[i]()
	}
}

// bootProxyCluster starts a 3-node cluster at the given addresses (fixed
// geometry: every compared run must start from an identical cluster or the
// comparison is meaningless) and, when withProxy is set, a Proxy in front.
func bootProxyCluster(t testing.TB, addrs []string, withProxy bool) *proxyCluster {
	t.Helper()
	pc := &proxyCluster{}
	for i, addr := range addrs {
		svc, err := service.New(service.Config{
			Shards:        2,
			LinesPerShard: 1024,
			MaxTenants:    4,
			Seed:          2011 + uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.ServeWith(svc, listenAt(t, addr), service.ServerConfig{})
		nd, err := cluster.NewNode(svc, addr, addrs, scaleVNodes)
		if err != nil {
			t.Fatal(err)
		}
		svc.SetClusterHandler(nd)
		pc.closers = append(pc.closers, func() { svc.Close() }, func() { srv.Close() })
	}
	if withProxy {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p, err := cluster.NewProxy(lis, addrs, scaleVNodes)
		if err != nil {
			t.Fatal(err)
		}
		pc.proxyAddr = p.Addr().String()
		pc.closers = append(pc.closers, p.Close)
	}
	t.Cleanup(pc.Close)
	return pc
}

func proxyTenants() []loadgen.Tenant {
	return []loadgen.Tenant{{
		Name:  "t",
		Conns: 1,
		MakeApp: func(conn int) workload.App {
			return loadgen.CategoryApp(workload.Friendly, 2048, 7)
		},
	}}
}

// readUntilEnd reads relay lines until END (or a lone ERR line, which is
// a complete response on its own).
func readUntilEnd(t *testing.T, tc *textConn) []string {
	t.Helper()
	var lines []string
	for {
		raw, err := tc.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimRight(raw, "\r\n")
		lines = append(lines, line)
		if line == "END" || strings.HasPrefix(line, "ERR") {
			return lines
		}
	}
}

// TestProxyTextAdmin drives the proxy's text front through the verbs the
// loadgen never issues: multi-line relays (TENANT LIST, STATS), local
// answers (PING, QUIT, CLUSTER refusal), unknown verbs, and malformed
// lines, which must get a node's usage errors while keeping the client
// stream in sync.
func TestProxyTextAdmin(t *testing.T) {
	addrs := reservePorts(t, 3)
	pc := bootProxyCluster(t, addrs, true)
	tc := dialScale(t, pc.proxyAddr)

	if resp := tc.roundTrip("TENANT ADD padmin"); !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("TENANT ADD: %q", resp)
	}
	tc.w.WriteString("TENANT LIST\r\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := readUntilEnd(t, tc)
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "TENANT padmin ") {
			found = true
		}
	}
	if !found || lines[len(lines)-1] != "END" {
		t.Fatalf("TENANT LIST relay: %q", lines)
	}

	tc.w.WriteString("STATS\r\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines = readUntilEnd(t, tc)
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "STAT ") || lines[len(lines)-1] != "END" {
		t.Fatalf("STATS relay: %q", lines)
	}

	tc.put("padmin", "k", "hello", -1)
	if v, hit := tc.get("padmin", "k"); !hit || v != "hello" {
		t.Fatalf("GET after PUT: %q %v", v, hit)
	}
	if resp := tc.roundTrip("TOUCH padmin k 1000"); resp != "TOUCHED" {
		t.Fatalf("TOUCH: %q", resp)
	}
	if resp := tc.roundTrip("DEL padmin k"); resp != "DELETED" {
		t.Fatalf("DEL: %q", resp)
	}

	if resp := tc.roundTrip("PING"); resp != "PONG" {
		t.Fatalf("PING: %q", resp)
	}
	if resp := tc.roundTrip("CLUSTER INFO"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("CLUSTER through proxy: %q", resp)
	}
	if resp := tc.roundTrip("FROB x y"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("unknown verb: %q", resp)
	}

	// Malformed lines get the node's usage error from the proxy's decoder,
	// and the connection stays usable afterward.
	if resp := tc.roundTrip("GET padmin"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("short GET: %q", resp)
	}
	if resp := tc.roundTrip("PUT padmin k"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("short PUT: %q", resp)
	}
	if resp := tc.roundTrip("PUT padmin k notanumber"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("bad PUT length: %q", resp)
	}
	if resp := tc.roundTrip("MGET padmin"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("short MGET: %q", resp)
	}
	if resp := tc.roundTrip("MGET padmin two a"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("bad MGET count: %q", resp)
	}

	// MGET to an unknown tenant aborts with a single ERR, no END.
	tc.put("padmin", "a", "1", -1)
	tc.w.WriteString("MGET ghost 2 a b\r\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines = readUntilEnd(t, tc)
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ERR") {
		t.Fatalf("MGET unknown tenant: %q", lines)
	}

	// A real MGET reassembles per-key responses in key order.
	tc.put("padmin", "b", "22", -1)
	tc.w.WriteString("MGET padmin 3 a missing b\r\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 3; i++ {
		raw, err := tc.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimRight(raw, "\r\n")
		if strings.HasPrefix(line, "VALUE ") {
			n, err := strconv.Atoi(strings.TrimPrefix(line, "VALUE "))
			if err != nil {
				t.Fatalf("MGET value line: %q", line)
			}
			body := make([]byte, n+2)
			if _, err := io.ReadFull(tc.r, body); err != nil {
				t.Fatal(err)
			}
			got = append(got, string(body[:n]))
		} else {
			got = append(got, line)
		}
	}
	if end, err := tc.r.ReadString('\n'); err != nil || strings.TrimRight(end, "\r\n") != "END" {
		t.Fatalf("MGET terminator: %q %v", end, err)
	}
	if got[0] != "1" || got[1] != "MISS" || got[2] != "22" {
		t.Fatalf("MGET reassembly: %q", got)
	}

	if resp := tc.roundTrip("TENANT DEL padmin"); resp != "OK" {
		t.Fatalf("TENANT DEL: %q", resp)
	}
	if resp := tc.roundTrip("QUIT"); resp != "BYE" {
		t.Fatalf("QUIT: %q", resp)
	}
}

// TestNodeAccessorsAndBootstrap covers the node's read surface and the
// restart catch-up path: a node that missed registrations pulls a peer's
// snapshot wholesale.
func TestNodeAccessorsAndBootstrap(t *testing.T) {
	nodes := startScaleCluster(t, 2, service.Config{
		Shards: 1, LinesPerShard: 512, MaxTenants: 8, Seed: 21,
	}, service.ServerConfig{})
	a, b := nodes[0], nodes[1]

	if a.node.Self() != a.addr {
		t.Fatalf("Self: %q != %q", a.node.Self(), a.addr)
	}
	if got := a.node.Members(); len(got) != 2 {
		t.Fatalf("Members: %v", got)
	}
	if !a.node.Ring().Contains(b.addr) {
		t.Fatal("ring missing peer")
	}
	if a.node.Peers() != 1 {
		t.Fatalf("Peers: %d", a.node.Peers())
	}

	p := cluster.NewPeer(a.addr)
	defer p.Close()
	if p.Addr() != a.addr {
		t.Fatalf("Addr: %q", p.Addr())
	}
	if err := p.Ping(); err != nil {
		t.Fatal(err)
	}

	// Register on A, then wipe B's knowledge by bootstrapping it from A:
	// SyncRegistry adopts the snapshot, so B ends with the same registry
	// and version.
	if _, err := a.svc.AddTenant("boot1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.svc.AddTenant("boot2"); err != nil {
		t.Fatal(err)
	}
	if err := a.svc.RemoveTenant("boot2"); err != nil {
		t.Fatal(err)
	}
	if err := b.node.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if got, want := b.svc.ClusterVersion(), a.svc.ClusterVersion(); got != want {
		t.Fatalf("version after bootstrap: %d != %d", got, want)
	}
	names := b.svc.TenantNames()
	if len(names) != 1 || names[0] != "boot1" {
		t.Fatalf("tenants after bootstrap: %v", names)
	}
}

// TestProxyBinaryMatchesText runs the identical single-connection
// deterministic workload through the proxy over the text and the binary
// front against fresh same-address clusters and requires identical
// per-tenant results. batch=8 additionally exercises MGET
// splitting/reassembly on the text front and pipelined frame forwarding on
// the binary one.
func TestProxyBinaryMatchesText(t *testing.T) {
	addrs := reservePorts(t, 3)
	for _, batch := range []int{1, 8} {
		run := func(bin, bmget bool) loadgen.Result {
			pc := bootProxyCluster(t, addrs, true)
			defer pc.Close()
			res, err := loadgen.Run(loadgen.Options{
				Addr:       pc.proxyAddr,
				Tenants:    proxyTenants(),
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
		text, bin := run(false, false), run(true, false)
		tt, bt := text.Tenants[0], bin.Tenants[0]
		if tt.Gets != bt.Gets || tt.Hits != bt.Hits || tt.Misses != bt.Misses || tt.Puts != bt.Puts {
			t.Fatalf("batch=%d: proxied text %+v != proxied binary %+v", batch, tt, bt)
		}
		if bt.Gets != 3000 {
			t.Fatalf("batch=%d: binary did %d gets, want full 3000 budget", batch, bt.Gets)
		}
		if bt.Hits == 0 || bt.Puts == 0 {
			t.Fatalf("batch=%d: degenerate proxied run %+v", batch, bt)
		}
		if batch > 1 {
			// BMGET coalesces the batch into one frame; the proxy splits it
			// per owner and re-merges, so the outcomes must still match the
			// text MGET run key for key.
			mt := run(false, true).Tenants[0]
			if tt.Gets != mt.Gets || tt.Hits != mt.Hits || tt.Misses != mt.Misses || tt.Puts != mt.Puts {
				t.Fatalf("batch=%d: proxied text %+v != proxied BMGET %+v", batch, tt, mt)
			}
		}
	}
}

// TestProxyConcurrentHandshakes races multiple connections per tenant
// through the proxy: every connection opens with TENANT ADD, so a second
// connection's add is idempotent on the owner while the first's broadcast
// may still be in flight — the idempotent path must wait for the announce,
// or the loser's first MGET reaches a peer that does not know the tenant
// yet. Regression test for exactly that race.
func TestProxyConcurrentHandshakes(t *testing.T) {
	addrs := reservePorts(t, 3)
	pc := bootProxyCluster(t, addrs, true)
	tenants := []loadgen.Tenant{
		{Name: "alpha", Conns: 2, MakeApp: func(conn int) workload.App {
			return loadgen.CategoryApp(workload.Friendly, 2048, uint64(10+conn))
		}},
		{Name: "beta", Conns: 2, MakeApp: func(conn int) workload.App {
			return loadgen.CategoryApp(workload.Friendly, 2048, uint64(20+conn))
		}},
	}
	res, err := loadgen.Run(loadgen.Options{
		Addr:       pc.proxyAddr,
		Tenants:    tenants,
		OpsPerConn: 1000,
		ValueSize:  32,
		Batch:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		if tr.Gets == 0 {
			t.Fatalf("tenant %s did no gets: %+v", tr.Name, tr)
		}
	}
}

// TestProxyMatchesRingClient compares a proxied text run against a
// ring-aware client run over fresh same-address clusters: both must route
// every key to the same owner, so the cache outcomes are identical.
func TestProxyMatchesRingClient(t *testing.T) {
	addrs := reservePorts(t, 3)

	pc := bootProxyCluster(t, addrs, true)
	viaProxy, err := loadgen.Run(loadgen.Options{
		Addr:       pc.proxyAddr,
		Tenants:    proxyTenants(),
		OpsPerConn: 3000,
		ValueSize:  32,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc.Close()

	bootProxyCluster(t, addrs, false)
	viaRing, err := loadgen.Run(loadgen.Options{
		ClusterAddrs: addrs,
		VNodes:       scaleVNodes,
		Tenants:      proxyTenants(),
		OpsPerConn:   3000,
		ValueSize:    32,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt, rt := viaProxy.Tenants[0], viaRing.Tenants[0]
	if pt.Gets != rt.Gets || pt.Hits != rt.Hits || pt.Misses != rt.Misses || pt.Puts != rt.Puts {
		t.Fatalf("proxied %+v != ring-routed %+v", pt, rt)
	}
	if pt.Hits == 0 {
		t.Fatalf("degenerate run %+v", pt)
	}
}
