// Pool lifecycle tests: the proxy's shared backend connections must fail
// fast and heal. A backend dying mid-pipeline turns every in-flight
// request on that connection into a prompt ERR — never a hang — while
// other backends keep answering on the same client connection; the next
// batch after a restart redials transparently. The observability surface
// (STATS injection, Stats(), -track-latency histograms) rides the same
// fixtures.
package cluster_test

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vantage/internal/cluster"
	"vantage/internal/service"
	"vantage/internal/service/loadgen"
)

// poolNode is one restartable cluster member: Close tears it down and
// start() brings a fresh empty node back up at the same address.
type poolNode struct {
	addr string
	svc  *service.Service
	srv  *service.Server
	node *cluster.Node
}

func (pn *poolNode) start(t *testing.T, addrs []string) {
	t.Helper()
	pn.serve(t, addrs, listenAt(t, pn.addr))
}

// serve brings the node up on lis, bound at pn.addr.
func (pn *poolNode) serve(t *testing.T, addrs []string, lis net.Listener) {
	t.Helper()
	svc, err := service.New(service.Config{
		Shards: 2, LinesPerShard: 1024, MaxTenants: 4, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.ServeWith(svc, lis, service.ServerConfig{})
	nd, err := cluster.NewNode(svc, pn.addr, addrs, scaleVNodes)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetClusterHandler(nd)
	pn.svc, pn.srv, pn.node = svc, srv, nd
}

func (pn *poolNode) stop() {
	if pn.srv != nil {
		pn.srv.Close()
		pn.svc.Close()
		pn.srv, pn.svc, pn.node = nil, nil, nil
	}
}

// bootPoolCluster starts a 3-node cluster with per-node handles (so tests
// can kill and restart individual members) and a proxy built with cfg.
func bootPoolCluster(t *testing.T, cfg cluster.ProxyConfig) ([]*poolNode, *cluster.Proxy) {
	t.Helper()
	// The listeners stay bound from the start: a port released and rebound
	// could be taken in between by another process's connection.
	liss := make([]net.Listener, 3)
	addrs := make([]string, len(liss))
	for i := range liss {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		liss[i], addrs[i] = lis, lis.Addr().String()
	}
	nodes := make([]*poolNode, len(addrs))
	for i, addr := range addrs {
		nodes[i] = &poolNode{addr: addr}
		nodes[i].serve(t, addrs, liss[i])
		t.Cleanup(nodes[i].stop)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cluster.NewProxyWith(lis, addrs, scaleVNodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return nodes, p
}

// keyOwnedBy finds a key the ring assigns to addr for the given tenant.
func keyOwnedBy(t *testing.T, ring *cluster.Ring, tenant, addr string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := "k" + string(rune('a'+i%26)) + "-" + itoa(i)
		if ring.Owner(tenant, k) == addr {
			return k
		}
	}
	t.Fatalf("no key owned by %s", addr)
	return ""
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestProxyBackendDeathAndReconnect kills one backend under a shared pool
// connection and requires (1) the victim's requests turn into ERR lines,
// promptly; (2) requests to the survivors keep working on the same client
// connection; (3) after the backend restarts, the next request redials and
// answers normally — reconnect-on-next-batch, no proxy restart.
func TestProxyBackendDeathAndReconnect(t *testing.T) {
	nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
	addrs := make([]string, len(nodes))
	for i, pn := range nodes {
		addrs[i] = pn.addr
	}
	ring, err := cluster.NewRing(addrs, scaleVNodes)
	if err != nil {
		t.Fatal(err)
	}

	tc := dialScale(t, p.Addr().String())
	if resp := tc.roundTrip("TENANT ADD pool"); !strings.HasPrefix(resp, "OK") {
		t.Fatalf("TENANT ADD: %q", resp)
	}

	// One key per backend, all stored through the proxy.
	keys := make([]string, len(nodes))
	for i, pn := range nodes {
		keys[i] = keyOwnedBy(t, ring, "pool", pn.addr)
		tc.put("pool", keys[i], "v-"+keys[i], -1)
		if v, hit := tc.get("pool", keys[i]); !hit || v != "v-"+keys[i] {
			t.Fatalf("warm GET %s: %q %v", keys[i], v, hit)
		}
	}

	// Kill backend 1. The pooled connection to it is live with our GETs'
	// responses already drained, so the next request either rides the dead
	// connection (readLoop EOF synthesizes the ERR) or triggers a failed
	// redial ("backend unavailable") — both must answer, quickly.
	victim := nodes[1]
	victim.stop()
	tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if resp := tc.roundTrip("GET pool " + keys[1]); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("GET to dead backend: %q", resp)
	}

	// Survivors still answer on the same client connection.
	if v, hit := tc.get("pool", keys[0]); !hit || v != "v-"+keys[0] {
		t.Fatalf("survivor GET after death: %q %v", v, hit)
	}
	if v, hit := tc.get("pool", keys[2]); !hit || v != "v-"+keys[2] {
		t.Fatalf("survivor GET after death: %q %v", v, hit)
	}

	// An MGET spanning the dead backend collapses to the whole-batch ERR
	// shape (single ERR line, no END) instead of hanging on the lost leg.
	tc.w.WriteString("MGET pool 2 " + keys[0] + " " + keys[1] + "\r\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := readUntilEnd(t, tc)
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ERR") {
		t.Fatalf("MGET spanning dead backend: %q", lines)
	}

	// Restart at the same address, catch the registry up, and the very next
	// proxied request must redial: a MISS (fresh cache), never an ERR.
	victim.start(t, addrs)
	if err := victim.node.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		resp := tc.roundTrip("GET pool " + keys[1])
		if resp == "MISS" {
			break
		}
		if !strings.HasPrefix(resp, "ERR") || time.Now().After(deadline) {
			t.Fatalf("GET after restart: %q", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	tc.put("pool", keys[1], "again", -1)
	if v, hit := tc.get("pool", keys[1]); !hit || v != "again" {
		t.Fatalf("PUT/GET after restart: %q %v", v, hit)
	}
}

// TestProxyStatsAndLatency checks the proxy's observability surface: the
// STATS relay injects the pool gauges (and latency quantiles when tracking
// is on) before END, and Stats() exposes live counters plus a populated
// latency histogram under -track-latency.
func TestProxyStatsAndLatency(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{TrackLatency: true})
	tc := dialScale(t, p.Addr().String())

	if resp := tc.roundTrip("TENANT ADD obs"); !strings.HasPrefix(resp, "OK") {
		t.Fatalf("TENANT ADD: %q", resp)
	}
	for i := 0; i < 32; i++ {
		k := "k" + itoa(i)
		tc.put("obs", k, "v", -1)
		tc.get("obs", k)
	}

	tc.w.WriteString("STATS\r\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := readUntilEnd(t, tc)
	want := map[string]bool{
		"STAT proxy_pool_conns ":       false,
		"STAT proxy_pipelined_frames ": false,
		"STAT proxy_latency_p50_us ":   false,
		"STAT proxy_latency_p99_us ":   false,
	}
	for _, l := range lines {
		for prefix := range want {
			if strings.HasPrefix(l, prefix) {
				want[prefix] = true
			}
		}
	}
	for prefix, seen := range want {
		if !seen {
			t.Fatalf("STATS missing %q: %q", prefix, lines)
		}
	}
	if lines[len(lines)-1] != "END" {
		t.Fatalf("STATS terminator: %q", lines)
	}

	st := p.Stats()
	if st.PoolConns < 1 || st.PoolConnsTotal < 1 {
		t.Fatalf("pool gauges: %+v", st)
	}
	if st.PipelinedFrames == 0 {
		t.Fatalf("no pipelined frames recorded: %+v", st)
	}
	if st.LatencyCounts == nil {
		t.Fatal("TrackLatency on but LatencyCounts nil")
	}
	var total uint64
	for _, c := range st.LatencyCounts {
		total += c
	}
	if total == 0 || st.LatencySumNS == 0 {
		t.Fatalf("empty latency histogram: total=%d sum=%d", total, st.LatencySumNS)
	}
	if st.LatencyQuantile(0.99) <= 0 {
		t.Fatalf("p99 = %v", st.LatencyQuantile(0.99))
	}
}

// rawBinConn is a minimal binary-protocol client speaking the wire bytes
// directly, independently of package binwire, so it also checks that the
// bytes on the wire stay what the protocol says.
type rawBinConn struct {
	t *testing.T
	c net.Conn
}

func dialRawBin(t *testing.T, addr string) *rawBinConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Write([]byte{0x83, 'V', 'B', 1}); err != nil {
		t.Fatal(err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(c, ack[:]); err != nil {
		t.Fatal(err)
	}
	return &rawBinConn{t: t, c: c}
}

// tenantOp sends one TENANT_ADD (6) or TENANT_DEL (7) frame and returns
// the response status.
func (rb *rawBinConn) tenantOp(op uint8, id uint32, tenant string) uint8 {
	rb.t.Helper()
	frame := make([]byte, 4+16+len(tenant))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(16+len(tenant)))
	frame[4] = op
	frame[6] = uint8(len(tenant))
	binary.LittleEndian.PutUint32(frame[8:12], id)
	copy(frame[20:], tenant)
	if _, err := rb.c.Write(frame); err != nil {
		rb.t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(rb.c, hdr[:]); err != nil {
		rb.t.Fatal(err)
	}
	resp := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(rb.c, resp); err != nil {
		rb.t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(resp[4:8]); got != id {
		rb.t.Fatalf("response id %d, want %d", got, id)
	}
	return resp[0]
}

// TestConcurrentBinaryTenantAdds is the regression gate for a distributed
// deadlock: TENANT_ADD replicates to every peer synchronously, so a node
// whose one transport goroutine executed it could not serve the peer's
// REG_OP meanwhile; two nodes adding tenants at the same time each blocked
// on the other's reply until the 5s peer timeout broke the cycle. Every
// connection now has its own goroutine, so the add blocks only the
// connection that sent it and concurrent adds on different nodes must
// complete in milliseconds; the whole test failing its deadline means a
// registry round trip can block another connection's frames again.
func TestConcurrentBinaryTenantAdds(t *testing.T) {
	nodes, _ := bootPoolCluster(t, cluster.ProxyConfig{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for round := 0; round < 5; round++ {
			start := make(chan struct{})
			for i := 0; i < 2; i++ {
				rb := dialRawBin(t, nodes[i].addr)
				wg.Add(1)
				go func(rb *rawBinConn, name string) {
					defer wg.Done()
					<-start
					if st := rb.tenantOp(6, 1, name); st != 0 {
						t.Errorf("TENANT_ADD %s: status %d", name, st)
					}
					if st := rb.tenantOp(7, 2, name); st != 0 {
						t.Errorf("TENANT_DEL %s: status %d", name, st)
					}
				}(rb, "cc"+itoa(2*round+i))
			}
			close(start)
			wg.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(4 * time.Second):
		t.Fatal("concurrent binary TENANT_ADDs did not finish in 4s: peer replication blocked another connection")
	}
}

// TestProxyBMGetMatchesRing drives the identical BMGET workload through
// the pooled proxy and through a ring-aware client against fresh
// same-address clusters: the proxy's split/scatter/re-merge must be
// invisible, so per-tenant accounting matches exactly.
func TestProxyBMGetMatchesRing(t *testing.T) {
	addrs := reservePorts(t, 3)

	pc := bootProxyCluster(t, addrs, true)
	viaProxy, err := loadgen.Run(loadgen.Options{
		Addr:       pc.proxyAddr,
		Tenants:    proxyTenants(),
		OpsPerConn: 3000,
		ValueSize:  32,
		Batch:      8,
		BMGet:      true,
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
		Batch:        8,
		BMGet:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt, rt := viaProxy.Tenants[0], viaRing.Tenants[0]
	if pt.Gets != rt.Gets || pt.Hits != rt.Hits || pt.Misses != rt.Misses || pt.Puts != rt.Puts {
		t.Fatalf("proxied BMGET %+v != ring BMGET %+v", pt, rt)
	}
	if pt.Hits == 0 {
		t.Fatalf("degenerate run %+v", pt)
	}
}

// TestProxyRelayFence: a relayed line is answered before the proxy reads
// the next one. The tenant's registration goes to its name's owner and its
// first PUT to the key's owner, another node; pipelined behind the TENANT
// ADD with no read in between, the PUT must find the tenant there.
func TestProxyRelayFence(t *testing.T) {
	nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
	addrs := make([]string, len(nodes))
	for i, pn := range nodes {
		addrs[i] = pn.addr
	}
	ring, err := cluster.NewRing(addrs, scaleVNodes)
	if err != nil {
		t.Fatal(err)
	}
	x := "fence"
	for i := 0; ring.Owner(x, "") == ring.Owner(x, "k"); i++ {
		x = "fence" + itoa(i)
	}
	tc := dialScale(t, p.Addr().String())
	tc.w.WriteString("TENANT ADD " + x + "\r\nPUT " + x + " k 1\r\nv\r\nGET " + x + " k\r\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OK ", "STORED", "VALUE 1", "v"} {
		line, err := tc.r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, want) {
			t.Fatalf("read %q, %v; want %q", line, err, want)
		}
	}
}

// TestProxyRelaysTextFrames: a binary client's TEXT frames are routed like
// the text front's relayed lines and answered with the node's text reply
// verbatim, CLUSTER refused as on the text front; one carrying a
// well-formed data command is refused and runs on no node; a relayed STATS
// error carries no proxy counters; and a text client that dies inside a
// relayed PUT's block gets the node's "short value" and loses only its
// session.
func TestProxyRelaysTextFrames(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{})
	b := dialFront(t, p.Addr().String(), true)
	long := strings.Repeat("k", 251)
	for i, c := range []struct {
		body   string
		status uint8
		want   string
	}{
		{"TENANT ADD bt\n", 0, "OK "},
		{"PUT bt " + long + " 1\nv", 0, "ERR key too long\r\n"},
		{"TENANT LIST\n", 0, "TENANT bt "},
		{"PUT bt k 1\nv", 2, "a data command rides its own frame, not TEXT"},
		{"GET bt k\n", 2, "a data command rides its own frame, not TEXT"},
		{"FROB\n", 0, "ERR unknown command \"FROB\"\r\n"},
		{"CLUSTER INFO\n", 2, "CLUSTER must be issued to a node"},
	} {
		b.binHeader(12, uint32(i), 0, len(c.body), "")
		b.out = append(b.out, c.body...)
		b.flush()
		if st, id, payload := b.binFrame(); st != c.status || id != uint32(i) || !strings.HasPrefix(string(payload), c.want) {
			t.Fatalf("TEXT %q: status %d id %d %q, want %d %q", c.body, st, id, payload, c.status, c.want)
		}
	}

	tc := dialScale(t, p.Addr().String())
	if resp := tc.roundTrip("GET bt k"); resp != "MISS" {
		t.Fatalf("GET after a PUT in a TEXT frame: %q, want MISS (the frame is refused, not run)", resp)
	}
	if resp := tc.roundTrip("STATS ghost"); resp != `ERR unknown tenant "ghost"` {
		t.Fatalf("STATS of an unknown tenant: %q", resp)
	}
	tc.w.WriteString("PUT bt " + long + " 5\r\nab")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	tc.c.(*net.TCPConn).CloseWrite()
	if resp, err := tc.r.ReadString('\n'); resp != "ERR short value\r\n" {
		t.Fatalf("PUT cut short: %q, %v", resp, err)
	}
	if resp := dialScale(t, p.Addr().String()).roundTrip("TENANT DEL bt"); resp != "OK" {
		t.Fatalf("TENANT DEL after another session died: %q", resp)
	}
}
