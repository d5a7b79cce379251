// NFR scale suite: multi-node vantaged clusters exercised end-to-end over
// real TCP, with assertions on scraped /metrics rather than in-process
// state — the same signals an operator's dashboards would alert on. The
// legs cover the cluster tentpole's contract:
//
//   - Registration: hundreds of tenants registered round-robin across
//     nodes replicate everywhere with converged registry versions.
//   - Churn: a registry add/remove churner running beside live traffic
//     must not dent the hit rate (floor: within 2 points of a solo run of
//     the identical workload) and p99 service latency stays bounded.
//   - Shedding: overload sheds are accounted exactly — the client's count
//     of ERR SHED replies equals the sum of the nodes' shed counters.
//   - Leave/join: a departing node drains every key it holds with exact
//     rehomed-keys accounting on both ends, and no acknowledged PUT is
//     lost across two membership changes.
//   - TTL: re-homed entries keep their remaining TTL (driven on a shared
//     fake clock, so expiry boundaries are asserted exactly).
//
// `go test -short` runs the scaled-down CI smoke (3 nodes, 50 tenants,
// one membership change). Set VANTAGE_SCALE_RESULTS=1 (or =path) to write
// the measured numbers as a markdown artifact under results/scale/.
package cluster_test

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vantage/internal/clock"
	"vantage/internal/cluster"
	"vantage/internal/service"
	"vantage/internal/service/loadgen"
	"vantage/internal/workload"
)

// scaleVNodes is the ring geometry every leg uses; clients and nodes must
// agree on it.
const scaleVNodes = 32

type scaleNode struct {
	addr    string
	svc     *service.Service
	srv     *service.Server
	node    *cluster.Node
	metrics *httptest.Server
}

// startScaleCluster boots n in-process nodes: every node gets its own
// Service (seeded distinctly), a TCP server, a cluster.Node wired as the
// service's ClusterHandler, and an HTTP metrics endpoint. Listeners are
// bound first so the full member list exists before any node starts.
func startScaleCluster(t *testing.T, n int, cfg service.Config, scfg service.ServerConfig) []*scaleNode {
	t.Helper()
	liss := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range liss {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		liss[i] = lis
		addrs[i] = lis.Addr().String()
	}
	nodes := make([]*scaleNode, n)
	for i := range nodes {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		svc, err := service.New(c)
		if err != nil {
			t.Fatal(err)
		}
		srv := service.ServeWith(svc, liss[i], scfg)
		nd, err := cluster.NewNode(svc, addrs[i], addrs, scaleVNodes)
		if err != nil {
			t.Fatal(err)
		}
		svc.SetClusterHandler(nd)
		nodes[i] = &scaleNode{addr: addrs[i], svc: svc, srv: srv, node: nd, metrics: httptest.NewServer(svc.MetricsHandler())}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.metrics.Close()
			nd.srv.Close()
			nd.svc.Close()
		}
	})
	return nodes
}

func addrsOf(nodes []*scaleNode) []string {
	out := make([]string, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.addr
	}
	return out
}

// ----------------------------------------------------- text test client --

type textConn struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dialScale(t *testing.T, addr string) *textConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tc := &textConn{t: t, c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
	t.Cleanup(func() { c.Close() })
	return tc
}

func (tc *textConn) roundTrip(line string) string {
	tc.t.Helper()
	tc.w.WriteString(line + "\r\n")
	if err := tc.w.Flush(); err != nil {
		tc.t.Fatalf("%q: %v", line, err)
	}
	resp, err := tc.r.ReadString('\n')
	if err != nil {
		tc.t.Fatalf("%q: %v", line, err)
	}
	return strings.TrimRight(resp, "\r\n")
}

func (tc *textConn) put(tenant, key, val string, ttlMS int) {
	tc.t.Helper()
	if ttlMS >= 0 {
		fmt.Fprintf(tc.w, "PUT %s %s %d EXPIRE %d\r\n%s\r\n", tenant, key, len(val), ttlMS, val)
	} else {
		fmt.Fprintf(tc.w, "PUT %s %s %d\r\n%s\r\n", tenant, key, len(val), val)
	}
	if err := tc.w.Flush(); err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.r.ReadString('\n')
	if err != nil {
		tc.t.Fatal(err)
	}
	if strings.TrimRight(resp, "\r\n") != "STORED" {
		tc.t.Fatalf("PUT %s: %q", key, resp)
	}
}

// get returns (value, hit).
func (tc *textConn) get(tenant, key string) (string, bool) {
	tc.t.Helper()
	resp := tc.roundTrip("GET " + tenant + " " + key)
	if resp == "MISS" {
		return "", false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(resp, "VALUE "))
	if err != nil {
		tc.t.Fatalf("GET %s: %q", key, resp)
	}
	body := make([]byte, n+2)
	if _, err := io.ReadFull(tc.r, body); err != nil {
		tc.t.Fatal(err)
	}
	return string(body[:n]), true
}

// okCount parses the "OK <n>" reply of CLUSTER MEMBERS.
func okCount(t *testing.T, resp string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimPrefix(resp, "OK "))
	if err != nil {
		t.Fatalf("expected OK <n>, got %q", resp)
	}
	return n
}

// --------------------------------------------------- metrics scraping --

func scrapeMetrics(t *testing.T, nd *scaleNode) string {
	t.Helper()
	resp, err := http.Get(nd.metrics.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue returns the value of an unlabelled metric from a scrape.
func metricValue(t *testing.T, raw, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(raw, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

// histogramP99 extracts the p99 upper bound (seconds) and total count from
// the scraped vantaged_request_latency_seconds histogram.
func histogramP99(t *testing.T, raw string) (p99 float64, count uint64) {
	t.Helper()
	prefix := `vantaged_request_latency_seconds_bucket{le="`
	type bucket struct {
		le  float64
		cum uint64
	}
	var buckets []bucket
	for _, line := range strings.Split(raw, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		leStr, cntStr, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("bad histogram line %q", line)
		}
		le := math.Inf(1)
		if leStr != "+Inf" {
			v, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le %q", leStr)
			}
			le = v
		}
		cum, err := strconv.ParseUint(cntStr, 10, 64)
		if err != nil {
			t.Fatalf("bad count %q", cntStr)
		}
		buckets = append(buckets, bucket{le, cum})
	}
	if len(buckets) == 0 {
		t.Fatal("no latency histogram in scrape (TrackLatency off?)")
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	count = buckets[len(buckets)-1].cum
	if count == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(0.99 * float64(count)))
	for _, b := range buckets {
		if b.cum >= rank {
			return b.le, count
		}
	}
	return buckets[len(buckets)-1].le, count
}

// ----------------------------------------------------- results artifact --

var scaleResults struct {
	mu    sync.Mutex
	lines []string
}

func recordResult(format string, args ...any) {
	scaleResults.mu.Lock()
	defer scaleResults.mu.Unlock()
	scaleResults.lines = append(scaleResults.lines, fmt.Sprintf(format, args...))
}

func TestMain(m *testing.M) {
	code := m.Run()
	if dest := os.Getenv("VANTAGE_SCALE_RESULTS"); dest != "" && code == 0 {
		if dest == "1" {
			dest = filepath.Join("..", "..", "results", "scale", "v1", "results.md")
		}
		writeScaleResults(dest)
	}
	os.Exit(code)
}

func writeScaleResults(dest string) {
	scaleResults.mu.Lock()
	lines := append([]string(nil), scaleResults.lines...)
	scaleResults.mu.Unlock()
	var b strings.Builder
	b.WriteString("# Cluster NFR scale suite — results (v1)\n\n")
	b.WriteString("Produced by `go test ./internal/cluster/` with `VANTAGE_SCALE_RESULTS` set.\n")
	fmt.Fprintf(&b, "Geometry: %d virtual nodes per member. All assertions passed.\n\n", scaleVNodes)
	for _, l := range lines {
		b.WriteString("- " + l + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(dest), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "scale results:", err)
		return
	}
	if err := os.WriteFile(dest, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "scale results:", err)
	}
}

// ------------------------------------------------------------- leg A --

// TestScaleRegistration registers hundreds of tenants round-robin across
// the nodes and asserts, from each node's metrics scrape, that every node
// converged on the full set at the same registry version — the paper's §5
// replicated per-partition targets, lifted to cluster scope.
func TestScaleRegistration(t *testing.T) {
	total := 220
	if testing.Short() {
		total = 50
	}
	nodes := startScaleCluster(t, 3,
		service.Config{Shards: 2, LinesPerShard: 4096, MaxTenants: 256, Seed: 11},
		service.ServerConfig{})
	conns := make([]*textConn, len(nodes))
	for i, nd := range nodes {
		conns[i] = dialScale(t, nd.addr)
	}
	for i := 0; i < total; i++ {
		resp := conns[i%len(conns)].roundTrip(fmt.Sprintf("TENANT ADD reg-%03d", i))
		if !strings.HasPrefix(resp, "OK") {
			t.Fatalf("register %d: %q", i, resp)
		}
	}
	var version float64
	for i, nd := range nodes {
		raw := scrapeMetrics(t, nd)
		if got := metricValue(t, raw, "vantaged_tenants"); got != float64(total) {
			t.Fatalf("node %d has %v tenants, want %d", i, got, total)
		}
		if got := metricValue(t, raw, "vantaged_cluster_peers"); got != 2 {
			t.Fatalf("node %d reports %v peers, want 2", i, got)
		}
		v := metricValue(t, raw, "vantaged_cluster_registry_version")
		if i == 0 {
			version = v
		} else if v != version {
			t.Fatalf("registry version diverged: node 0 at %v, node %d at %v", version, i, v)
		}
	}
	if version != float64(total) {
		t.Fatalf("registry version %v after %d origin registrations", version, total)
	}
	recordResult("registration: %d tenants on each of 3 nodes, registry version converged at %.0f", total, version)
}

// ------------------------------------------------------------- leg B --

// friendlySpecs builds the workload tenants both the solo baseline and the
// cluster run replay: identical apps (same seeds), so hit rates compare.
func friendlySpecs(n, cacheLines int) []loadgen.Tenant {
	specs := make([]loadgen.Tenant, n)
	for i := range specs {
		seed := uint64(100 + i)
		specs[i] = loadgen.Tenant{
			Name: fmt.Sprintf("w%d", i),
			MakeApp: func(conn int) workload.App {
				return loadgen.CategoryApp(workload.Friendly, cacheLines, seed+uint64(conn)*7919)
			},
		}
	}
	return specs
}

func sumHitRate(res loadgen.Result) (gets, hits uint64) {
	for _, tr := range res.Tenants {
		gets += tr.Gets
		hits += tr.Hits
	}
	return gets, hits
}

// TestScaleChurnHitRate replays the same deterministic workload against a
// solo node and against a 3-node cluster with a registry churner running,
// and asserts the cluster-under-churn hit rate is within 2 points of solo.
// p99 service latency comes from the nodes' scraped histograms.
func TestScaleChurnHitRate(t *testing.T) {
	ops, nTenants, churnTenants := 2500, 6, 24
	if testing.Short() {
		ops, nTenants, churnTenants = 600, 4, 12
	}
	cfg := service.Config{Shards: 2, LinesPerShard: 2048, MaxTenants: 64, Seed: 7, TrackLatency: true}
	cacheLines := cfg.Shards * cfg.LinesPerShard
	specs := friendlySpecs(nTenants, cacheLines)

	solo := startScaleCluster(t, 1, cfg, service.ServerConfig{})
	soloRes, err := loadgen.Run(loadgen.Options{
		Addr: solo[0].addr, Tenants: specs, OpsPerConn: ops, ValueSize: 32, Batch: 8,
	})
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	soloGets, soloHits := sumHitRate(soloRes)
	soloHR := float64(soloHits) / float64(soloGets)

	nodes := startScaleCluster(t, 3, cfg, service.ServerConfig{})
	clusterRes, err := loadgen.Run(loadgen.Options{
		ClusterAddrs: addrsOf(nodes), VNodes: scaleVNodes,
		Tenants: specs, OpsPerConn: ops, ValueSize: 32, Batch: 8,
		ChurnTenants: churnTenants, ChurnInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	gets, hits := sumHitRate(clusterRes)
	hr := float64(hits) / float64(gets)
	if hr < soloHR-0.02 {
		t.Fatalf("hit rate under churn %.4f fell more than 2 points below solo %.4f", hr, soloHR)
	}
	if clusterRes.ChurnOps == 0 {
		t.Fatal("churner made no acknowledged registry ops; the leg tested nothing")
	}

	// p99 per node from the scraped histogram; the bound is an NFR
	// smoke-level ceiling (loopback TCP, possibly under -race), not a
	// performance claim — the proxy-mix workload in bench/ carries those.
	var worstP99 float64
	var version float64
	for i, nd := range nodes {
		raw := scrapeMetrics(t, nd)
		p99, count := histogramP99(t, raw)
		if count == 0 {
			t.Fatalf("node %d served nothing", i)
		}
		if p99 > 0.5 {
			t.Fatalf("node %d p99 %.3fs exceeds 500ms NFR bound", i, p99)
		}
		if p99 > worstP99 {
			worstP99 = p99
		}
		v := metricValue(t, raw, "vantaged_cluster_registry_version")
		if i == 0 {
			version = v
		} else if v != version {
			t.Fatalf("registry version diverged under churn: %v vs %v", version, v)
		}
	}
	recordResult("churn: hit rate %.4f vs solo %.4f (floor solo-0.02), %d churn ops, worst node p99 <= %.2gs, %d gets",
		hr, soloHR, clusterRes.ChurnOps, worstP99, gets)
}

// TestScaleShedAccounting overloads a cluster whose nodes allow one data
// command in flight and asserts the client-observed shed count equals the
// sum of the nodes' shed counters exactly — the NFR that overload is
// shed visibly, never silently.
func TestScaleShedAccounting(t *testing.T) {
	ops := 300
	if testing.Short() {
		ops = 100
	}
	cfg := service.Config{Shards: 2, LinesPerShard: 1024, MaxTenants: 16, Seed: 13}
	// Per-tenant limit 1 sheds immediately (no backpressure wait), and a
	// 100%-rate delay fault on GETs holds each in-flight slot for 2ms, so
	// a tenant's two connections collide constantly.
	nodes := startScaleCluster(t, 3, cfg, service.ServerConfig{
		MaxTenantInflight: 1,
	})
	plan, err := service.ParseFaultSpec("delay=1:2ms,ops=get")
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		nd.svc.SetFaultInjector(plan)
	}
	specs := friendlySpecs(4, cfg.Shards*cfg.LinesPerShard)
	for i := range specs {
		specs[i].Conns = 2
	}
	res, err := loadgen.Run(loadgen.Options{
		ClusterAddrs: addrsOf(nodes), VNodes: scaleVNodes,
		Tenants: specs, OpsPerConn: ops, ValueSize: 16,
		Chaos: true,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	var shed uint64
	for _, nd := range nodes {
		shed += uint64(metricValue(t, scrapeMetrics(t, nd), "vantaged_requests_shed_total"))
	}
	if res.Shed == 0 {
		t.Fatal("no sheds under MaxInflight=1; the leg tested nothing")
	}
	if shed != res.Shed {
		t.Fatalf("shed accounting: nodes counted %d, client observed %d", shed, res.Shed)
	}
	recordResult("shed: %d sheds counted identically by client and nodes under MaxTenantInflight=1", shed)
}

// ------------------------------------------------------------- leg C --

// TestScaleLeaveJoin drives a node out of and back into a 3-node cluster
// and asserts exact re-homed key accounting from counter deltas, plus the
// headline invariant: every acknowledged PUT survives both membership
// changes.
func TestScaleLeaveJoin(t *testing.T) {
	total := 1500
	if testing.Short() {
		total = 400
	}
	cfg := service.Config{Shards: 2, LinesPerShard: 8192, MaxTenants: 8, Seed: 5}
	nodes := startScaleCluster(t, 3, cfg, service.ServerConfig{})
	addrs := addrsOf(nodes)
	byAddr := make(map[string]*scaleNode, len(nodes))
	conns := make(map[string]*textConn, len(nodes))
	for _, nd := range nodes {
		byAddr[nd.addr] = nd
		conns[nd.addr] = dialScale(t, nd.addr)
	}
	ring3, err := cluster.NewRing(addrs, scaleVNodes)
	if err != nil {
		t.Fatal(err)
	}

	if resp := conns[addrs[0]].roundTrip("TENANT ADD mover"); !strings.HasPrefix(resp, "OK") {
		t.Fatalf("TENANT ADD: %q", resp)
	}
	// Acknowledged PUTs, routed by ring ownership like a smart client.
	owned := make(map[string]int, len(addrs))
	value := func(i int) string { return fmt.Sprintf("val-%06d", i) }
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	for i := 0; i < total; i++ {
		owner := ring3.Owner("mover", key(i))
		conns[owner].put("mover", key(i), value(i), -1)
		owned[owner]++
	}
	leaver := addrs[2]
	ownedByLeaver := owned[leaver]
	if ownedByLeaver == 0 {
		t.Fatalf("leaver owns no keys of %d; vacuous leg", total)
	}

	rehomedOut := func(nd *scaleNode) uint64 {
		return uint64(metricValue(t, scrapeMetrics(t, nd), "vantaged_cluster_rehomed_keys_total"))
	}
	rehomedIn := func(nd *scaleNode) uint64 {
		return uint64(metricValue(t, scrapeMetrics(t, nd), "vantaged_cluster_rehomed_in_keys_total"))
	}

	// --- leave: survivors first (monotone: they move nothing), then the
	// leaver, which must drain exactly the keys it owns.
	survivors := addrs[:2]
	ring2, err := cluster.NewRing(survivors, scaleVNodes)
	if err != nil {
		t.Fatal(err)
	}
	memberCmd := "CLUSTER MEMBERS " + strings.Join(survivors, " ")
	for _, a := range survivors {
		if moved := okCount(t, conns[a].roundTrip(memberCmd)); moved != 0 {
			t.Fatalf("survivor %s moved %d keys on removal of %s; consistent hashing must move none", a, moved, leaver)
		}
	}
	inBefore := rehomedIn(byAddr[survivors[0]]) + rehomedIn(byAddr[survivors[1]])
	if moved := okCount(t, conns[leaver].roundTrip(memberCmd)); moved != ownedByLeaver {
		t.Fatalf("leaver drained %d keys, owned %d", moved, ownedByLeaver)
	}
	if out := rehomedOut(byAddr[leaver]); out != uint64(ownedByLeaver) {
		t.Fatalf("leaver rehomed_keys_total %d, want %d", out, ownedByLeaver)
	}
	if in := rehomedIn(byAddr[survivors[0]]) + rehomedIn(byAddr[survivors[1]]) - inBefore; in != uint64(ownedByLeaver) {
		t.Fatalf("survivors received %d keys, want %d", in, ownedByLeaver)
	}
	if entries := metricValue(t, scrapeMetrics(t, byAddr[leaver]), "vantaged_store_entries"); entries != 0 {
		t.Fatalf("leaver still stores %v entries after draining", entries)
	}
	// Zero lost acknowledged PUTs: every key hits at its ring2 owner.
	for i := 0; i < total; i++ {
		got, hit := conns[ring2.Owner("mover", key(i))].get("mover", key(i))
		if !hit || got != value(i) {
			t.Fatalf("after leave: key %s -> hit=%v val=%q, want %q", key(i), hit, got, value(i))
		}
	}
	recordResult("leave: %d/%d keys drained by the departing node (exact), survivors moved 0, all %d acked PUTs readable",
		ownedByLeaver, total, total)

	if testing.Short() {
		return // CI smoke: one membership change
	}

	// --- join: the node comes back empty; survivors drain exactly the
	// keys the 3-ring assigns it (the same set, keys never duplicated).
	wantFrom := make(map[string]int, 2)
	for i := 0; i < total; i++ {
		if ring3.Owner("mover", key(i)) == leaver {
			wantFrom[ring2.Owner("mover", key(i))]++
		}
	}
	joinCmd := "CLUSTER MEMBERS " + strings.Join(addrs, " ")
	if moved := okCount(t, conns[leaver].roundTrip(joinCmd)); moved != 0 {
		t.Fatalf("rejoining empty node drained %d keys", moved)
	}
	for _, a := range survivors {
		if moved := okCount(t, conns[a].roundTrip(joinCmd)); moved != wantFrom[a] {
			t.Fatalf("survivor %s drained %d keys on rejoin, want %d", a, moved, wantFrom[a])
		}
	}
	if in := rehomedIn(byAddr[leaver]); in != uint64(ownedByLeaver) {
		t.Fatalf("rejoined node received %d keys, want %d", in, ownedByLeaver)
	}
	for i := 0; i < total; i++ {
		got, hit := conns[ring3.Owner("mover", key(i))].get("mover", key(i))
		if !hit || got != value(i) {
			t.Fatalf("after join: key %s -> hit=%v val=%q, want %q", key(i), hit, got, value(i))
		}
	}
	recordResult("join: %d keys drained back to the rejoining node (exact per-survivor counts), all %d acked PUTs readable",
		ownedByLeaver, total)
}

// ------------------------------------------------------------- leg D --

// TestScaleRehomeTTL drives a drain on a shared fake clock and asserts
// re-homed entries expire at their original deadline on the new owner:
// neither re-stamped with the receiver's default TTL nor restarted.
func TestScaleRehomeTTL(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	cfg := service.Config{Shards: 1, LinesPerShard: 1024, MaxTenants: 4, Seed: 3, Clock: fake,
		// A default TTL the REHOME must NOT re-stamp onto entries that
		// carry their own deadline (or none).
		DefaultTTL: time.Hour}
	nodes := startScaleCluster(t, 2, cfg, service.ServerConfig{})
	a, b := nodes[0], nodes[1]
	if _, err := a.svc.AddTenant("t"); err != nil {
		t.Fatal(err)
	}
	// Stored on A directly (routing is irrelevant to a drain: everything
	// A holds that the new ring homes elsewhere moves).
	if err := a.svc.PutTTL("t", "ttl10", []byte("x"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.svc.PutTTL("t", "never", []byte("y"), 0); err != nil {
		t.Fatal(err)
	}

	fake.Advance(4 * time.Second) // 6s of TTL left
	moved, err := a.node.SetMembers([]string{b.addr})
	if err != nil {
		t.Fatal(err)
	}
	if moved != 2 {
		t.Fatalf("drained %d keys, want 2", moved)
	}
	if _, hit, _ := b.svc.Get("t", "ttl10"); !hit {
		t.Fatal("ttl10 missing on the new owner right after the drain")
	}

	fake.Advance(5 * time.Second) // t=9s: 1s before the original deadline
	if _, hit, _ := b.svc.Get("t", "ttl10"); !hit {
		t.Fatal("ttl10 expired early: remaining TTL was not preserved")
	}
	fake.Advance(2 * time.Second) // t=11s: past the original 10s deadline
	if _, hit, _ := b.svc.Get("t", "ttl10"); hit {
		t.Fatal("ttl10 alive past its original deadline: TTL was restarted or re-stamped in transit")
	}
	if val, hit, _ := b.svc.Get("t", "never"); !hit || string(val) != "y" {
		t.Fatal("never-expiring entry lost or re-stamped with a TTL by the drain")
	}
	recordResult("ttl: re-homed entry expired exactly at its original deadline on the new owner; never-expire preserved against a 1h receiver default TTL")
}
