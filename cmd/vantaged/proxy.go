package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"vantage/internal/cluster"
	"vantage/internal/service"
)

// proxyMain runs "vantaged proxy": a pooled, pipelined consistent-hash
// forwarder that lets ring-unaware clients talk to a cluster through one
// address. Hot data commands on both wire fronts (text and binary) ride
// persistent per-backend binary connections shared across clients; see
// internal/cluster/proxy.go.
func proxyMain(args []string) {
	fs := flag.NewFlagSet("vantaged proxy", flag.ExitOnError)
	listen := fs.String("listen", ":7170", "proxy listen address")
	clusterList := fs.String("cluster", "", "comma-separated member addresses (required)")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "consistent-hash virtual nodes per member (must match the nodes)")
	metricsAddr := fs.String("metrics", "", "HTTP listen address for the proxy's own /metrics (empty disables)")
	trackLatency := fs.Bool("track-latency", false, "record per-request forwarding latency (exported as a histogram on /metrics and via STATS)")
	fs.Parse(args)

	members := splitList(*clusterList)
	if len(members) == 0 {
		fmt.Fprintln(os.Stderr, "vantaged proxy: -cluster is required")
		os.Exit(2)
	}
	lis, err := net.Listen("tcp", *listen)
	exitOn("vantaged proxy", 1, err)
	p, err := cluster.NewProxyWith(lis, members, *vnodes, cluster.ProxyConfig{TrackLatency: *trackLatency})
	exitOn("vantaged proxy", 1, err)
	fmt.Fprintf(os.Stderr, "vantaged proxy: forwarding %s -> %v (%d vnodes)\n", p.Addr(), members, *vnodes)

	stopMetrics := serveMetrics("vantaged proxy", *metricsAddr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeProxyMetrics(w, p.Stats())
	}), false)
	awaitSignal("vantaged proxy")
	stopMetrics()
	p.Close()
}

// writeProxyMetrics renders the proxy's own counters in the Prometheus
// text exposition format, using the same histogram bucket layout the
// nodes export so dashboards can overlay node and proxy latency.
func writeProxyMetrics(w http.ResponseWriter, st cluster.ProxyStats) {
	fmt.Fprintf(w, "# TYPE vantaged_proxy_pool_conns gauge\n")
	fmt.Fprintf(w, "vantaged_proxy_pool_conns %d\n", st.PoolConns)
	fmt.Fprintf(w, "# TYPE vantaged_proxy_pool_conns_total counter\n")
	fmt.Fprintf(w, "vantaged_proxy_pool_conns_total %d\n", st.PoolConnsTotal)
	fmt.Fprintf(w, "# TYPE vantaged_proxy_pipelined_frames_total counter\n")
	fmt.Fprintf(w, "vantaged_proxy_pipelined_frames_total %d\n", st.PipelinedFrames)
	if st.LatencyCounts == nil {
		return
	}
	service.WriteLatencyHistogram(w, "vantaged_proxy_request_latency_seconds", "Proxy forwarding time, submit to response.", st.LatencyCounts, st.LatencySumNS)
}

// splitList parses a comma-separated list (-cluster's addresses, -tenants'
// names), trimming blanks and dropping empty entries.
func splitList(list string) []string {
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
