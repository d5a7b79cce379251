// Command vantaged is a concurrent multi-tenant key-value cache daemon
// driven by the Vantage controller: a sharded in-memory cache where each
// tenant maps to a Vantage partition, capacity targets are set online by
// UCP from live per-tenant utility monitors, and Vantage's fine-grain
// partitioning provides isolation among tenants on real traffic.
//
// Usage:
//
//	vantaged [-listen :7171] [-metrics :7172] [-pprof] [flags]
//	vantaged [-cluster a:7171,b:7171,c:7171 -advertise a:7171] [flags]
//	vantaged bench [-addr host:port] [flags]
//	vantaged proxy -cluster a:7171,b:7171,c:7171 [-listen :7170]
//
// The daemon speaks a memcached-style text protocol (GET/PUT/DEL, TENANT
// admin verbs, STATS; see internal/service) and exports Prometheus metrics
// on /metrics: per-tenant hit rate, occupancy vs. target, demotions, and
// forced managed evictions. SIGINT/SIGTERM shut it down gracefully.
//
// "vantaged bench" is the built-in load generator: it replays synthetic
// workload models (the paper's Table 3 categories) as concurrent tenants
// and reports per-tenant hit rates plus aggregate throughput — run it
// against a live daemon, or with no -addr to self-host one in-process.
//
// -cluster runs the daemon as one node of a static cluster: tenant
// registrations replicate to every listed peer, CLUSTER MEMBERS re-homes
// keys on join/leave, and ring-aware clients (or "vantaged proxy", a thin
// forwarder for clients that are not) route each key to its owner.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vantage/internal/cluster"
	"vantage/internal/service"
)

// linesPerShard splits a -lines capacity across -shards. service.New
// treats a zero LinesPerShard as "use the default", so a capacity below the
// shard count must be rejected here rather than silently served at 8,192
// lines per shard.
func linesPerShard(lines, shards int) (int, error) {
	if shards <= 0 {
		return 0, fmt.Errorf("-shards must be positive (got %d)", shards)
	}
	if lines < shards {
		return 0, fmt.Errorf("-lines %d is less than one line per shard (-shards %d)", lines, shards)
	}
	return lines / shards, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		benchMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "proxy" {
		proxyMain(os.Args[2:])
		return
	}

	listen := flag.String("listen", ":7171", "cache protocol listen address")
	metrics := flag.String("metrics", ":7172", "HTTP listen address for /metrics (empty disables)")
	shards := flag.Int("shards", 4, "cache shards (power of two)")
	lines := flag.Int("lines", 131072, "total capacity in lines (entries), split across shards")
	ways := flag.Int("ways", 4, "zcache ways")
	cands := flag.Int("cands", 52, "zcache replacement candidates")
	maxTenants := flag.Int("max-tenants", 16, "partition slots per shard")
	unmanaged := flag.Float64("unmanaged", 0.05, "unmanaged region fraction")
	amax := flag.Float64("amax", 0.5, "maximum aperture")
	slack := flag.Float64("slack", 0.1, "feedback slack")
	repartition := flag.Duration("repartition", 250*time.Millisecond, "online UCP repartition interval")
	defaultTTL := flag.Duration("default-ttl", 0, "TTL applied to PUTs without an EXPIRE clause (0 = entries never expire)")
	sweepInterval := flag.Duration("sweep-interval", 0, "background expiry sweep interval per shard (0 = lazy expiry only)")
	sweepBatch := flag.Int("sweep-batch", 0, "max expired entries reclaimed per sweep pass per shard (0 = 128 default)")
	seed := flag.Uint64("seed", 2011, "hash seed (perturbs shard routing, arrays, monitors)")
	tenants := flag.String("tenants", "", "comma-separated tenant names to pre-register")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the metrics address")
	maxConns := flag.Int("max-conns", 0, "max concurrent connections; extras are fast-rejected with BUSY (0 = unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "max data commands in flight across all connections (0 = unlimited)")
	maxTenantInflight := flag.Int("max-inflight-tenant", 0, "max data commands in flight per tenant (0 = unlimited)")
	inflightWait := flag.Duration("inflight-wait", 0, "backpressure wait for a global in-flight slot before shedding (0 = 10ms default when -max-inflight is set)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle (or dribbling a command line) longer than this (0 = never)")
	readTimeout := flag.Duration("read-timeout", 0, "deadline for reading a PUT value block (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "deadline for flushing responses (0 = never)")
	faultSpec := flag.String("fault", "", "fault injection spec, e.g. 'err=0.01,drop=0.001,delay=0.05:2ms,ops=get|put,tenants=a|b,seed=1' (empty disables)")
	clusterList := flag.String("cluster", "", "comma-separated member addresses; run as one node of this cluster (empty = solo)")
	advertise := flag.String("advertise", "", "this node's address within -cluster (default: the -listen address)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "consistent-hash virtual nodes per member (must match across the cluster)")
	trackLatency := flag.Bool("track-latency", false, "record per-request service latency (exported as a histogram on /metrics)")
	flag.Parse()

	perShard, err := linesPerShard(*lines, *shards)
	exitOn("vantaged", 2, err)
	svc, err := service.New(service.Config{
		Shards:              *shards,
		LinesPerShard:       perShard,
		Ways:                *ways,
		Candidates:          *cands,
		MaxTenants:          *maxTenants,
		UnmanagedFrac:       *unmanaged,
		AMax:                *amax,
		Slack:               *slack,
		RepartitionInterval: *repartition,
		DefaultTTL:          *defaultTTL,
		SweepInterval:       *sweepInterval,
		SweepBatch:          *sweepBatch,
		Seed:                *seed,
		TrackLatency:        *trackLatency,
	})
	exitOn("vantaged", 1, err)
	for _, name := range splitList(*tenants) {
		_, err := svc.AddTenant(name)
		exitOn("vantaged", 1, err)
	}

	if *faultSpec != "" {
		plan, err := service.ParseFaultSpec(*faultSpec)
		exitOn("vantaged", 1, err)
		svc.SetFaultInjector(plan)
		fmt.Fprintf(os.Stderr, "vantaged: fault injection active: %s\n", *faultSpec)
	}

	lis, err := net.Listen("tcp", *listen)
	exitOn("vantaged", 1, err)
	srv := service.ServeWith(svc, lis, service.ServerConfig{
		MaxConns:          *maxConns,
		MaxInflight:       *maxInflight,
		MaxTenantInflight: *maxTenantInflight,
		InflightWait:      *inflightWait,
		IdleTimeout:       *idleTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	})
	fmt.Fprintf(os.Stderr, "vantaged: serving on %s (%d shards x %d lines, %d tenant slots)\n",
		srv.Addr(), *shards, perShard, *maxTenants)

	if *clusterList != "" {
		members := splitList(*clusterList)
		self := *advertise
		if self == "" {
			self = srv.Addr().String()
		}
		node, err := cluster.NewNode(svc, self, members, *vnodes)
		exitOn("vantaged", 1, err)
		svc.SetClusterHandler(node)
		// Catch up on registrations made while this node was down (or
		// before it joined). Peers that are not up yet are fine: the first
		// reachable one has the converged registry.
		if err := node.Bootstrap(); err != nil {
			fmt.Fprintln(os.Stderr, "vantaged: cluster bootstrap:", err)
		}
		fmt.Fprintf(os.Stderr, "vantaged: cluster node %s of %v (%d vnodes)\n", self, members, *vnodes)
	}

	stopMetrics := serveMetrics("vantaged", *metrics, svc.MetricsHandler(), *pprofOn)
	awaitSignal("vantaged")
	srv.Close()
	stopMetrics()
	svc.Close()
}

// serveMetrics serves metrics on addr's /metrics, with /healthz, unless addr
// is empty, and returns the function that stops serving. pprofOn adds the
// net/http/pprof handlers. who prefixes its log lines.
func serveMetrics(who, addr string, metrics http.Handler, pprofOn bool) (stop func()) {
	if addr == "" {
		return func() {}
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if pprofOn {
		// Opt-in: the handlers expose stack traces and timings, so they
		// are off unless explicitly requested, and the explicit mux keeps
		// them off http.DefaultServeMux.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", who, addr)
	}
	httpSrv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "%s: metrics: %v\n", who, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics\n", who, addr)
	return func() { httpSrv.Close() }
}

// exitOn reports a non-nil err under who and exits with code.
func exitOn(who string, code int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, who+":", err)
		os.Exit(code)
	}
}

// awaitSignal blocks until SIGINT or SIGTERM and logs the shutdown.
func awaitSignal(who string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(os.Stderr, "%s: shutting down\n", who)
}
