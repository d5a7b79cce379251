package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"vantage/internal/hash"
	"vantage/internal/service"
	"vantage/internal/service/loadgen"
	"vantage/internal/workload"
)

// benchMain runs the built-in load generator. Tenant specs are
// "name=class[:conns]" with class one of friendly, fitting, stream,
// insensitive (the paper's Table 3 categories); working sets scale to
// -lines the way internal/workload scales them to cache capacity.
func benchMain(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	addr := fs.String("addr", "", "vantaged address; empty self-hosts an in-process server")
	tenants := fs.String("tenants", "friendly=friendly:2,stream=stream:2", "tenant specs name=class[:conns]")
	ops := fs.Int("ops", 20000, "operations per connection")
	valueSize := fs.Int("value", 64, "value size in bytes")
	batch := fs.Int("batch", 1, "keys per MGET batch (1 = plain GET round trips)")
	bin := fs.Bool("bin", false, "speak the binary wire protocol (batch > 1 pipelines GET frames)")
	lines := fs.Int("lines", 32768, "cache capacity in lines the workloads scale to (self-host size)")
	shards := fs.Int("shards", 4, "shards when self-hosting")
	repartition := fs.Duration("repartition", 50*time.Millisecond, "repartition interval when self-hosting")
	seed := fs.Uint64("seed", 2011, "workload and cache seed")
	chaos := fs.Bool("chaos", false, "overload-tolerant mode: count BUSY/shed/fault/dropped instead of aborting")
	maxConns := fs.Int("max-conns", 0, "self-host: max concurrent connections, extras get BUSY (0 = unlimited)")
	maxInflight := fs.Int("max-inflight", 0, "self-host: max data commands in flight (0 = unlimited)")
	faultSpec := fs.String("fault", "", "self-host: fault injection spec (see vantaged -fault)")
	fs.Parse(args)

	specs, err := parseTenantSpecs(*tenants, *lines, *seed)
	exitOn("vantaged bench", 2, err)

	target := *addr
	var svc *service.Service
	var srv *service.Server
	if target == "" {
		perShard, err := linesPerShard(*lines, *shards)
		exitOn("vantaged bench", 2, err)
		svc, err = service.New(service.Config{
			Shards:              *shards,
			LinesPerShard:       perShard,
			RepartitionInterval: *repartition,
			Seed:                *seed,
		})
		exitOn("vantaged bench", 1, err)
		if *faultSpec != "" {
			plan, err := service.ParseFaultSpec(*faultSpec)
			exitOn("vantaged bench", 1, err)
			svc.SetFaultInjector(plan)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		exitOn("vantaged bench", 1, err)
		srv = service.ServeWith(svc, lis, service.ServerConfig{
			MaxConns:    *maxConns,
			MaxInflight: *maxInflight,
		})
		target = srv.Addr().String()
		fmt.Fprintf(os.Stderr, "vantaged bench: self-hosted server on %s\n", target)
	}

	res, err := loadgen.Run(loadgen.Options{
		Addr:       target,
		Tenants:    specs,
		OpsPerConn: *ops,
		ValueSize:  *valueSize,
		Batch:      *batch,
		Chaos:      *chaos,
		Binary:     *bin,
	})
	exitOn("vantaged bench", 1, err)

	fmt.Printf("%-12s %10s %10s %10s %8s\n", "tenant", "gets", "hits", "puts", "hitrate")
	for _, t := range res.Tenants {
		fmt.Printf("%-12s %10d %10d %10d %7.1f%%\n", t.Name, t.Gets, t.Hits, t.Puts, 100*t.HitRate())
	}
	fmt.Printf("total: %d ops in %.2fs = %.0f ops/sec\n", res.Ops, res.Elapsed.Seconds(), res.OpsPerSec)
	if *chaos {
		fmt.Printf("chaos: rejected=%d shed=%d injected=%d dropped=%d\n",
			res.Rejected, res.Shed, res.Injected, res.Dropped)
	}

	if srv != nil {
		srv.Close()
		svc.Close()
	}
}

// parseTenantSpecs parses "name=class[:conns],..." into loadgen tenants.
func parseTenantSpecs(spec string, cacheLines int, seed uint64) ([]loadgen.Tenant, error) {
	var out []loadgen.Tenant
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, rest, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant spec %q (want name=class[:conns])", field)
		}
		class := rest
		conns := 1
		if c, n, ok := strings.Cut(rest, ":"); ok {
			class = c
			v, err := strconv.Atoi(n)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("bad connection count in %q", field)
			}
			conns = v
		}
		cat, err := parseCategory(class)
		if err != nil {
			return nil, err
		}
		out = append(out, loadgen.Tenant{
			Name:  name,
			Conns: conns,
			MakeApp: func(conn int) workload.App {
				s := hash.Mix64(seed ^ uint64(conn)<<16 ^ hashString(name))
				return loadgen.CategoryApp(cat, cacheLines, s)
			},
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in spec %q", spec)
	}
	return out, nil
}

func parseCategory(class string) (workload.Category, error) {
	switch strings.ToLower(class) {
	case "insensitive", "n":
		return workload.Insensitive, nil
	case "friendly", "f":
		return workload.Friendly, nil
	case "fitting", "t":
		return workload.Fitting, nil
	case "stream", "thrashing", "s":
		return workload.Thrashing, nil
	}
	return 0, fmt.Errorf("unknown workload class %q (want friendly|fitting|stream|insensitive)", class)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
