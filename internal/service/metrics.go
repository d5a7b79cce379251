package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"vantage/internal/latency"
)

// TenantStats is one tenant's externally visible state: request counters
// from the service layer plus capacity state and controller counters summed
// across shards.
type TenantStats struct {
	Name      string
	Partition int

	// Request-path counters (service layer). Expired counts reads and
	// touches that found an entry past its TTL; such reads are misses but
	// are not included in Misses (gets = hits + misses + expired).
	Gets, Puts   uint64
	Hits, Misses uint64
	Expired      uint64

	// Capacity state summed over shards.
	OccupancyLines, TargetLines int

	// Controller counters summed over shards: demotions into the unmanaged
	// region, and forced managed evictions this tenant's fills caused.
	Demotions       uint64
	ForcedEvictions uint64

	// Shed counts data commands refused by the per-tenant in-flight limit
	// (serving-layer overload protection; see protocol.go).
	Shed uint64
}

// HitRate returns hits/gets in [0,1] (zero when the tenant has no gets).
func (t TenantStats) HitRate() float64 {
	if t.Gets == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Gets)
}

// Stats is a consistent-enough snapshot of the whole service: each shard is
// snapshotted atomically, its request counters included, so a snapshot never
// sees half of a request's accounting; the serving layer's totals are
// atomics.
type Stats struct {
	Tenants []TenantStats // sorted by name

	Ops          uint64
	MGets        uint64 // MGET batch commands served by the protocol layer
	Repartitions uint64

	// Deprecated: UMONDrains is always 0. The UMONs are fed inline under
	// the shard lock, so there is no deferred-sample ring to drain.
	UMONDrains uint64

	// TTL/expiry counters: reads that observed an expired entry, and the
	// background sweeper's reclaimed lines and passes summed over shards.
	// ExpHeapEntries is the current expiry-hint heap population summed over
	// shards — bounded by compaction (see sweep.go pushHint).
	Expired        uint64
	SweepLines     uint64
	SweepPasses    uint64
	ExpHeapEntries int

	// Overload counters from the protocol layer (see protocol.go).
	ConnsRejected  uint64 // connections fast-rejected with BUSY
	RequestsShed   uint64 // data commands refused by in-flight limits
	DeadlineCloses uint64 // connections reaped by read/write deadlines

	// Binary-protocol counters (see binproto.go).
	BinConns       uint64 // connections that negotiated binary framing
	BinConnsActive int64  // currently open binary connections
	BinFrames      uint64 // binary request frames dispatched
	BmgetKeys      uint64 // keys carried by BMGET multi-key frames

	// Cluster state (see cluster.go). ClusterPeers is 0 when no cluster
	// handler is installed; ClusterRegistryVersion converges across peers.
	ClusterPeers           int
	ClusterRegistryVersion uint64
	ClusterRehomedKeys     uint64 // keys drained to peers on membership changes
	ClusterRehomedIn       uint64 // keys received from draining peers

	// Request-latency histogram (Config.TrackLatency): log2 bucket counts
	// (see internal/latency for bounds) and the running sum. Nil when disabled.
	LatencyCounts []uint64
	LatencySumNS  uint64

	Shards, LinesPerShard, TotalLines int
	StoreEntries                      int
	UnmanagedLines                    int
	Uptime                            time.Duration
}

// LatencyQuantile estimates quantile q (0..1) from the Stats snapshot's
// histogram, returning the upper bound of the bucket containing the q-th
// observation — a conservative (over-)estimate, which is the right
// direction for asserting p99 bounds. Returns 0 when the histogram is
// disabled or empty.
func (st Stats) LatencyQuantile(q float64) time.Duration {
	return latency.Quantile(st.LatencyCounts, q)
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	st := Stats{
		MGets:                  s.mgets.Load(),
		ConnsRejected:          s.connsRejected.Load(),
		RequestsShed:           s.requestsShed.Load(),
		DeadlineCloses:         s.deadlineCloses.Load(),
		BinConns:               s.binConnsTotal.Load(),
		BinConnsActive:         s.binConns.Load(),
		BinFrames:              s.binFrames.Load(),
		BmgetKeys:              s.bmgetKeys.Load(),
		Repartitions:           s.repartitions.Load(),
		ClusterRegistryVersion: s.clusterVersion.Load(),
		ClusterRehomedKeys:     s.rehomedOut.Load(),
		ClusterRehomedIn:       s.rehomedIn.Load(),
		Shards:                 s.cfg.Shards,
		LinesPerShard:          s.cfg.LinesPerShard,
		TotalLines:             s.TotalLines(),
		Uptime:                 s.clk.Now().Sub(s.start),
	}
	if h := s.clusterHandler(); h != nil {
		st.ClusterPeers = h.Peers()
	}
	if s.latency != nil {
		st.LatencyCounts, st.LatencySumNS = s.latency.Snapshot()
	}

	reg := s.reg.Load()
	tenants := make([]*Tenant, 0, len(reg.tenants))
	for _, t := range reg.tenants {
		tenants = append(tenants, t)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })

	// Per-partition sums over shards, one snapshot per shard lock hold.
	parts := make([]TenantStats, s.cfg.MaxTenants)
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.snap = sh.ctl.SnapshotPartitions(sh.snap[:0])
		for p, ps := range sh.snap {
			ts, c := &parts[p], &sh.cnt[p]
			ts.OccupancyLines += ps.Size
			ts.TargetLines += ps.Target
			ts.Demotions += ps.Demotions
			ts.Gets += c.gets
			ts.Puts += c.puts
			ts.Hits += c.hits
			ts.Misses += c.misses
			ts.Expired += c.expired
			ts.ForcedEvictions += c.forced
		}
		st.Ops += sh.ops
		st.Expired += sh.expired
		st.StoreEntries += sh.live
		st.UnmanagedLines += sh.ctl.UnmanagedSize()
		st.SweepLines += sh.sweepLines
		st.SweepPasses += sh.sweepPasses
		st.ExpHeapEntries += len(sh.exph)
		sh.mu.Unlock()
	}

	for _, t := range tenants {
		ts := parts[t.part]
		ts.Name, ts.Partition, ts.Shed = t.name, t.part, t.shed.Load()
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}

// TenantStats returns one tenant's snapshot.
func (s *Service) TenantStats(name string) (TenantStats, error) {
	if _, err := s.tenant(name); err != nil {
		return TenantStats{}, err
	}
	for _, ts := range s.Stats().Tenants {
		if ts.Name == name {
			return ts, nil
		}
	}
	return TenantStats{}, fmt.Errorf("service: unknown tenant %q", name)
}

// MetricsHandler returns an http.Handler exporting the service's state in
// Prometheus text exposition format, for a /metrics endpoint.
func (s *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		writeMetrics(&b, s.Stats())
		_, _ = w.Write([]byte(b.String()))
	})
}

// writeMetrics renders st in Prometheus text format.
func writeMetrics(b *strings.Builder, st Stats) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("vantaged_ops_total", "Requests served (GET+PUT+DEL).", st.Ops)
	counter("vantaged_mgets_total", "MGET batch commands served.", st.MGets)
	counter("vantaged_conns_rejected_total", "Connections fast-rejected with BUSY at the connection cap.", st.ConnsRejected)
	counter("vantaged_requests_shed_total", "Data commands refused by in-flight limits.", st.RequestsShed)
	counter("vantaged_deadline_closes_total", "Connections reaped by read/write deadlines.", st.DeadlineCloses)
	counter("vantaged_repartitions_total", "Online UCP repartitionings.", st.Repartitions)
	counter("vantaged_expired_total", "Reads and touches that found an expired entry.", st.Expired)
	counter("vantaged_sweep_lines_total", "Expired entries reclaimed by the background sweeper.", st.SweepLines)
	counter("vantaged_sweep_passes_total", "Expiry sweep passes executed.", st.SweepPasses)
	counter("vantaged_bin_conns_total", "Connections that negotiated binary framing.", st.BinConns)
	counter("vantaged_bin_frames_total", "Binary request frames dispatched.", st.BinFrames)
	counter("vantaged_bmget_keys_total", "Keys carried by BMGET multi-key frames.", st.BmgetKeys)
	gauge("vantaged_bin_conns_active", "Currently open binary connections.", float64(st.BinConnsActive))
	gauge("vantaged_exp_heap_entries", "Expiry-hint heap entries across shards.", float64(st.ExpHeapEntries))
	gauge("vantaged_shards", "Cache shards.", float64(st.Shards))
	gauge("vantaged_cache_lines", "Total capacity in lines.", float64(st.TotalLines))
	gauge("vantaged_store_entries", "Values currently stored.", float64(st.StoreEntries))
	gauge("vantaged_unmanaged_lines", "Lines in the unmanaged regions.", float64(st.UnmanagedLines))
	gauge("vantaged_tenants", "Registered tenants.", float64(len(st.Tenants)))
	gauge("vantaged_uptime_seconds", "Seconds since start.", st.Uptime.Seconds())
	gauge("vantaged_cluster_peers", "Cluster peers this node replicates to (0 outside cluster mode).", float64(st.ClusterPeers))
	gauge("vantaged_cluster_registry_version", "Replicated tenant-registry version (converges across peers).", float64(st.ClusterRegistryVersion))
	counter("vantaged_cluster_rehomed_keys_total", "Keys drained to peers on membership changes.", st.ClusterRehomedKeys)
	counter("vantaged_cluster_rehomed_in_keys_total", "Keys received from draining peers.", st.ClusterRehomedIn)
	if st.LatencyCounts != nil {
		name := "vantaged_request_latency_seconds"
		fmt.Fprintf(b, "# HELP %s Request service time (text dispatch and binary shard execution).\n# TYPE %s histogram\n", name, name)
		var cum uint64
		for i, c := range st.LatencyCounts {
			cum += c
			if i == len(st.LatencyCounts)-1 {
				fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			} else {
				fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, float64(latency.BucketUpperNS(i))/1e9, cum)
			}
		}
		fmt.Fprintf(b, "%s_sum %g\n", name, float64(st.LatencySumNS)/1e9)
		fmt.Fprintf(b, "%s_count %d\n", name, cum)
	}

	perTenant := []struct {
		name, help, typ string
		value           func(t TenantStats) float64
	}{
		{"vantaged_tenant_gets_total", "GET requests by tenant.", "counter", func(t TenantStats) float64 { return float64(t.Gets) }},
		{"vantaged_tenant_puts_total", "PUT requests by tenant.", "counter", func(t TenantStats) float64 { return float64(t.Puts) }},
		{"vantaged_tenant_hits_total", "GET hits by tenant.", "counter", func(t TenantStats) float64 { return float64(t.Hits) }},
		{"vantaged_tenant_misses_total", "GET misses by tenant.", "counter", func(t TenantStats) float64 { return float64(t.Misses) }},
		{"vantaged_tenant_expired_total", "Reads and touches that found an expired entry, by tenant.", "counter", func(t TenantStats) float64 { return float64(t.Expired) }},
		{"vantaged_tenant_hit_ratio", "Lifetime hit ratio by tenant.", "gauge", func(t TenantStats) float64 { return t.HitRate() }},
		{"vantaged_tenant_occupancy_lines", "Actual partition size by tenant.", "gauge", func(t TenantStats) float64 { return float64(t.OccupancyLines) }},
		{"vantaged_tenant_target_lines", "Vantage capacity target by tenant.", "gauge", func(t TenantStats) float64 { return float64(t.TargetLines) }},
		{"vantaged_tenant_demotions_total", "Lines demoted to the unmanaged region by tenant.", "counter", func(t TenantStats) float64 { return float64(t.Demotions) }},
		{"vantaged_tenant_forced_managed_evictions_total", "Forced managed evictions caused by tenant fills.", "counter", func(t TenantStats) float64 { return float64(t.ForcedEvictions) }},
		{"vantaged_tenant_shed_total", "Data commands refused by the per-tenant in-flight limit.", "counter", func(t TenantStats) float64 { return float64(t.Shed) }},
	}
	for _, m := range perTenant {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, t := range st.Tenants {
			fmt.Fprintf(b, "%s{tenant=%q} %g\n", m.name, t.Name, m.value(t))
		}
	}
}
