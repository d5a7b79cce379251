package service

import (
	"fmt"
	"io"
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
	return TenantStats{}, errUnknownTenant(name)
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

// A statRow is one field of Stats (T is Stats) or of TenantStats as STATS
// and /metrics print it: its STATS name, its metric's name, type and help,
// and its value. A count has n, which both print exactly; a ratio or a
// duration has f, which /metrics prints. STATS prints n when a row has
// one, else f to four places, so uptime has both: whole seconds for STATS.
type statRow[T any] struct {
	stat, metric, kind, help string
	n                        func(*T) uint64
	f                        func(*T) float64
}

const counter, gauge = "counter", "gauge"

// serviceStats are the service-wide Stats fields in the order STATS
// prints them.
var serviceStats = []statRow[Stats]{
	{"ops", "vantaged_ops_total", counter, "Requests served (GET+PUT+DEL).", func(st *Stats) uint64 { return st.Ops }, nil},
	{"mgets", "vantaged_mgets_total", counter, "MGET batch commands served.", func(st *Stats) uint64 { return st.MGets }, nil},
	{"conns_rejected", "vantaged_conns_rejected_total", counter, "Connections fast-rejected with BUSY at the connection cap.", func(st *Stats) uint64 { return st.ConnsRejected }, nil},
	{"requests_shed", "vantaged_requests_shed_total", counter, "Data commands refused by in-flight limits.", func(st *Stats) uint64 { return st.RequestsShed }, nil},
	{"deadline_closes", "vantaged_deadline_closes_total", counter, "Connections reaped by read/write deadlines.", func(st *Stats) uint64 { return st.DeadlineCloses }, nil},
	{"repartitions", "vantaged_repartitions_total", counter, "Online UCP repartitionings.", func(st *Stats) uint64 { return st.Repartitions }, nil},
	{"expired_total", "vantaged_expired_total", counter, "Reads and touches that found an expired entry.", func(st *Stats) uint64 { return st.Expired }, nil},
	{"sweep_lines", "vantaged_sweep_lines_total", counter, "Expired entries reclaimed by the background sweeper.", func(st *Stats) uint64 { return st.SweepLines }, nil},
	{"sweep_passes", "vantaged_sweep_passes_total", counter, "Expiry sweep passes executed.", func(st *Stats) uint64 { return st.SweepPasses }, nil},
	{"exp_heap_entries", "vantaged_exp_heap_entries", gauge, "Expiry-hint heap entries across shards.", func(st *Stats) uint64 { return uint64(st.ExpHeapEntries) }, nil},
	{"bin_conns", "vantaged_bin_conns_total", counter, "Connections that negotiated binary framing.", func(st *Stats) uint64 { return st.BinConns }, nil},
	{"bin_conns_active", "vantaged_bin_conns_active", gauge, "Currently open binary connections.", func(st *Stats) uint64 { return uint64(st.BinConnsActive) }, nil},
	{"bin_frames", "vantaged_bin_frames_total", counter, "Binary request frames dispatched.", func(st *Stats) uint64 { return st.BinFrames }, nil},
	{"bmget_keys", "vantaged_bmget_keys_total", counter, "Keys carried by BMGET multi-key frames.", func(st *Stats) uint64 { return st.BmgetKeys }, nil},
	{"shards", "vantaged_shards", gauge, "Cache shards.", func(st *Stats) uint64 { return uint64(st.Shards) }, nil},
	{"cache_lines", "vantaged_cache_lines", gauge, "Total capacity in lines.", func(st *Stats) uint64 { return uint64(st.TotalLines) }, nil},
	{"store_entries", "vantaged_store_entries", gauge, "Values currently stored.", func(st *Stats) uint64 { return uint64(st.StoreEntries) }, nil},
	{"unmanaged_lines", "vantaged_unmanaged_lines", gauge, "Lines in the unmanaged regions.", func(st *Stats) uint64 { return uint64(st.UnmanagedLines) }, nil},
	{"tenants", "vantaged_tenants", gauge, "Registered tenants.", func(st *Stats) uint64 { return uint64(len(st.Tenants)) }, nil},
	{"cluster_peers", "vantaged_cluster_peers", gauge, "Cluster peers this node replicates to (0 outside cluster mode).", func(st *Stats) uint64 { return uint64(st.ClusterPeers) }, nil},
	{"cluster_registry_version", "vantaged_cluster_registry_version", gauge, "Replicated tenant-registry version (converges across peers).", func(st *Stats) uint64 { return st.ClusterRegistryVersion }, nil},
	{"cluster_rehomed_keys", "vantaged_cluster_rehomed_keys_total", counter, "Keys drained to peers on membership changes.", func(st *Stats) uint64 { return st.ClusterRehomedKeys }, nil},
	{"cluster_rehomed_in_keys", "vantaged_cluster_rehomed_in_keys_total", counter, "Keys received from draining peers.", func(st *Stats) uint64 { return st.ClusterRehomedIn }, nil},
	{"uptime_seconds", "vantaged_uptime_seconds", gauge, "Seconds since start.", func(st *Stats) uint64 { return uint64(st.Uptime.Seconds()) },
		func(st *Stats) float64 { return st.Uptime.Seconds() }},
}

// tenantStats are the TenantStats fields in the order STATS prints them.
var tenantStats = []statRow[TenantStats]{
	{"gets", "vantaged_tenant_gets_total", counter, "GET requests by tenant.", func(t *TenantStats) uint64 { return t.Gets }, nil},
	{"puts", "vantaged_tenant_puts_total", counter, "PUT requests by tenant.", func(t *TenantStats) uint64 { return t.Puts }, nil},
	{"hits", "vantaged_tenant_hits_total", counter, "GET hits by tenant.", func(t *TenantStats) uint64 { return t.Hits }, nil},
	{"misses", "vantaged_tenant_misses_total", counter, "GET misses by tenant.", func(t *TenantStats) uint64 { return t.Misses }, nil},
	{"expired", "vantaged_tenant_expired_total", counter, "Reads and touches that found an expired entry, by tenant.", func(t *TenantStats) uint64 { return t.Expired }, nil},
	{"hit_rate", "vantaged_tenant_hit_ratio", gauge, "Lifetime hit ratio by tenant.", nil, func(t *TenantStats) float64 { return t.HitRate() }},
	{"occupancy_lines", "vantaged_tenant_occupancy_lines", gauge, "Actual partition size by tenant.", func(t *TenantStats) uint64 { return uint64(t.OccupancyLines) }, nil},
	{"target_lines", "vantaged_tenant_target_lines", gauge, "Vantage capacity target by tenant.", func(t *TenantStats) uint64 { return uint64(t.TargetLines) }, nil},
	{"demotions", "vantaged_tenant_demotions_total", counter, "Lines demoted to the unmanaged region by tenant.", func(t *TenantStats) uint64 { return t.Demotions }, nil},
	{"forced_evictions", "vantaged_tenant_forced_managed_evictions_total", counter, "Forced managed evictions caused by tenant fills.", func(t *TenantStats) uint64 { return t.ForcedEvictions }, nil},
	{"shed", "vantaged_tenant_shed_total", counter, "Data commands refused by the per-tenant in-flight limit.", func(t *TenantStats) uint64 { return t.Shed }, nil},
}

// appendStat appends v's row m as a STATS line.
func (m statRow[T]) appendStat(dst []byte, prefix string, v *T) []byte {
	if m.n != nil {
		return fmt.Appendf(dst, "STAT %s%s %d\r\n", prefix, m.stat, m.n(v))
	}
	return fmt.Appendf(dst, "STAT %s%s %.4f\r\n", prefix, m.stat, m.f(v))
}

// writeHeader writes row m's /metrics HELP and TYPE lines.
func (m statRow[T]) writeHeader(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.metric, m.help, m.metric, m.kind)
}

// writeSample writes v's row m as a /metrics sample with labels.
func (m statRow[T]) writeSample(w io.Writer, labels string, v *T) {
	if m.f != nil {
		fmt.Fprintf(w, "%s%s %g\n", m.metric, labels, m.f(v))
	} else {
		fmt.Fprintf(w, "%s%s %d\n", m.metric, labels, m.n(v))
	}
}

// writeMetrics renders st in Prometheus text format.
func writeMetrics(b *strings.Builder, st Stats) {
	for _, m := range serviceStats {
		m.writeHeader(b)
		m.writeSample(b, "", &st)
	}
	if st.LatencyCounts != nil {
		WriteLatencyHistogram(b, "vantaged_request_latency_seconds", "Request service time (text dispatch and binary shard execution).", st.LatencyCounts, st.LatencySumNS)
	}
	for _, m := range tenantStats {
		m.writeHeader(b)
		for i := range st.Tenants {
			m.writeSample(b, fmt.Sprintf("{tenant=%q}", st.Tenants[i].Name), &st.Tenants[i])
		}
	}
}

// WriteLatencyHistogram renders a latency.Hist snapshot, its bucket counts
// and running sum in nanoseconds, as the Prometheus histogram name in
// seconds. The node and the proxy export their latencies with it, so a
// dashboard can overlay them.
func WriteLatencyHistogram(w io.Writer, name, help string, counts []uint64, sumNS uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, c := range counts {
		cum += c
		if i == len(counts)-1 {
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(latency.BucketUpperNS(i))/1e9, cum)
		}
	}
	fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, float64(sumNS)/1e9, name, cum)
}
