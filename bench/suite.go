package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// workloadDef is one row of BENCHMARK.json's workloads list.
type workloadDef struct {
	name string
	why  string
	make func(rn run) workload
}

var workloadDefs = []workloadDef{
	{"sim-fig7",
		"exp.Fig7 on the 32-core machine, whole warm-up and measurement runs of two fixed mixes: the simulator's headline path (recording, L1 filter, zcache walk, Vantage, UCP); no service code",
		func(rn run) workload { return newSimFig7(rn) }},
	{"svc-mix",
		"one goroutine calling GetB/PutB for the four Table 3 tenants on 4x8192 lines: replacement-bound (shard, value store, UMON ring, controller, UCP); codec, rings and transport do nothing",
		func(rn run) workload { return newSvcMix(rn) }},
	{"wire-bin-hot",
		"2 binary connections pipelining 32 frames per round trip over resident keys: every read hits and no line is replaced, so codec, shard rings, epoll transport and gather-flush dominate",
		func(rn run) workload { return newWireBinHot(rn) }},
	{"wire-text-rtt",
		"1 text connection, one command per round trip on resident keys: one syscall pair and one wake-up per op and text dispatch, so batching gains must not show here and per-request costs must",
		func(rn run) workload { return newWireTextRTT(rn) }},
	{"proxy-mix",
		"3 nodes behind cluster.NewProxy, one BMGET and one MGET client connection, Table 3 mix with pipelined fills: ring split, pool, scatter/merge and both proxy fronts over real replacement work",
		func(rn run) workload { return newProxyMix(rn) }},
}

// benchmarkCommand is BENCHMARK.json's command: run.sh builds the benchmark
// inside the checkout and hands it the driver's arguments.
var benchmarkCommand = []string{"bash", "bench/run.sh"}

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = 12

// describe renders BENCHMARK.json from the tables in this file.
func describe() ([]byte, error) {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedRow struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerRow struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	file := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []boundedRow  `json:"end_to_end"`
		PerLayer   []layerRow    `json:"per_layer"`
	}{Command: benchmarkCommand, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		file.Workloads = append(file.Workloads, workloadRow{w.name, w.why})
	}
	for _, d := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, boundedRow{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		file.PerLayer = append(file.PerLayer, layerRow{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(file, "", "  ")
	return append(b, '\n'), err
}

// endToEnd is BENCHMARK.json's end_to_end list. The driver wants every
// workload to print every row with -trace 0, so a workload prints
// notApplicable for a row that has no meaning on it (README, "End-to-end
// metrics"). Only ratios and counts have such rows: a time that reads the
// same on every run is refused, so every workload measures every timed row.
//
// A bound is at least three times the widest interquartile spread any
// workload showed for the metric in results/noise-v1.json, and never above
// the contract's 0.25, which is where every timed metric ends up. The last
// two rows repeat exactly; their bounds say how far a later change may move
// them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"allocs_per_op", "1/op", "lower", 0.05},
	{"hit_ratio", "ratio", "higher", 0.09},
	{"isolation_ratio", "ratio", "higher", 0.07},
	{"overshoot_max_pct", "%", "lower", 0.10},
	{"speedup_gmean", "ratio", "higher", 0.02},
}

// notApplicable is what a workload prints for an end-to-end metric that has
// no meaning on it.
const notApplicable = 1

// perLayer is BENCHMARK.json's per_layer list; every workload reports every
// row with -trace 1, and 0 for a layer it never reaches.
var perLayer = []metricDef{
	// Simulator pipeline (sim-fig7).
	{name: "workload.gen_ns_per_ref", unit: "ns", better: "lower"},
	{name: "workload.record_ns_per_ref", unit: "ns", better: "lower"},
	{name: "sim.l1filter_ns_per_ref", unit: "ns", better: "lower"},
	{name: "sim.run_lru_ns_per_l2acc", unit: "ns", better: "lower"},
	{name: "sim.run_waypart_ns_per_l2acc", unit: "ns", better: "lower"},
	{name: "sim.run_pipp_ns_per_l2acc", unit: "ns", better: "lower"},
	{name: "sim.run_vantage_ns_per_l2acc", unit: "ns", better: "lower"},
	{name: "sim.l1_accesses", unit: "count", better: "lower"},
	{name: "sim.l2_accesses", unit: "count", better: "lower"},
	{name: "sim.l2_misses", unit: "count", better: "lower"},
	{name: "sim.repartitions", unit: "count", better: "lower"},
	{name: "exp.parallel_efficiency", unit: "ratio", better: "higher"},
	// Replacement layers shared by simulator and service.
	{name: "cache.zcache_lookup_ns", unit: "ns", better: "lower"},
	{name: "cache.zcache_cands_per_walk", unit: "count", better: "higher"},
	{name: "cache.zcache_relocs_per_walk", unit: "count", better: "lower"},
	{name: "core.access_ns", unit: "ns", better: "lower"},
	{name: "core.hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.demotions_per_miss", unit: "ratio", better: "lower"},
	{name: "core.forced_evict_share", unit: "ratio", better: "lower"},
	{name: "core.setpoint_adjusts", unit: "count", better: "lower"},
	{name: "ucp.umon_access_ns", unit: "ns", better: "lower"},
	{name: "ucp.lookahead_us", unit: "us", better: "lower"},
	{name: "ucp.allocate_us", unit: "us", better: "lower"},
	// In-process service.
	{name: "service.get_hit_ns", unit: "ns", better: "lower"},
	{name: "service.get_miss_ns", unit: "ns", better: "lower"},
	{name: "service.put_insert_ns", unit: "ns", better: "lower"},
	{name: "service.put_update_ns", unit: "ns", better: "lower"},
	{name: "service.repartition_us", unit: "us", better: "lower"},
	{name: "service.sweep_pass_us", unit: "us", better: "lower"},
	{name: "service.gets", unit: "count", better: "higher"},
	{name: "service.hits", unit: "count", better: "higher"},
	{name: "service.misses", unit: "count", better: "lower"},
	{name: "service.expired", unit: "count", better: "lower"},
	{name: "service.puts", unit: "count", better: "lower"},
	{name: "service.demotions_per_put", unit: "ratio", better: "lower"},
	{name: "service.forced_evictions", unit: "count", better: "lower"},
	{name: "service.umon_drains", unit: "count", better: "lower"},
	{name: "ledger.svc_residual_pct", unit: "%", better: "lower"},
	// Wire protocols and transport.
	{name: "transport.bin_b1_rtt_p50_us", unit: "us", better: "lower"},
	{name: "transport.bin_b32_rtt_p50_us", unit: "us", better: "lower"},
	{name: "transport.text_b1_rtt_p50_us", unit: "us", better: "lower"},
	{name: "transport.text_b32_rtt_p50_us", unit: "us", better: "lower"},
	{name: "protocol.server_p50_us", unit: "us", better: "lower"},
	{name: "protocol.server_p99_us", unit: "us", better: "lower"},
	{name: "transport.overhead_p50_us", unit: "us", better: "lower"},
	{name: "transport.syscalls_per_op", unit: "1/op", better: "lower"},
	{name: "transport.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "service.bin_frames", unit: "count", better: "lower"},
	{name: "service.mgets", unit: "count", better: "lower"},
	{name: "client.encode_ns_per_op", unit: "ns", better: "lower"},
	// Cluster proxy.
	{name: "cluster.ring_owner_ns", unit: "ns", better: "lower"},
	{name: "cluster.proxy_hop_p50_us", unit: "us", better: "lower"},
	{name: "cluster.text_front_rtt_p50_us", unit: "us", better: "lower"},
	{name: "cluster.bin_front_rtt_p50_us", unit: "us", better: "lower"},
	{name: "cluster.pipelined_frames_per_batch", unit: "count", better: "lower"},
	{name: "cluster.pool_conns", unit: "count", better: "lower"},
	{name: "cluster.proxy_server_p50_us", unit: "us", better: "lower"},
	// Go runtime.
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.alloc_bytes_per_op", unit: "B/op", better: "lower"},
	// The harness and the host: how much of a change is the host's doing.
	{name: "harness.calib_ns_median", unit: "ns", better: "lower"},
	{name: "harness.calib_spread_pct", unit: "%", better: "lower"},
	{name: "harness.raw_ops_per_s", unit: "1/s", better: "higher"},
	{name: "harness.noise_ratio", unit: "ratio", better: "lower"},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
}

// runOne runs one workload in this process and prints its result.
func runOne(name string, rn run) error {
	for _, d := range workloadDefs {
		if d.name != name {
			continue
		}
		pass, defs := runWorkload, endToEnd
		if rn.traced {
			pass, defs = runTraced, perLayer
		}
		r, err := pass(name, d.make(rn), rn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := r.print(os.Stdout, defs); err != nil {
			return err
		}
		if !r.correct() {
			return fmt.Errorf("%s: outputs were not correct", name)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}

// runAll runs every workload in a child process of its own, so each has its
// own heap, peak RSS and GOMAXPROCS, waits for each before the next, and
// records the results in outDir's metrics.json.
func runAll(rn run) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	pass, traceArg := "untraced", "0"
	if rn.traced {
		pass, traceArg = "traced", "1"
	}
	results := make(map[string]json.RawMessage)
	var firstErr error
	for _, d := range workloadDefs {
		cmd := exec.Command(self,
			"-workload", d.name,
			"-seed", strconv.FormatUint(rn.seed, 10),
			"-seconds", strconv.FormatFloat(rn.seconds, 'g', -1, 64),
			"-windows", strconv.Itoa(rn.windows),
			"-trace", traceArg)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", d.name, err)
			}
			continue
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte{'\n'})
		results[d.name] = json.RawMessage(lines[len(lines)-1])
	}
	if err := recordPass(filepath.Join(outDir, "metrics.json"), pass, rn, results); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// recordPass writes one pass's results into the metrics file beside what the
// other pass left there, with the host they were measured on.
func recordPass(path, pass string, rn run, results map[string]json.RawMessage) error {
	file := make(map[string]any)
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // informative only
	file["system"] = map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.NumCPU(), // every workload process sets it so
		"go":         runtime.Version(),
		"kernel":     string(bytes.TrimSpace(kernel)),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	file[pass] = map[string]any{"seed": rn.seed, "seconds": rn.seconds, "windows": rn.windows, "workloads": results}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
