package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// windowOut is what one measured window reports back to the runner.
type windowOut struct {
	ops    int     // operations completed
	failed int     // operations failed, refused or answered with a wrong value
	lat    []int64 // latency samples in ns; the workload appends, the runner resets
}

// workload is one of the benchmark's traffic mixes. The runner owns timing,
// calibration and aggregation; the workload owns the system under test and
// the operations. A workload's window does the same work every time.
type workload interface {
	calibrated
	// latSamplesPerWindow bounds the latency samples one window appends.
	latSamplesPerWindow() int
	// minWindows is the fewest windows a run may measure.
	minWindows() int
	// setup builds the system and warms it to steady state, including one
	// untimed warm-up window. It can be called again after teardown and
	// must then rebuild the same state from the same seed.
	setup() error
	// fingerprint summarises the state setup reached, for workloads whose
	// counts repeat exactly; "" for the others. Equal seeds must give equal
	// fingerprints.
	fingerprint() string
	teardown()
	// window runs one measured window.
	window(out *windowOut)
	// report adds the workload's own metrics and correctness findings.
	report(r *report)

	// setTracing switches span recording on or off for the windows that
	// follow. Switching on returns the tracers, one per goroutine that makes
	// calls.
	setTracing(on bool) []*tracer
	// layers adds the per-layer metrics of the workload's own layers after
	// a traced pass: ref holds the untraced windows, traced the traced ones.
	layers(r *report, cal *calibrator, ref, traced *measured) error
}

// run is one invocation's settings.
type run struct {
	seed    uint64
	seconds float64
	windows int // measure exactly this many windows when > 0
	traced  bool
}

// outDir is where trace files and metrics.json go, relative to the
// repository root the benchmark runs from.
var outDir = filepath.Join("bench", "out")

// A run sets its workload up several times and reports the median as
// setup_s: at least setupMinRepeats times, then until the set-ups have taken
// setupBudget together or there are setupMaxRepeats of them, because a set-up
// of half a second needs more repeats for a steady median than one of three
// seconds. Deterministic workloads compare fingerprints across the repeats.
//
// Calibration slices run for setupBracket before and after every set-up, and
// the median set-up is scaled by the median of all of them. A factor per
// set-up, as the windows have, made setup_s less steady than no calibration
// at all: the bursts that hit 100 ms of slices are not those that hit the
// half second of a set-up beside them (raw set-ups of 0.47-0.58 s came out as
// 0.56-1.05 s), and nine set-ups are too few for a median to forget that.
// What is left to correct is the regime the host is in for minutes, and the
// pooled slices say which.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 9
	setupBudget     = 5 * time.Second
	setupBracket    = 100 * time.Millisecond
)

// maxWindows bounds the aggregator's buffers.
const maxWindows = 1 << 13

// measured holds what the generic runner found.
type measured struct {
	agg       *aggregator
	mallocs   uint64
	allocB    uint64
	gcCycles  uint32
	attempted int64
	failed    int64
}

// calibratedSetup sets the workload up repeatedly, leaves the last set-up
// standing and returns the calibrated median set-up time in seconds.
func calibratedSetup(w workload, cal *calibrator, r *report) (float64, error) {
	var raw, slices []float64
	var first string
	var spent time.Duration
	slices = cal.sample(setupBracket, slices)
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || spent < setupBudget); i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, fmt.Errorf("setup %d: %w", i, err)
		}
		dt := time.Since(t0)
		spent += dt
		raw = append(raw, dt.Seconds())
		slices = cal.sample(setupBracket, slices)
		fp := w.fingerprint()
		if i == 0 {
			first = fp
		} else if fp != first {
			r.fail("setup %d reached a different state than setup 0:\n  %s\n  %s", i, fp, first)
		}
	}
	r.note("set-ups took %.4g s, the %d slices among them a median %.3f ms", raw, len(slices), median(slices)/1e6)
	return median(raw) * cal.c0() / median(slices), nil
}

// measure runs windows until the time (or the window count) is used up.
func measure(w workload, cal *calibrator, rn run) *measured {
	agg := newAggregator(cal.c0(), maxWindows, w.latSamplesPerWindow(), minLatSamples)
	m := &measured{agg: agg}
	out := windowOut{lat: make([]int64, 0, w.latSamplesPerWindow())}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var last time.Duration
	for n := 0; !agg.full(); n++ {
		if rn.windows > 0 {
			if n >= rn.windows {
				break
			}
		} else if n >= w.minWindows() && (time.Since(start)+last/2).Seconds() >= rn.seconds {
			break
		}
		agg.slice(cal.slice())
		out.ops, out.failed, out.lat = 0, 0, out.lat[:0]
		c0 := cpuNow()
		t0 := time.Now()
		w.window(&out)
		last = time.Since(t0)
		c1 := cpuNow()
		agg.window(int64(last), c1-c0, out.ops, out.lat)
		m.attempted += int64(out.ops)
		m.failed += int64(out.failed)
	}
	agg.slice(cal.slice())
	agg.finish()
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	return m
}

// runWorkload is the untraced pass: set up, measure, report every
// end-to-end metric.
func runWorkload(name string, w workload, rn run) (*report, error) {
	r := newReport(name)
	cal, err := newCalibrator(w)
	if err != nil {
		return nil, err
	}
	defer cal.close()

	setup, err := calibratedSetup(w, cal, r)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	m := measure(w, cal, rn)

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ops := float64(m.attempted)
	r.attempted, r.failed = m.attempted, m.failed
	r.set("setup_s", setup)
	r.set("ops_per_s", m.agg.opsPerS())
	r.set("cpu_us_per_op", m.agg.cpuUSPerOp())
	r.set("p50_us", m.agg.p50NS()/1e3)
	r.set("p99_us", m.agg.p99NS()/1e3)
	r.set("peak_rss_mb", rss)
	r.set("allocs_per_op", float64(m.mallocs)/ops)
	// The paper's guarantees and the simulator's canary have a meaning on
	// the workloads that overwrite them in report, and none elsewhere.
	for _, name := range []string{"isolation_ratio", "overshoot_max_pct", "speedup_gmean"} {
		r.set(name, notApplicable)
	}
	w.report(r)
	r.note("windows=%d latency_samples=%d percentile_groups=%d", len(m.agg.wall), m.agg.samples, len(m.agg.p50))
	r.note("uncalibrated ops_per_s=%.6g calib_slice_ms=%.3f at typical speed %.3f (C0 %.3f) calib_spread_pct=%.2f",
		m.agg.rawOpsPerS(), median(m.agg.calib)/1e6, median(m.agg.typical)/1e6, cal.c0()/1e6, m.agg.calibSpreadPct())
	return r, cal.err()
}

// runTraced is the traced pass: one setup, a stretch of untraced windows for
// reference, the same stretch again with a span around every call into a
// layer, then the workload's stand-alone layer probes. It reports every
// per-layer metric; a layer the workload never reaches reads 0.
func runTraced(name string, w workload, rn run) (*report, error) {
	r := newReport(name)
	for _, d := range perLayer {
		r.set(d.name, 0)
	}
	cal, err := newCalibrator(w)
	if err != nil {
		return nil, err
	}
	defer cal.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer w.teardown()

	phase := rn
	phase.seconds = rn.seconds * 0.3
	ref := measure(w, cal, phase)
	tracers := w.setTracing(true)
	traced := measure(w, cal, phase)
	w.setTracing(false)

	r.attempted, r.failed = ref.attempted+traced.attempted, ref.failed+traced.failed
	r.set("harness.calib_ns_median", median(ref.agg.calib))
	r.set("harness.calib_spread_pct", ref.agg.calibSpreadPct())
	r.set("harness.raw_ops_per_s", ref.agg.rawOpsPerS())
	r.set("harness.noise_ratio", ref.agg.noiseRatio())
	r.set("harness.trace_overhead_pct", 100*(1-traced.agg.opsPerS()/ref.agg.opsPerS()))
	r.set("runtime.gc_cycles", float64(ref.gcCycles))
	r.set("runtime.alloc_bytes_per_op", float64(ref.allocB)/float64(ref.attempted))
	w.report(r)
	if err := w.layers(r, cal, ref, traced); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	path, err := writeTrace(name, rn.seed, tracers...)
	if err != nil {
		return nil, err
	}
	r.note("reference windows=%d traced windows=%d trace=%s", len(ref.agg.wall), len(traced.agg.wall), path)
	return r, cal.err()
}
