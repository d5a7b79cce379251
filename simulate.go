package vantage

import (
	"vantage/internal/exp"
	"vantage/internal/sim"
	"vantage/internal/workload"
)

// Simulation types.
type (
	// SimConfig configures one multicore simulation run. Every app's
	// instruction gaps must be at most 2^15-1 and its line addresses below
	// 2^32; Simulate panics, naming the core and the value, otherwise.
	SimConfig = sim.Config
	// SimResult is its outcome.
	SimResult = sim.Result
	// CoreStats are one core's measurement-window counters.
	CoreStats = sim.CoreStats
	// Latencies are the memory-hierarchy latencies (Table 2).
	Latencies = sim.Latencies
)

// Simulate runs one multicore simulation to completion.
func Simulate(cfg SimConfig) SimResult { return sim.Run(cfg) }

// DefaultLatencies returns the paper's Table 2 latencies.
func DefaultLatencies() Latencies { return sim.DefaultLatencies() }

// Workload types.
type (
	// App is a synthetic application model.
	App = workload.App
	// AppCategory is the paper's Table 3 workload class.
	AppCategory = workload.Category
	// Mix is one multiprogrammed workload.
	Mix = workload.Mix
	// MixClass is a multiset of four categories.
	MixClass = workload.Class
	// WorkloadParams scales workload parameters to a cache capacity.
	WorkloadParams = workload.Params
)

// Workload categories (Table 3).
const (
	// Insensitive apps miss under 5 MPKI at any allocation.
	Insensitive = workload.Insensitive
	// Friendly apps benefit gradually from capacity.
	Friendly = workload.Friendly
	// Fitting apps have a miss cliff near their working-set size.
	Fitting = workload.Fitting
	// Thrashing apps see no benefit from any realistic allocation.
	Thrashing = workload.Thrashing
)

// NewZipfApp returns a cache-friendly Zipf-reuse application model.
func NewZipfApp(cat AppCategory, lines int, alpha, gapMean float64, burst int, seed uint64) App {
	return workload.NewZipfApp(cat, lines, alpha, gapMean, burst, seed)
}

// NewScanApp returns a cyclic-scan (cache-fitting) application model.
func NewScanApp(cat AppCategory, lines int, gapMean float64, burst int, seed uint64) App {
	return workload.NewScanApp(cat, lines, gapMean, burst, seed)
}

// NewStreamApp returns a streaming (thrashing) application model.
func NewStreamApp(regionLines int, gapMean float64, burst int, seed uint64) App {
	return workload.NewStreamApp(regionLines, gapMean, burst, seed)
}

// Mixes generates the paper's multiprogrammed workload set (35 classes ×
// mixesPerClass) for a machine with the given core count.
func Mixes(cores, mixesPerClass int, p WorkloadParams, seed uint64) []Mix {
	return workload.Mixes(cores, mixesPerClass, p, seed)
}

// Experiment harness types (the figure/table reproductions).
type (
	// Machine is a simulated CMP configuration (Table 2).
	Machine = exp.Machine
	// ExperimentScale selects unit/small/full experiment sizes.
	ExperimentScale = exp.Scale
	// Scheme is a cache configuration under test.
	Scheme = exp.Scheme
	// ThroughputResult is a Fig 6a/7-style relative-throughput result.
	ThroughputResult = exp.ThroughputResult
)

// Experiment scales.
const (
	// ScaleUnit is the smallest useful configuration.
	ScaleUnit = exp.ScaleUnit
	// ScaleSmall is the default experiment scale.
	ScaleSmall = exp.ScaleSmall
	// ScaleFull approaches the paper's geometry.
	ScaleFull = exp.ScaleFull
)

// SmallCMP returns the paper's 4-core machine at the given scale.
func SmallCMP(s ExperimentScale) Machine { return exp.SmallCMP(s) }

// LargeCMP returns the paper's 32-core machine at the given scale.
func LargeCMP(s ExperimentScale) Machine { return exp.LargeCMP(s) }
