package main

import (
	"math"
	"slices"
)

// minLatSamples is the smallest sample a latency percentile is taken from:
// p99 then has at least 20 samples beyond it. Workloads whose windows hold
// fewer pool consecutive windows until they have this many.
const minLatSamples = 2000

// aggregator turns a sequence of (calibration slice, window) pairs into the
// workload's calibrated values. Window i ran between slices i and i+1; every
// time taken inside it is multiplied by c0 over the time the slices around it
// took before anything is aggregated. Wall and CPU time, which contain every
// burst that hit the window, take the factor from the slices' totals (see
// factor); single latency samples, most of which fell between bursts, from
// the typical chunks of the two slices that touch the window. The workload's
// value is the median over windows, so a window the host disturbed moves
// nothing.
//
// All buffers are allocated up front: feeding the aggregator allocates
// nothing, so it does not show in allocs_per_op.
type aggregator struct {
	c0        float64   // reference slice time, ns
	calib     []float64 // slice totals, ns; one more than windows when done
	typical   []float64 // slice times at the typical chunk's speed, ns
	wall, cpu []float64 // per window, ns
	ops       []float64 // per window

	pend     []float64 // newest window's latency samples, ns, unscaled
	group    []float64 // calibrated samples pooled for the next percentile
	groupMin int
	p50, p99 []float64 // per pooled group, ns
	samples  int       // latency samples taken in all
}

func newAggregator(c0 float64, maxWindows, maxSamplesPerWindow, groupMin int) *aggregator {
	return &aggregator{
		c0:       c0,
		calib:    make([]float64, 0, maxWindows+1),
		typical:  make([]float64, 0, maxWindows+1),
		wall:     make([]float64, 0, maxWindows),
		cpu:      make([]float64, 0, maxWindows),
		ops:      make([]float64, 0, maxWindows),
		pend:     make([]float64, 0, maxSamplesPerWindow),
		group:    make([]float64, 0, groupMin+maxSamplesPerWindow),
		groupMin: groupMin,
		p50:      make([]float64, 0, maxWindows),
		p99:      make([]float64, 0, maxWindows),
	}
}

// full reports whether another window would outgrow the buffers.
func (a *aggregator) full() bool { return len(a.wall) == cap(a.wall) }

// slice records a calibration slice. The slice after a window completes that
// window's factor, so its latency samples are scaled and pooled here.
func (a *aggregator) slice(st sliceTimes) {
	a.calib = append(a.calib, st.total)
	a.typical = append(a.typical, st.typical)
	w := len(a.wall) - 1
	if w < 0 || len(a.calib) != len(a.wall)+1 {
		return
	}
	f := a.c0 / ((a.typical[w] + a.typical[w+1]) / 2)
	for _, s := range a.pend {
		a.group = append(a.group, s*f)
	}
	a.pend = a.pend[:0]
	if len(a.group) >= a.groupMin {
		a.closeGroup()
	}
}

// window records one measured window.
func (a *aggregator) window(wallNS, cpuNS int64, ops int, lat []int64) {
	a.wall = append(a.wall, float64(wallNS))
	a.cpu = append(a.cpu, float64(cpuNS))
	a.ops = append(a.ops, float64(ops))
	for _, s := range lat {
		a.pend = append(a.pend, float64(s))
	}
	a.samples += len(lat)
}

// finish pools what is left when the run was too short to fill one group.
func (a *aggregator) finish() {
	if len(a.p50) == 0 && len(a.group) > 0 {
		a.closeGroup()
	}
}

func (a *aggregator) closeGroup() {
	slices.Sort(a.group)
	a.p50 = append(a.p50, nearestRank(a.group, 0.50))
	a.p99 = append(a.p99, nearestRank(a.group, 0.99))
	a.group = a.group[:0]
}

// factor is window w's calibration factor for wall and CPU time: c0 over the
// median of the four slices nearest to the window, two on either side. The
// bursts that hit single slices are independent of those that hit the window
// (adjacent slices correlate at 0.2-0.4), so the two slices that touch the
// window say no more about it than the next two; four say it more steadily,
// which counts when a run has three windows to take a median of.
func (a *aggregator) factor(w int) float64 {
	return a.c0 / median(a.calib[max(w-1, 0):min(w+3, len(a.calib))])
}

// perWindow returns f(w) for every window.
func (a *aggregator) perWindow(f func(w int) float64) []float64 {
	out := make([]float64, len(a.wall))
	for w := range out {
		out[w] = f(w)
	}
	return out
}

// opsPerS is the median calibrated throughput.
func (a *aggregator) opsPerS() float64 {
	return median(a.perWindow(func(w int) float64 {
		return a.ops[w] / (a.wall[w] * a.factor(w)) * 1e9
	}))
}

// p50NS and p99NS are the medians over groups of the calibrated latency
// percentiles. A workload that times no single calls has its window as its
// latency.
func (a *aggregator) p50NS() float64 {
	if a.samples == 0 {
		return median(a.calibratedWalls())
	}
	return median(a.p50)
}

func (a *aggregator) p99NS() float64 {
	if a.samples == 0 {
		// Such a workload has a handful of windows, and no percentile
		// above the median has ten of them beyond it.
		return median(a.calibratedWalls())
	}
	return median(a.p99)
}

func (a *aggregator) calibratedWalls() []float64 {
	return a.perWindow(func(w int) float64 { return a.wall[w] * a.factor(w) })
}

// rawOpsPerS is the median throughput before calibration.
func (a *aggregator) rawOpsPerS() float64 {
	return median(a.perWindow(func(w int) float64 { return a.ops[w] / a.wall[w] * 1e9 }))
}

// cpuUSPerOp is the median calibrated process CPU time per op.
func (a *aggregator) cpuUSPerOp() float64 {
	return median(a.perWindow(func(w int) float64 {
		return a.cpu[w] * a.factor(w) / a.ops[w] / 1e3
	}))
}

// noiseRatio is the median uncalibrated window time over the 5th-percentile
// one: how far a typical window sat from the fastest the host allowed.
func (a *aggregator) noiseRatio() float64 {
	per := a.perWindow(func(w int) float64 { return a.wall[w] / a.ops[w] })
	slices.Sort(per)
	return nearestRank(per, 0.50) / nearestRank(per, 0.05)
}

// calibSpreadPct is the interquartile range of the slice times as a
// percentage of their median.
func (a *aggregator) calibSpreadPct() float64 {
	s := slices.Clone(a.calib)
	slices.Sort(s)
	return 100 * (nearestRank(s, 0.75) - nearestRank(s, 0.25)) / nearestRank(s, 0.50)
}

// nearestRank returns the q-quantile of an ascending series by the
// nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// median returns the middle of v (the mean of the two middles for an even
// count); v is left unsorted.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
