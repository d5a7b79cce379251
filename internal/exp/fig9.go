package exp

import (
	"fmt"
	"sort"
	"strings"

	"vantage/internal/analytic"
	"vantage/internal/core"
	"vantage/internal/sim"
	"vantage/internal/stats"
	"vantage/internal/ucp"
)

// Fig9Result is the unmanaged-region sensitivity study (Fig 9): for each u,
// the relative-throughput curve (9a) and the per-mix fraction of evictions
// forced from the managed region (9b), with the analytical worst-case Pev
// marker.
type Fig9Result struct {
	Machine Machine
	U       []float64
	// Throughput[i] is the sorted relative-throughput curve at U[i].
	Throughput []SchemeCurve
	// ForcedFrac[i] is the sorted per-mix forced-eviction fraction at U[i].
	ForcedFrac [][]float64
	// PevWorstCase[i] is the analytical worst case (1-u)^R.
	PevWorstCase []float64
}

// RunFig9 sweeps the unmanaged-region size over the machine's mixes.
func RunFig9(m Machine, us []float64, limit int, progress func(done, total int)) Fig9Result {
	if len(us) == 0 {
		us = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	}
	mixes := m.Mixes(limit)
	base := LRUBaseline()
	baseThr := make([]float64, len(mixes))
	tick := newTicker(len(mixes)*(1+len(us)), progress)
	forEachMix(len(mixes), func(i int) {
		baseThr[i] = m.RunMix(mixes[i], base).Throughput
		tick()
	})
	out := Fig9Result{Machine: m, U: us}
	const r = 52 // Z4/52
	for _, u := range us {
		v := DefaultVantage()
		v.UnmanagedFrac = u
		sch := VantageScheme("Z4/52", v, core.ModeSetpoint)
		sweepMixes := m.Mixes(limit) // fresh app instances per sweep point
		curve := SchemeCurve{Scheme: fmt.Sprintf("u=%.0f%%", 100*u), PerMix: make([]float64, len(mixes))}
		forced := make([]float64, len(mixes))
		forEachMix(len(sweepMixes), func(i int) {
			l2 := sch.Build(m, m.Seed^0xf19)
			vc := l2.(*core.Controller)
			alloc := ucp.NewPolicy(m.Cores, m.BaselineWays, m.L2Lines, sch.Granularity, m.Seed^0xa110c)
			res := sim.Run(sim.Config{
				Apps:               sweepMixes[i].Apps,
				L2:                 l2,
				L1Lines:            m.L1Lines,
				L1Ways:             m.L1Ways,
				InstrLimit:         m.InstrLimit,
				WarmupInstr:        m.WarmupInstr,
				Alloc:              alloc,
				RepartitionCycles:  m.RepartitionCycles,
				PartitionableLines: sch.PartitionableLines(m.L2Lines),
			})
			curve.PerMix[i] = res.Throughput / baseThr[i]
			cnt := vc.Counters()
			if cnt.Evictions > 0 {
				forced[i] = float64(cnt.ForcedManagedEvictions) / float64(cnt.Evictions)
			}
			tick()
		})
		curve.Sorted = append([]float64(nil), curve.PerMix...)
		sort.Float64s(curve.Sorted)
		curve.Summary = stats.Summarize(curve.PerMix)
		sort.Float64s(forced)
		out.Throughput = append(out.Throughput, curve)
		out.ForcedFrac = append(out.ForcedFrac, forced)
		out.PevWorstCase = append(out.PevWorstCase, analytic.ForcedEvictionProb(u, r))
	}
	return out
}

// Table renders both panels.
func (r Fig9Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9: sensitivity to unmanaged region size (%s, %d mixes)\n", r.Machine.Name, len(r.ForcedFrac[0]))
	b.WriteString("u       gmean-thr  improved   median-forced  p90-forced  worst-case-Pev\n")
	for i, u := range r.U {
		ff := r.ForcedFrac[i]
		med, p90 := 0.0, 0.0
		if n := len(ff); n > 0 {
			med, p90 = ff[n/2], ff[n*9/10]
		}
		fmt.Fprintf(&b, "%-8s%9.3f%9.0f%%%15.2e%12.2e%16.2e\n",
			fmt.Sprintf("%.0f%%", 100*u), r.Throughput[i].Summary.GeoMean,
			100*r.Throughput[i].Summary.FracAboveOne, med, p90, r.PevWorstCase[i])
	}
	return b.String()
}

// CSV renders the per-mix data.
func (r Fig9Result) CSV() string {
	var b strings.Builder
	b.WriteString("u,mix_rank,rel_throughput,forced_frac,pev_worst\n")
	for i, u := range r.U {
		for k := range r.Throughput[i].Sorted {
			fmt.Fprintf(&b, "%.2f,%d,%.5f,%.3e,%.3e\n",
				u, k, r.Throughput[i].Sorted[k], r.ForcedFrac[i][k], r.PevWorstCase[i])
		}
	}
	return b.String()
}
