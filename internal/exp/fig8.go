package exp

import (
	"fmt"
	"strings"

	"vantage/internal/ctrl"
	"vantage/internal/plot"
	"vantage/internal/sim"
	"vantage/internal/stats"
	"vantage/internal/ucp"
	"vantage/internal/workload"
)

// Fig8Result is the target-vs-actual size tracking of one partition over
// time under each partitioning scheme (Fig 8), plus associativity heat maps
// for Vantage (demotion priorities) and way-partitioning (eviction
// priorities).
type Fig8Result struct {
	Machine   Machine
	MixID     string
	Partition int
	// One series pair per scheme.
	Schemes []string
	Target  []*stats.Series // x = cycle, y = target lines
	Actual  []*stats.Series
	// Heatmaps[i] is nil if the scheme does not expose priorities.
	Heatmaps []*stats.Heatmap
	// HeatSliceCycles is the heat-map column width, in cycles.
	HeatSliceCycles uint64
}

// RunFig8 traces partition `part` of the given mix under way-partitioning,
// Vantage and PIPP. Each scheme runs a fresh copy of the mix, from reference
// zero.
func RunFig8(m Machine, mixID string, part int) Fig8Result {
	canonical := workload.CanonicalMixID(mixID)
	if _, err := m.Mix(canonical); err != nil {
		panic(fmt.Sprintf("exp: unknown mix %q: %v", mixID, err))
	}
	schemes := []Scheme{WayPartScheme(), DefaultVantageScheme(), PIPPScheme()}
	out := Fig8Result{
		Machine:         m,
		MixID:           mixID,
		Partition:       part,
		HeatSliceCycles: m.RepartitionCycles,
	}
	for _, sch := range schemes {
		out.Schemes = append(out.Schemes, sch.Name)
		target := &stats.Series{Name: sch.Name + "-target"}
		actual := &stats.Series{Name: sch.Name + "-actual"}
		l2 := sch.Build(m, m.Seed^0xf18)
		var hm *stats.Heatmap
		var cycleNow uint64
		if obs, ok := l2.(ctrl.Observable); ok {
			hm = stats.NewHeatmap(64)
			obs.SetEvictionObserver(func(p int, pri float64, dem bool) {
				if p == part {
					hm.Add(int(cycleNow/out.HeatSliceCycles), pri)
				}
			})
		}
		alloc := ucp.NewPolicy(m.Cores, m.BaselineWays, m.L2Lines, sch.Granularity, m.Seed^0xa110c)
		sim.Run(sim.Config{
			Apps:               m.ReplayOrRemake(nil, canonical).Apps,
			L2:                 l2,
			L1Lines:            m.L1Lines,
			L1Ways:             m.L1Ways,
			InstrLimit:         m.InstrLimit,
			WarmupInstr:        m.WarmupInstr,
			Alloc:              alloc,
			RepartitionCycles:  m.RepartitionCycles,
			PartitionableLines: sch.PartitionableLines(m.L2Lines),
			OnRepartition: func(cycle uint64, targets, sizes []int) {
				cycleNow = cycle
				target.Append(float64(cycle), float64(targets[part]))
				actual.Append(float64(cycle), float64(sizes[part]))
			},
		})
		out.Target = append(out.Target, target)
		out.Actual = append(out.Actual, actual)
		out.Heatmaps = append(out.Heatmaps, hm)
	}
	return out
}

// TrackingError returns, for scheme index i, the mean relative deviation of
// actual size below target (undershoot; the paper's complaint about PIPP is
// that the target is often not met) and above target (overshoot).
func (r Fig8Result) TrackingError(i int) (under, over float64) {
	t, a := r.Target[i], r.Actual[i]
	n := 0
	for k := 0; k < t.Len() && k < a.Len(); k++ {
		if t.Y[k] <= 0 {
			continue
		}
		d := (a.Y[k] - t.Y[k]) / t.Y[k]
		if d < 0 {
			under -= d
		} else {
			over += d
		}
		n++
	}
	if n > 0 {
		under /= float64(n)
		over /= float64(n)
	}
	return under, over
}

// Table renders tracking quality per scheme.
func (r Fig8Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: partition %d size tracking on mix %s (%s)\n", r.Partition, r.MixID, r.Machine.Name)
	b.WriteString("scheme                samples  mean-undershoot  mean-overshoot\n")
	for i, name := range r.Schemes {
		u, o := r.TrackingError(i)
		fmt.Fprintf(&b, "%-22s%8d%16.1f%%%15.1f%%\n", name, r.Target[i].Len(), 100*u, 100*o)
	}
	for i, name := range r.Schemes {
		if r.Heatmaps[i] == nil {
			continue
		}
		fmt.Fprintf(&b, "\n%s priority heat map (fraction of victims below priority, per time slice):\n", name)
		b.WriteString(heatmapText(r.Heatmaps[i]))
	}
	return b.String()
}

// heatmapText renders a small text heat map: rows are priority thresholds,
// columns time slices (up to 16 shown).
func heatmapText(h *stats.Heatmap) string {
	var b strings.Builder
	cols := h.Cols()
	step := 1
	if cols > 16 {
		step = cols / 16
	}
	for _, y := range []float64{0.5, 0.8, 0.9, 0.95} {
		fmt.Fprintf(&b, "  <%0.2f ", y)
		for c := 0; c < cols; c += step {
			fmt.Fprintf(&b, "%5.2f", h.At(c, y))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Plot renders the target-vs-actual series of one scheme as an ASCII chart.
func (r Fig8Result) Plot(i, width, height int) string {
	c := plot.New(fmt.Sprintf("%s: partition %d target vs actual (mix %s)", r.Schemes[i], r.Partition, r.MixID), width, height)
	c.XLabel = "cycles"
	c.YLabel = "lines"
	c.Add(plot.Series{Name: "target", X: r.Target[i].X, Y: r.Target[i].Y})
	c.Add(plot.Series{Name: "actual", X: r.Actual[i].X, Y: r.Actual[i].Y})
	return c.String()
}

// CSV renders the size-tracking time series.
func (r Fig8Result) CSV() string {
	var b strings.Builder
	b.WriteString("scheme,cycle,target,actual\n")
	for i, name := range r.Schemes {
		t, a := r.Target[i], r.Actual[i]
		for k := 0; k < t.Len() && k < a.Len(); k++ {
			fmt.Fprintf(&b, "%s,%.0f,%.0f,%.0f\n", name, t.X[k], t.Y[k], a.Y[k])
		}
	}
	return b.String()
}
