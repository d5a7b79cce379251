package exp

import (
	"fmt"
	"math"
	"strings"

	"vantage/internal/cache"
	"vantage/internal/ctrl"
	"vantage/internal/repl"
	"vantage/internal/sim"
	"vantage/internal/workload"
)

// FairnessResult reports the fairness-oriented metrics the paper's §5
// mentions alongside throughput: weighted speedup (Σ IPC_shared/IPC_alone)
// and the harmonic mean of weighted speedups, both normalized against the
// same metrics under the unpartitioned LRU baseline. The paper states these
// "do not offer additional insights" over throughput for UCP; this
// experiment lets that claim be checked.
type FairnessResult struct {
	Machine Machine
	MixIDs  []string
	Schemes []string
	// WeightedSpeedup[s][m] and HarmonicSpeedup[s][m] are the scheme's
	// metrics normalized to the baseline's on mix m.
	WeightedSpeedup [][]float64
	HarmonicSpeedup [][]float64
}

// soloIPC measures each app's IPC with the whole L2 to itself.
func soloIPC(m Machine, apps []workload.App) []float64 {
	out := make([]float64, len(apps))
	for i, app := range apps {
		arr := cache.NewZCache(m.L2Lines, 4, 16, m.Seed^0x5010)
		l2 := ctrl.NewUnpartitioned(arr, repl.NewLRUTimestamp(m.L2Lines), 1)
		res := sim.Run(sim.Config{
			Apps:        []workload.App{app},
			L2:          l2,
			L1Lines:     m.L1Lines,
			L1Ways:      m.L1Ways,
			InstrLimit:  m.InstrLimit,
			WarmupInstr: m.WarmupInstr,
		})
		out[i] = res.Cores[0].IPC
	}
	return out
}

// speedupMetrics computes (weighted, harmonic) speedups of a run against
// per-app solo IPCs.
func speedupMetrics(cores []sim.CoreStats, solo []float64) (ws, hs float64) {
	n := 0
	invSum := 0.0
	for i, c := range cores {
		if solo[i] <= 0 {
			continue
		}
		s := c.IPC / solo[i]
		ws += s
		if s > 0 {
			invSum += 1 / s
		}
		n++
	}
	if n == 0 {
		return 0, 0
	}
	hs = float64(n) / invSum
	return ws, hs
}

// RunFairness evaluates schemes on the fairness metrics over limit mixes.
// The baseline and every scheme are jobs of runMixes, so each run reads its
// mix's streams from reference zero; the solo runs, once per mix, use a
// freshly built copy of the mix's apps.
func RunFairness(m Machine, baseline Scheme, schemes []Scheme, limit int, progress func(done, total int)) FairnessResult {
	mixes := m.Mixes(limit)
	out := FairnessResult{Machine: m}
	for _, mix := range mixes {
		out.MixIDs = append(out.MixIDs, mix.ID)
	}
	out.WeightedSpeedup = make([][]float64, len(schemes))
	out.HarmonicSpeedup = make([][]float64, len(schemes))
	for si, sch := range schemes {
		out.Schemes = append(out.Schemes, sch.Name)
		out.WeightedSpeedup[si] = make([]float64, len(mixes))
		out.HarmonicSpeedup[si] = make([]float64, len(mixes))
	}
	runs := append([]Scheme{baseline}, schemes...)
	tick := newTicker(len(mixes)*(len(runs)+1), progress) // solo counts as one unit
	m.runMixes(mixes, runs, tick, func(i int, res []sim.Result) {
		solo := soloIPC(m, m.ReplayOrRemake(nil, mixes[i].ID).Apps)
		tick()
		baseWS, baseHS := speedupMetrics(res[0].Cores, solo)
		for si := range schemes {
			ws, hs := speedupMetrics(res[si+1].Cores, solo)
			if baseWS > 0 {
				ws /= baseWS
			}
			if baseHS > 0 {
				hs /= baseHS
			}
			out.WeightedSpeedup[si][i] = ws
			out.HarmonicSpeedup[si][i] = hs
		}
	})
	return out
}

// geoMean returns the geometric mean of positive samples.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
		}
	}
	return math.Exp(s / float64(len(xs)))
}

// Table renders geometric means of both metrics per scheme.
func (r FairnessResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fairness metrics vs LRU baseline (%s, %d mixes)\n", r.Machine.Name, len(r.MixIDs))
	b.WriteString("scheme                    weighted-speedup   harmonic-speedup\n")
	for si, name := range r.Schemes {
		fmt.Fprintf(&b, "%-28s%14.3f%19.3f\n", name,
			geoMean(r.WeightedSpeedup[si]), geoMean(r.HarmonicSpeedup[si]))
	}
	return b.String()
}
