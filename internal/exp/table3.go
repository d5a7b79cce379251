package exp

import (
	"fmt"
	"strings"

	"vantage/internal/cache"
	"vantage/internal/ctrl"
	"vantage/internal/hash"
	"vantage/internal/repl"
	"vantage/internal/sim"
	"vantage/internal/workload"
)

// Table3Row is one application's solo characterization: L2 MPKI at a range
// of cache sizes, and the category the paper's classification rule assigns.
type Table3Row struct {
	App      string
	Intended workload.Category
	Assigned workload.Category
	// MPKI[i] is the L2 MPKI at Sizes[i] lines.
	MPKI []float64
}

// Table3Result is the workload-classification experiment (§5, Table 3):
// each app runs alone against caches from 1/32 to 4x the nominal capacity,
// and is classified by the paper's rule: < 5 MPKI everywhere = insensitive;
// gradual improvement = cache-friendly; an abrupt drop near capacity =
// cache-fitting; no benefit = thrashing/streaming.
type Table3Result struct {
	Machine Machine
	Sizes   []int
	Rows    []Table3Row
}

// RunTable3 characterizes one representative app per category, plus
// appsPerCat-1 extra samples per category.
func RunTable3(m Machine, appsPerCat int, progress func(done, total int)) Table3Result {
	if appsPerCat < 1 {
		appsPerCat = 1
	}
	sizes := []int{m.L2Lines / 32, m.L2Lines / 8, m.L2Lines / 2, m.L2Lines, m.L2Lines * 2}
	out := Table3Result{Machine: m, Sizes: sizes}
	rng := hash.NewRand(m.Seed ^ 0x7ab1e3)
	params := workload.Params{CacheLines: m.L2Lines}
	total := 4 * appsPerCat * len(sizes)
	done := 0
	for cat := workload.Insensitive; cat <= workload.Thrashing; cat++ {
		for k := 0; k < appsPerCat; k++ {
			// Every size runs the app from reference zero: a copy of the
			// generator state rebuilds it draw for draw.
			drawn := *rng
			app := workload.NewApp(cat, params, rng)
			row := Table3Row{App: app.Name(), Intended: cat}
			for _, lines := range sizes {
				fresh := drawn
				row.MPKI = append(row.MPKI, soloRun(m, workload.NewApp(cat, params, &fresh), lines))
				done++
				if progress != nil {
					progress(done, total)
				}
			}
			row.Assigned = Classify(row.MPKI, sizes, m.L2Lines)
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// soloRun measures app's L2 MPKI with a private cache of the given size.
func soloRun(m Machine, app workload.App, lines int) float64 {
	arr := cache.NewZCache(ceilMult(lines, 4), 4, 16, m.Seed^uint64(lines))
	l2 := ctrl.NewUnpartitioned(arr, repl.NewLRUTimestamp(arr.NumLines()), 1)
	res := sim.Run(sim.Config{
		Apps:        []workload.App{app},
		L2:          l2,
		L1Lines:     m.L1Lines,
		L1Ways:      m.L1Ways,
		InstrLimit:  m.InstrLimit / 2,
		WarmupInstr: m.WarmupInstr / 2,
	})
	return res.Cores[0].L2MPKI
}

// ceilMult rounds n up so that n/ways is a power of two (zcache geometry).
func ceilMult(n, ways int) int {
	spw := 1
	for spw*ways < n {
		spw <<= 1
	}
	return spw * ways
}

// Classify applies the paper's Table 3 rule to a measured MPKI curve.
// mpkiThreshold = 5 everywhere → insensitive; an abrupt drop (>60% of the
// total improvement in one step) at sizes near or above half the nominal
// capacity → cache-fitting; monotone improvement → cache-friendly;
// otherwise thrashing/streaming.
func Classify(mpki []float64, sizes []int, nominal int) workload.Category {
	maxM := 0.0
	for _, v := range mpki {
		if v > maxM {
			maxM = v
		}
	}
	if maxM < 5 {
		return workload.Insensitive
	}
	first, last := mpki[0], mpki[len(mpki)-1]
	improvement := first - last
	if improvement < 0.1*first {
		return workload.Thrashing
	}
	// Find the largest single-step drop.
	bigDrop, dropIdx := 0.0, -1
	for i := 1; i < len(mpki); i++ {
		if d := mpki[i-1] - mpki[i]; d > bigDrop {
			bigDrop, dropIdx = d, i
		}
	}
	if bigDrop > 0.6*improvement && dropIdx >= 0 && sizes[dropIdx] >= nominal/2 {
		return workload.Fitting
	}
	return workload.Friendly
}

// Table renders the classification.
func (r Table3Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: workload classification by solo MPKI (%s)\n", r.Machine.Name)
	fmt.Fprintf(&b, "%-28s%-10s%-10s", "app", "intended", "assigned")
	for _, s := range r.Sizes {
		fmt.Fprintf(&b, "%10s", fmt.Sprintf("%dL", s))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s%-10c%-10c", row.App, row.Intended.Letter(), row.Assigned.Letter())
		for _, v := range row.MPKI {
			fmt.Fprintf(&b, "%10.1f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Accuracy returns the fraction of apps whose assigned category matches the
// intended one.
func (r Table3Result) Accuracy() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	ok := 0
	for _, row := range r.Rows {
		if row.Intended == row.Assigned {
			ok++
		}
	}
	return float64(ok) / float64(len(r.Rows))
}
