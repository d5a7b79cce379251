package exp

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vantage/internal/plot"
	"vantage/internal/sim"
	"vantage/internal/stats"
	"vantage/internal/workload"
)

// forEachMix runs fn(i) for every job index 0..n-1 on at most GOMAXPROCS
// workers, each taking the next unstarted index as it frees up. Each
// simulation is fully independent — every run builds its own controller,
// allocator and streams — so job-level parallelism is safe and gives
// near-linear speedups on the big sweeps.
func forEachMix(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// newTicker returns a function that reports one more finished unit out of
// total to progress, if any. It may be called from any goroutine; the counts
// reach progress in increasing order.
func newTicker(total int, progress func(done, total int)) func() {
	var mu sync.Mutex
	done := 0
	return func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		if progress != nil {
			progress(done, total)
		}
	}
}

// runMixes simulates every mix under every scheme of runs (runs[0] is the
// baseline) and hands mix i's results, in runs order, to done(i, res). The
// (mix, run) jobs form one flat list in mix-major order that forEachMix
// executes, so at most GOMAXPROCS simulations are alive and no worker idles
// while a job is left. The first job of a mix to start wraps the mix's apps
// in post-L1 recorders under a sync.Once and opens one windowed cursor per
// run (see RecordMisses). Run ri always reads cursor ri from reference zero,
// so no result depends on which worker ran which job. The last job of the
// mix to finish drops the cursors and calls done, on its own worker. tick is
// called once per finished run. runMixes consumes the mixes' apps.
func (m Machine) runMixes(mixes []workload.Mix, runs []Scheme, tick func(), done func(i int, res []sim.Result)) {
	type mixState struct {
		once sync.Once
		miss [][]*sim.MissReplay
		res  []sim.Result
		left atomic.Int64
	}
	states := make([]mixState, len(mixes))
	forEachMix(len(mixes)*len(runs), func(j int) {
		i, ri := j/len(runs), j%len(runs)
		st := &states[i]
		st.once.Do(func() {
			st.res = make([]sim.Result, len(runs))
			st.left.Store(int64(len(runs)))
			st.miss = MissSets(m.RecordMisses(mixes[i]), len(runs))
		})
		st.res[ri] = m.RunMixMiss(mixes[i].ID, st.miss[ri], runs[ri])
		tick()
		if st.left.Add(-1) == 0 {
			st.miss = nil
			done(i, st.res)
		}
	})
}

// SchemeCurve is one line of a Fig 6a/7-style plot: per-mix throughput
// relative to the LRU baseline, plus the sorted curve and summary.
type SchemeCurve struct {
	Scheme string
	// PerMix[i] is throughput vs baseline for Mixes[i] (unsorted).
	PerMix []float64
	// Sorted is PerMix ascending (the x-axis ordering of Fig 6a/7).
	Sorted []float64
	// Summary are descriptive statistics of PerMix.
	Summary stats.Summary
}

// ThroughputResult is the outcome of a relative-throughput experiment.
type ThroughputResult struct {
	Machine  Machine
	MixIDs   []string
	Baseline string
	Curves   []SchemeCurve
	// BaselineThroughput[i] is the absolute baseline ΣIPC of mix i.
	BaselineThroughput []float64
}

// RunThroughput evaluates schemes against the baseline over the machine's
// mixes (limit caps the mix count; <= 0 runs all 350). This is the engine
// behind Figures 6a, 7, 9a, 10 and 11. Every (mix, scheme) run is a job of
// runMixes: each mix's post-L1 streams are recorded once and replayed by the
// baseline and every scheme.
func RunThroughput(m Machine, baseline Scheme, schemes []Scheme, limit int, progress func(done, total int)) ThroughputResult {
	mixes := m.Mixes(limit)
	res := ThroughputResult{
		Machine:            m,
		Baseline:           baseline.Name,
		BaselineThroughput: make([]float64, len(mixes)),
	}
	for _, mix := range mixes {
		res.MixIDs = append(res.MixIDs, mix.ID)
	}
	curves := make([]SchemeCurve, len(schemes))
	for si, sch := range schemes {
		curves[si] = SchemeCurve{Scheme: sch.Name, PerMix: make([]float64, len(mixes))}
	}
	runs := append([]Scheme{baseline}, schemes...)
	m.runMixes(mixes, runs, newTicker(len(mixes)*len(runs), progress), func(i int, r []sim.Result) {
		res.BaselineThroughput[i] = r[0].Throughput
		base := r[0].Throughput
		if base <= 0 {
			base = 1e-9
		}
		for si := range schemes {
			curves[si].PerMix[i] = r[si+1].Throughput / base
		}
	})
	for si := range curves {
		curves[si].Sorted = append([]float64(nil), curves[si].PerMix...)
		sort.Float64s(curves[si].Sorted)
		curves[si].Summary = stats.Summarize(curves[si].PerMix)
	}
	res.Curves = curves
	return res
}

// Table renders the sorted curves at decile points plus summaries, the
// textual equivalent of Fig 6a/7.
func (r ThroughputResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput vs %s on %s (%d mixes)\n", r.Baseline, r.Machine.Name, len(r.MixIDs))
	fmt.Fprintf(&b, "%-24s", "scheme\\percentile")
	for p := 0; p <= 100; p += 10 {
		fmt.Fprintf(&b, "%7s", fmt.Sprintf("p%d", p))
	}
	fmt.Fprintf(&b, "%8s%9s\n", "gmean", "improved")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-24s", c.Scheme)
		n := len(c.Sorted)
		for p := 0; p <= 100; p += 10 {
			i := p * (n - 1) / 100
			fmt.Fprintf(&b, "%7.3f", c.Sorted[i])
		}
		fmt.Fprintf(&b, "%8.3f%8.0f%%\n", c.Summary.GeoMean, 100*c.Summary.FracAboveOne)
	}
	return b.String()
}

// CSV renders the per-mix relative throughputs, one row per mix.
func (r ThroughputResult) CSV() string {
	var b strings.Builder
	b.WriteString("mix")
	for _, c := range r.Curves {
		b.WriteString(",")
		b.WriteString(c.Scheme)
	}
	b.WriteString(",baseline_ipc\n")
	for i, id := range r.MixIDs {
		b.WriteString(id)
		for _, c := range r.Curves {
			fmt.Fprintf(&b, ",%.5f", c.PerMix[i])
		}
		fmt.Fprintf(&b, ",%.5f\n", r.BaselineThroughput[i])
	}
	return b.String()
}

// Plot renders the sorted curves as an ASCII chart (the visual shape of
// Fig 6a / Fig 7: mixes sorted by improvement on the x-axis, relative
// throughput on the y-axis).
func (r ThroughputResult) Plot(width, height int) string {
	c := plot.New(fmt.Sprintf("Throughput vs %s, sorted by improvement (%s)", r.Baseline, r.Machine.Name), width, height)
	c.XLabel = "workload rank"
	c.YLabel = "throughput vs baseline"
	for _, cu := range r.Curves {
		c.AddYs(cu.Scheme, cu.Sorted)
	}
	return c.String()
}

// Curve returns the named scheme's curve, or nil.
func (r ThroughputResult) Curve(name string) *SchemeCurve {
	for i := range r.Curves {
		if r.Curves[i].Scheme == name {
			return &r.Curves[i]
		}
	}
	return nil
}

// SelectedMixes is Fig 6b: absolute throughput improvements on a hand-picked
// set of mixes for a list of schemes.
type SelectedMixes struct {
	Machine Machine
	MixIDs  []string
	Schemes []string
	// Improv[s][m] is percent throughput improvement of scheme s on mix m.
	Improv [][]float64
}

// RunSelected runs the Fig 6b experiment: the named mixes (paper: sftn1,
// ffft4, ssst7, fffn7, ffnn3, ttnn4, sfff6, sssf6) across schemes, every
// (mix, scheme) run a job of runMixes.
func RunSelected(m Machine, baseline Scheme, schemes []Scheme, mixIDs []string) SelectedMixes {
	out := SelectedMixes{Machine: m, MixIDs: mixIDs}
	for _, sch := range schemes {
		out.Schemes = append(out.Schemes, sch.Name)
	}
	out.Improv = make([][]float64, len(schemes))
	for si := range schemes {
		out.Improv[si] = make([]float64, len(mixIDs))
	}
	mixes := make([]workload.Mix, len(mixIDs))
	for mi, id := range mixIDs {
		mix, err := m.Mix(id)
		if err != nil {
			panic(fmt.Sprintf("exp: unknown mix %q: %v", id, err))
		}
		mixes[mi] = mix
	}
	m.runMixes(mixes, append([]Scheme{baseline}, schemes...), func() {}, func(mi int, r []sim.Result) {
		for si := range schemes {
			out.Improv[si][mi] = (r[si+1].Throughput/r[0].Throughput - 1) * 100
		}
	})
	return out
}

// Table renders the Fig 6b bars as a text table.
func (s SelectedMixes) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Throughput improvement vs LRU (%%) on selected mixes (%s)\n", s.Machine.Name)
	fmt.Fprintf(&b, "%-20s", "scheme\\mix")
	for _, id := range s.MixIDs {
		fmt.Fprintf(&b, "%9s", id)
	}
	b.WriteString("\n")
	for si, name := range s.Schemes {
		fmt.Fprintf(&b, "%-20s", name)
		for mi := range s.MixIDs {
			fmt.Fprintf(&b, "%9.1f", s.Improv[si][mi])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ClassBreakdown aggregates a scheme's per-mix results by workload class
// composition: for each count of a category present in the class (e.g.
// "mixes containing at least one cache-fitting app"), the geometric mean of
// the relative throughput. This is the analysis view behind statements like
// "Vantage wins mostly on fitting-heavy mixes".
func (r ThroughputResult) ClassBreakdown(scheme string) map[byte]float64 {
	c := r.Curve(scheme)
	if c == nil {
		return nil
	}
	sums := map[byte]float64{}
	counts := map[byte]int{}
	for i, id := range r.MixIDs {
		cls, _, err := workload.ParseMixID(id)
		if err != nil {
			continue
		}
		seen := map[byte]bool{}
		for _, cat := range cls {
			seen[cat.Letter()] = true
		}
		for letter := range seen {
			if c.PerMix[i] > 0 {
				sums[letter] += math.Log(c.PerMix[i])
				counts[letter]++
			}
		}
	}
	out := map[byte]float64{}
	for letter, s := range sums {
		out[letter] = math.Exp(s / float64(counts[letter]))
	}
	return out
}

// BreakdownTable renders per-category geometric means for every scheme.
func (r ThroughputResult) BreakdownTable() string {
	var b strings.Builder
	b.WriteString("Geometric-mean throughput vs baseline, by category present in the mix\n")
	b.WriteString("scheme                      has-n   has-f   has-t   has-s\n")
	for _, c := range r.Curves {
		bd := r.ClassBreakdown(c.Scheme)
		fmt.Fprintf(&b, "%-26s", c.Scheme)
		for _, letter := range []byte{'n', 'f', 't', 's'} {
			fmt.Fprintf(&b, "%8.3f", bd[letter])
		}
		b.WriteString("\n")
	}
	return b.String()
}
