package exp

import (
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vantage/internal/hash"
	"vantage/internal/workload"
)

func TestMachineConfigs(t *testing.T) {
	for _, s := range []Scale{ScaleUnit, ScaleSmall, ScaleFull} {
		small := SmallCMP(s)
		large := LargeCMP(s)
		if small.Cores != 4 || large.Cores != 32 {
			t.Fatal("core counts wrong")
		}
		if small.BaselineWays != 16 || large.BaselineWays != 64 {
			t.Fatal("baseline ways wrong")
		}
		if small.String() == "" {
			t.Fatal("empty machine string")
		}
	}
}

func TestMachineMixesLimit(t *testing.T) {
	m := SmallCMP(ScaleUnit)
	all := m.Mixes(0)
	if len(all) != 350 {
		t.Fatalf("full mix set has %d mixes", len(all))
	}
	limited := m.Mixes(35)
	if len(limited) != 35 {
		t.Fatalf("limited mix set has %d", len(limited))
	}
	// Class coverage: the 35 limited mixes must cover all 35 classes.
	seen := map[string]bool{}
	for _, mix := range limited {
		seen[mix.Class.String()] = true
	}
	if len(seen) != 35 {
		t.Fatalf("limited mixes cover %d classes, want 35", len(seen))
	}
}

func TestSchemeBuilders(t *testing.T) {
	m := SmallCMP(ScaleUnit)
	schemes := []Scheme{
		LRUBaseline(), LRUZCache(),
		RRIPBaseline("SRRIP"), RRIPBaseline("DRRIP"), RRIPBaseline("TA-DRRIP"),
		WayPartScheme(), PIPPScheme(), DefaultVantageScheme(),
	}
	for _, sch := range schemes {
		l2 := sch.Build(m, 1)
		if l2 == nil || l2.Name() == "" {
			t.Fatalf("scheme %s built nothing", sch.Name)
		}
		// Exercise a few accesses.
		for i := 0; i < 100; i++ {
			l2.Access(uint64(i), i%m.Cores)
		}
	}
}

func TestRRIPBaselinePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown variant did not panic")
		}
	}()
	RRIPBaseline("XRRIP").Build(SmallCMP(ScaleUnit), 1)
}

func TestVantageSchemePanicsOnUnknownArray(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown array did not panic")
		}
	}()
	VantageScheme("Z9/99", DefaultVantage(), 0).Build(SmallCMP(ScaleUnit), 1)
}

func TestFig1(t *testing.T) {
	f := RunFig1()
	if len(f.R) != 4 || len(f.X) != 101 {
		t.Fatal("fig1 shape wrong")
	}
	if f.F[3][80] > 1e-5 { // R=64 at x=0.8
		t.Fatalf("FA(0.8;64) = %v", f.F[3][80])
	}
	if !strings.Contains(f.CSV(), "R=64") || !strings.Contains(f.Table(), "R=64") {
		t.Fatal("fig1 renderers incomplete")
	}
}

func TestFig2(t *testing.T) {
	f := RunFig2()
	// Demoting on average must dominate one-per-eviction at every priority
	// (fewer demotions of protected lines).
	for i := range f.R {
		for j := range f.X {
			if f.Average[i][j] > f.OnePer[i][j]+1e-9 {
				t.Fatalf("on-average mass above one-per-eviction at R=%d x=%v", f.R[i], f.X[j])
			}
		}
	}
	if !strings.Contains(f.Table(), "Fig 2") || f.CSV() == "" {
		t.Fatal("fig2 renderers incomplete")
	}
}

func TestFig5(t *testing.T) {
	f := RunFig5()
	// u decreases with Amax and increases as Pev shrinks.
	for ri := range f.R {
		for i := 1; i < len(f.AMax); i++ {
			if f.UvsA[ri][i] > f.UvsA[ri][i-1]+1e-9 {
				t.Fatal("u not decreasing with Amax")
			}
		}
		for i := 1; i < len(f.Pev); i++ {
			if f.UvsPev[ri][i] > f.UvsPev[ri][i-1]+1e-9 {
				t.Fatal("u not decreasing with growing Pev")
			}
		}
	}
	if !strings.Contains(f.Table(), "Fig 5") || f.CSV() == "" {
		t.Fatal("fig5 renderers incomplete")
	}
}

func TestStaticTables(t *testing.T) {
	if !strings.Contains(Table1(), "Vantage") {
		t.Fatal("table1 incomplete")
	}
	if !strings.Contains(Table2(), "UCP") {
		t.Fatal("table2 incomplete")
	}
	if !strings.Contains(StateOverheadTable(), "32 partitions") {
		t.Fatal("state overhead table incomplete")
	}
}

func TestRunThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 40_000, 20_000
	calls := 0
	res := RunThroughput(m, LRUBaseline(), []Scheme{DefaultVantageScheme()}, 6,
		func(done, total int) { calls++ })
	if len(res.MixIDs) != 6 || len(res.Curves) != 1 {
		t.Fatalf("shape: %d mixes, %d curves", len(res.MixIDs), len(res.Curves))
	}
	if calls != 12 {
		t.Fatalf("progress called %d times, want 12", calls)
	}
	c := res.Curves[0]
	if len(c.Sorted) != 6 || c.Summary.N != 6 {
		t.Fatal("curve shape wrong")
	}
	for i := 1; i < len(c.Sorted); i++ {
		if c.Sorted[i] < c.Sorted[i-1] {
			t.Fatal("sorted curve not sorted")
		}
	}
	if res.Curve("Vantage-Z4/52") == nil || res.Curve("nope") != nil {
		t.Fatal("Curve lookup broken")
	}
	if !strings.Contains(res.Table(), "Vantage-Z4/52") {
		t.Fatal("table missing scheme")
	}
	if !strings.Contains(res.CSV(), "mix,") {
		t.Fatal("csv missing header")
	}
}

func TestRunSelectedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 30_000, 15_000
	sel := RunSelected(m, LRUBaseline(), []Scheme{LRUZCache()}, []string{"sftn1", "ffft4"})
	if len(sel.MixIDs) != 2 || len(sel.Improv) != 1 || len(sel.Improv[0]) != 2 {
		t.Fatal("selected shape wrong")
	}
	if !strings.Contains(sel.Table(), "sftn1") {
		t.Fatal("selected table incomplete")
	}
}

func TestFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 60_000, 20_000
	r := RunFig8(m, "ttnn4", 0)
	if len(r.Schemes) != 3 {
		t.Fatalf("fig8 schemes: %v", r.Schemes)
	}
	for i, name := range r.Schemes {
		if r.Target[i].Len() == 0 {
			t.Fatalf("%s recorded no repartitions", name)
		}
	}
	// Vantage must expose a heat map; way-partitioning's LRU policy does not
	// implement the observer, PIPP neither.
	vi := -1
	for i, name := range r.Schemes {
		if name == "Vantage-Z4/52" {
			vi = i
		}
	}
	if vi < 0 || r.Heatmaps[vi] == nil {
		t.Fatal("Vantage heat map missing")
	}
	if !strings.Contains(r.Table(), "size tracking") || r.CSV() == "" {
		t.Fatal("fig8 renderers incomplete")
	}
}

func TestFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 40_000, 20_000
	r := RunFig9(m, []float64{0.05, 0.30}, 4, nil)
	if len(r.U) != 2 || len(r.Throughput) != 2 || len(r.ForcedFrac) != 2 {
		t.Fatal("fig9 shape wrong")
	}
	// A larger unmanaged region must not increase forced evictions.
	med := func(xs []float64) float64 { return xs[len(xs)/2] }
	if med(r.ForcedFrac[1]) > med(r.ForcedFrac[0])+1e-9 {
		t.Fatalf("forced evictions grew with u: %v vs %v",
			med(r.ForcedFrac[1]), med(r.ForcedFrac[0]))
	}
	if r.PevWorstCase[0] <= r.PevWorstCase[1] {
		t.Fatal("worst-case Pev ordering wrong")
	}
	if !strings.Contains(r.Table(), "Fig 9") || r.CSV() == "" {
		t.Fatal("fig9 renderers incomplete")
	}
}

func TestTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 60_000, 30_000
	r := RunTable3(m, 1, nil)
	if len(r.Rows) != 4 {
		t.Fatalf("table3 rows: %d", len(r.Rows))
	}
	if acc := r.Accuracy(); acc < 0.75 {
		t.Fatalf("classification accuracy %.2f:\n%s", acc, r.Table())
	}
	if !strings.Contains(r.Table(), "Table 3") {
		t.Fatal("table3 renderer incomplete")
	}
}

func TestClassifyRule(t *testing.T) {
	sizes := []int{64, 256, 1024, 2048, 4096}
	nominal := 2048
	cases := []struct {
		mpki []float64
		want workload.Category
	}{
		{[]float64{2, 2, 1, 1, 1}, workload.Insensitive},
		{[]float64{40, 30, 20, 12, 6}, workload.Friendly},
		{[]float64{50, 50, 50, 2, 2}, workload.Fitting},
		{[]float64{60, 60, 59, 59, 58}, workload.Thrashing},
	}
	for _, c := range cases {
		if got := Classify(c.mpki, sizes, nominal); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.mpki, got, c.want)
		}
	}
}

func TestUMONRRIPSchemeWiring(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	// The UMON-RRIP scheme must run end to end, with the allocator's
	// per-partition policy choices reaching the controller.
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 30_000, 30_000
	sch := VantageDRRIPUMONScheme()
	res := m.RunMix(m.Mixes(4)[1], sch)
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if res.Repartitions == 0 {
		t.Fatal("allocator never ran")
	}
}

func TestAssociativityValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	r := RunAssociativity([]string{"Rand/16", "Z4/16", "SA16"}, 2048, 4000, 7)
	if len(r.Arrays) != 3 {
		t.Fatal("shape wrong")
	}
	byName := map[string]int{}
	for i, n := range r.Arrays {
		byName[n] = i
	}
	// The idealized array must match x^R tightly; the zcache close behind;
	// the set-associative array clearly worse (the §3.2 claim).
	if d := r.MaxDev[byName["Rand/16"]]; d > 0.05 {
		t.Fatalf("Rand/16 deviates %v from FA(x)", d)
	}
	if d := r.MaxDev[byName["Z4/16"]]; d > 0.30 {
		t.Fatalf("Z4/16 deviates %v from FA(x)", d)
	}
	if r.MaxDev[byName["SA16"]] < r.MaxDev[byName["Z4/16"]] {
		t.Fatalf("SA16 (%v) should deviate more than Z4/16 (%v)",
			r.MaxDev[byName["SA16"]], r.MaxDev[byName["Z4/16"]])
	}
	if !strings.Contains(r.Table(), "maxdev") {
		t.Fatal("assoc table incomplete")
	}
}

func TestBuildArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown design accepted")
		}
	}()
	buildArray("Q7", 1024, 1)
}

func TestBankedVantageScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 30_000, 30_000
	res := m.RunMix(m.Mixes(4)[2], BankedVantageScheme(4))
	if res.Throughput <= 0 {
		t.Fatal("banked Vantage produced no throughput")
	}
}

func TestTransientConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	r := RunTransient(2048, 7)
	if len(r.Schemes) != 3 {
		t.Fatal("shape wrong")
	}
	byName := map[string]int{}
	for i, n := range r.Schemes {
		byName[n] = i
	}
	v := r.Accesses[byName["Vantage-Z4/52"]]
	w := r.Accesses[byName["WayPart-SA16"]]
	if v < 0 {
		t.Fatal("Vantage never converged")
	}
	// The paper's Fig 8 claim: Vantage adapts much faster than
	// way-partitioning (which must wait for the new owner to miss on every
	// set of the reassigned ways).
	if w >= 0 && v > w {
		t.Fatalf("Vantage (%d accesses) slower than way-partitioning (%d)", v, w)
	}
	if !strings.Contains(r.Table(), "transient") {
		t.Fatal("table incomplete")
	}
}

func TestWriteReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	// Shrink everything so the full report runs in seconds.
	opt := ReportOptions{Scale: ScaleUnit, Mixes: 1,
		Tweak: func(m Machine) Machine {
			m.InstrLimit, m.WarmupInstr = 15_000, 15_000
			return m
		}}
	// Two runs write the same files, byte for byte.
	dirs := [2]string{t.TempDir(), t.TempDir()}
	files := [2]map[string]string{}
	for i, dir := range dirs {
		if err := WriteReport(dir, opt); err != nil {
			t.Fatal(err)
		}
		files[i] = readDir(t, dir)
	}
	if !reflect.DeepEqual(files[0], files[1]) {
		t.Fatal("two WriteReport runs wrote different files")
	}
	report := files[0]["REPORT.md"]
	if n := strings.Count(report, "\n## "); n != len(Experiments) {
		t.Errorf("REPORT.md has %d sections for %d registry entries", n, len(Experiments))
	}
	// Every entry's section is its Run's text, and its CSV, if it has one,
	// is in the directory: nothing else is.
	want := map[string]string{"REPORT.md": report}
	for _, e := range Experiments {
		text, csv := e.Run(opt.machine(e.Machine), opt.Mixes, nil)
		if !strings.Contains(report, "## "+e.Title+"\n\n```\n"+text+"```\n") {
			t.Errorf("REPORT.md has no section %q holding %s's text", e.Title, e.Name)
		}
		if csv != "" {
			want[e.Name+".csv"] = csv
		}
	}
	if !reflect.DeepEqual(files[0], want) {
		t.Errorf("WriteReport wrote %d files, the registry's entries make %d", len(files[0]), len(want))
	}
	if _, ok := Lookup("fig8"); !ok {
		t.Error("Lookup misses fig8")
	}
	if _, ok := Lookup("all"); ok {
		t.Error("Lookup finds an entry called all")
	}
}

// readDir returns the contents of every file in dir by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestRunMixDeterministic: identical machine+mix+scheme runs must produce
// bit-identical results — the reproducibility guarantee the experiment
// harness advertises.
func TestRunMixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 30_000, 20_000
	for _, sch := range []Scheme{LRUBaseline(), DefaultVantageScheme(), PIPPScheme()} {
		a := m.RunMix(m.Mixes(4)[1], sch)
		b := m.RunMix(m.Mixes(4)[1], sch)
		if a.Throughput != b.Throughput {
			t.Fatalf("%s: runs differ: %v vs %v", sch.Name, a.Throughput, b.Throughput)
		}
		for i := range a.Cores {
			if a.Cores[i] != b.Cores[i] {
				t.Fatalf("%s: core %d stats differ", sch.Name, i)
			}
		}
	}
}

// TestParallelMatchesSequential: every parallel harness must produce
// bit-identical results whether its work units run one at a time
// (GOMAXPROCS=1) or concurrently (GOMAXPROCS=2 or 4) — simulations share
// no mutable state, and shared recordings extend safely under concurrency.
// A runner whose results depend on which worker ran a job fails here.
// Covers the throughput sweep plus the other mix-fanning experiments:
// RunSelected (Fig 6b), RunFairness, Fig 8 traces, and the Fig 9 sweep.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	m := SmallCMP(ScaleUnit)
	m.InstrLimit, m.WarmupInstr = 20_000, 10_000

	runBoth := func(name string, procs int, run func() any) {
		prev := runtime.GOMAXPROCS(1)
		seq := run()
		runtime.GOMAXPROCS(procs)
		par := run()
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s: GOMAXPROCS=%d result differs from GOMAXPROCS=1", name, procs)
		}
	}

	runBoth("RunThroughput", 4, func() any {
		return RunThroughput(m, LRUBaseline(), []Scheme{DefaultVantageScheme()}, 6, nil)
	})
	// Two mixes of four runs on two workers, the shape sim-fig7 runs: each
	// mix's runs execute on both workers, in an order that varies.
	runBoth("Fig7/2mixes", 2, func() any {
		return Fig7(m, 2, nil)
	})
	runBoth("RunSelected", 4, func() any {
		return RunSelected(m, LRUBaseline(),
			[]Scheme{DefaultVantageScheme(), WayPartScheme()},
			[]string{"sftn1", "ttnn4", "ffnn3"})
	})
	runBoth("RunFairness", 4, func() any {
		return RunFairness(m, LRUBaseline(), []Scheme{DefaultVantageScheme(), PIPPScheme()}, 3, nil)
	})
	runBoth("Fig8", 4, func() any {
		return RunFig8(m, "ttnn4", 0)
	})
	runBoth("Fig9", 4, func() any {
		return RunFig9(m, []float64{0.05, 0.25}, 4, nil)
	})
}

// TestMachineMixesSubset: Mixes builds only the mixes it returns, and they
// must be the ones a full per-class set followed by the class-shuffled pick
// chooses, in the same order and with the same streams.
func TestMachineMixesSubset(t *testing.T) {
	// Apps size their working sets from the L2, and the pick does not look
	// at it: a 512-line L2 keeps two 350-mix 32-core sets small in memory.
	large := LargeCMP(ScaleUnit)
	large.L2Lines = 512
	for _, m := range []Machine{SmallCMP(ScaleUnit), large} {
		for _, limit := range []int{1, 2, 34, 35, 36, 70, 0} {
			got, want := m.Mixes(limit), referenceMixes(m, limit)
			if len(got) != len(want) {
				t.Fatalf("%s limit %d: %d mixes, want %d", m.Name, limit, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || len(got[i].Apps) != len(want[i].Apps) {
					t.Fatalf("%s limit %d: mix %d is %s with %d apps, want %s with %d",
						m.Name, limit, i, got[i].ID, len(got[i].Apps), want[i].ID, len(want[i].Apps))
				}
				for a, app := range want[i].Apps {
					for r := 0; r < 4096; r++ {
						wg, wa := app.Next()
						if gg, ga := got[i].Apps[a].Next(); gg != wg || ga != wa {
							t.Fatalf("%s limit %d: %s app %d reference %d is (%d, %#x), want (%d, %#x)",
								m.Name, limit, want[i].ID, a, r, gg, ga, wg, wa)
						}
					}
				}
			}
		}
	}
}

// referenceMixes picks limit mixes from the machine's full per-class set:
// mix i of every class, classes in the seeded shuffled order, before mix i+1.
func referenceMixes(m Machine, limit int) []workload.Mix {
	per := m.MixesPerClass
	if limit > 0 {
		per = min(per, (limit+34)/35)
	}
	all := workload.Mixes(m.Cores, per, workload.Params{CacheLines: m.L2Lines}, m.Seed)
	if limit <= 0 || limit >= len(all) {
		return all
	}
	order := make([]int, 35)
	for i := range order {
		order[i] = i
	}
	rng := hash.NewRand(m.Seed ^ 0x50f)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	var out []workload.Mix
	for i := 0; i < per && len(out) < limit; i++ {
		for _, c := range order {
			if len(out) < limit {
				out = append(out, all[c*per+i])
			}
		}
	}
	return out
}

func TestClassBreakdown(t *testing.T) {
	r := ThroughputResult{
		MixIDs: []string{"nnnn1", "ssss1", "nfts1"},
		Curves: []SchemeCurve{{
			Scheme: "X",
			PerMix: []float64{1.0, 2.0, 4.0},
		}},
	}
	bd := r.ClassBreakdown("X")
	// has-n covers nnnn1 (1.0) and nfts1 (4.0): gmean 2.0.
	if !closeF(bd['n'], 2.0) {
		t.Fatalf("has-n gmean = %v", bd['n'])
	}
	// has-s covers ssss1 (2.0) and nfts1 (4.0): gmean sqrt(8).
	if !closeF(bd['s'], 2.8284271247) {
		t.Fatalf("has-s gmean = %v", bd['s'])
	}
	if r.ClassBreakdown("missing") != nil {
		t.Fatal("unknown scheme should return nil")
	}
	if !strings.Contains(r.BreakdownTable(), "has-t") {
		t.Fatal("breakdown table incomplete")
	}
}

func closeF(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-6
}
