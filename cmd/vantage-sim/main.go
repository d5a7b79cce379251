// Command vantage-sim runs the paper's simulation-based experiments: the
// scheme comparisons of Figures 6a/6b/7, the Fig 8 size-tracking traces,
// the Fig 9 unmanaged-region sweep, the Fig 10 cache-design comparison, the
// Fig 11 replacement-policy study, the Table 3 workload classification, and
// the §6.2 model-validation configurations.
//
// Usage:
//
//	vantage-sim -config fig6a [-scale unit|small|full] [-mixes N] [-csv dir]
//
// Configs: all (full report), fig6a, fig6b, fig7, fig8, fig9, fig10, fig11,
// table3, validation, fairness (weighted/harmonic speedup metrics, §5's
// footnote), assoc (empirical associativity CDFs vs FA(x)=x^R), transient
// (resize convergence speed, the Fig 8 adaptation claim).
// The default -mixes caps runtime; pass -mixes 350 for the paper's full
// workload sets.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vantage/internal/exp"
)

func main() {
	config := flag.String("config", "fig6a", "experiment to run")
	scale := flag.String("scale", "unit", "machine scale: unit, small or full")
	mixes := flag.Int("mixes", 35, "number of mixes (350 = paper)")
	csvDir := flag.String("csv", "", "directory to write CSV data into")
	mixID := flag.String("mix", "ttnn4", "mix for -config fig8")
	contention := flag.Bool("contention", false, "model L2 banks and memory bandwidth (Table 2)")
	partition := flag.Int("partition", 0, "partition to trace for -config fig8")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	var sc exp.Scale
	switch *scale {
	case "unit":
		sc = exp.ScaleUnit
	case "small":
		sc = exp.ScaleSmall
	case "full":
		sc = exp.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "vantage-sim: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	applyContention := func(m exp.Machine) exp.Machine {
		if *contention {
			m = m.WithContention()
		}
		return m
	}

	start := time.Now()
	progress := func(done, total int) {
		if *quiet {
			return
		}
		if done%10 == 0 || done == total {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs (%.0fs)", *config, done, total, time.Since(start).Seconds())
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	writeCSV := func(name, data string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "vantage-sim:", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "vantage-sim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}

	switch *config {
	case "all":
		dir := *csvDir
		if dir == "" {
			dir = "results"
		}
		err := exp.WriteReport(dir, exp.ReportOptions{
			Scale: sc,
			Mixes: *mixes,
			Tweak: applyContention,
			Progress: func(stage string) {
				if !*quiet {
					fmt.Fprintf(os.Stderr, "all: %s (%.0fs)\n", stage, time.Since(start).Seconds())
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vantage-sim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", dir+"/REPORT.md")
	case "fig6a":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.Fig6a(m, *mixes, progress)
		fmt.Println(r.Table())
		fmt.Println(r.BreakdownTable())
		fmt.Println(r.Plot(70, 16))
		writeCSV("fig6a.csv", r.CSV())
	case "fig6b":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.Fig6b(m)
		fmt.Println(r.Table())
	case "fig7":
		m := applyContention(exp.LargeCMP(sc))
		r := exp.Fig7(m, *mixes, progress)
		fmt.Println(r.Table())
		fmt.Println(r.BreakdownTable())
		fmt.Println(r.Plot(70, 16))
		writeCSV("fig7.csv", r.CSV())
	case "fig8":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.RunFig8(m, *mixID, *partition)
		fmt.Println(r.Table())
		for i := range r.Schemes {
			fmt.Println(r.Plot(i, 70, 12))
		}
		writeCSV("fig8.csv", r.CSV())
	case "fig9":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.RunFig9(m, nil, *mixes, progress)
		fmt.Println(r.Table())
		writeCSV("fig9.csv", r.CSV())
	case "fig10":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.Fig10(m, *mixes, progress)
		fmt.Println(r.Table())
		writeCSV("fig10.csv", r.CSV())
	case "fig11":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.Fig11(m, *mixes, progress)
		fmt.Println(r.Table())
		writeCSV("fig11.csv", r.CSV())
	case "table3":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.RunTable3(m, 3, progress)
		fmt.Println(r.Table())
		fmt.Printf("classification accuracy: %.0f%%\n", 100*r.Accuracy())
	case "validation":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.Validation(m, *mixes, progress)
		fmt.Println(r.Table())
		writeCSV("validation.csv", r.CSV())
	case "transient":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.RunTransient(m.L2Lines, m.Seed)
		fmt.Println(r.Table())
	case "assoc":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.RunAssociativity(nil, m.L2Lines, 8000, m.Seed)
		fmt.Println(r.Table())
	case "fairness":
		m := applyContention(exp.SmallCMP(sc))
		r := exp.RunFairness(m, exp.LRUBaseline(),
			[]exp.Scheme{exp.DefaultVantageScheme(), exp.WayPartScheme(), exp.PIPPScheme()},
			*mixes, progress)
		fmt.Println(r.Table())
	default:
		fmt.Fprintf(os.Stderr, "vantage-sim: unknown config %q\n", *config)
		os.Exit(2)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "total: %.1fs\n", time.Since(start).Seconds())
	}
}
