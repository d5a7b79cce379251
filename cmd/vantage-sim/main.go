// Command vantage-sim runs the experiments of exp.Experiments, the one
// registry of the paper's figures and tables (the analytical Figs 1, 2 and
// 5, Tables 1 and 2 and the Fig 4 state overhead; the simulated Figs 6a–11,
// Table 3 and the §6.2 model validation) and of the repository's own
// checks (weighted and harmonic speedups, empirical associativity, the
// resize transient).
//
// Usage:
//
//	vantage-sim -config fig6a [-scale unit|small|full] [-mixes N] [-csv dir]
//
// -config <name> prints that entry's REPORT.md section and, with -csv,
// writes its CSV into dir. -config all writes REPORT.md and every entry's
// CSV into -csv (default results); `vantage-sim -config all -mixes 12 -csv
// results -q` regenerates the committed results/ except results/scale.
// -mixes caps every workload sweep; 0 runs all 350 mixes, the paper's sets.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vantage/internal/exp"
	"vantage/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it prints the result to stdout, progress and errors
// to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, e := range exp.Experiments {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("vantage-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "fig6a", "experiment to run: all, or one of "+strings.Join(names, ", "))
	scale := fs.String("scale", "unit", "machine scale: unit, small or full")
	mixes := fs.Int("mixes", 35, "mixes per workload sweep (0 = all 350, the paper's sets)")
	csvDir := fs.String("csv", "", "directory to write CSV data into (-config all: the report's directory, default results)")
	mixID := fs.String("mix", "ttnn4", "mix for -config fig8")
	contention := fs.Bool("contention", false, "model L2 banks and memory bandwidth (Table 2)")
	partition := fs.Int("partition", 0, "partition to trace for -config fig8")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "vantage-sim:", err)
		return code
	}

	sc, ok := map[string]exp.Scale{"unit": exp.ScaleUnit, "small": exp.ScaleSmall, "full": exp.ScaleFull}[*scale]
	if !ok {
		return fail(2, fmt.Errorf("unknown scale %q", *scale))
	}
	if *mixes < 0 {
		return fail(2, fmt.Errorf("-mixes %d is negative (0 runs all 350)", *mixes))
	}
	opt := exp.ReportOptions{Scale: sc, Mixes: *mixes, Tweak: func(m exp.Machine) exp.Machine {
		if *contention {
			m = m.WithContention()
		}
		return m
	}}
	start := time.Now()
	finish := func() int {
		if !*quiet {
			fmt.Fprintf(stderr, "total: %.1fs\n", time.Since(start).Seconds())
		}
		return 0
	}

	if *config == "all" {
		dir := *csvDir
		if dir == "" {
			dir = "results"
		}
		if !*quiet {
			opt.Progress = func(name string) {
				fmt.Fprintf(stderr, "all: %s (%.0fs)\n", name, time.Since(start).Seconds())
			}
		}
		if err := exp.WriteReport(dir, opt); err != nil {
			return fail(1, err)
		}
		fmt.Fprintln(stdout, "wrote", filepath.Join(dir, "REPORT.md"))
		return finish()
	}

	e, ok := exp.Lookup(*config)
	if !ok {
		return fail(2, fmt.Errorf("unknown config %q: want all or one of %s", *config, strings.Join(names, ", ")))
	}
	m := exp.Machine{}
	if e.Machine != nil {
		m = opt.Tweak(e.Machine(sc))
	}
	if e.Name == "fig8" {
		if err := checkFig8(m, *mixID, *partition); err != nil {
			return fail(2, err)
		}
		e = exp.Fig8Experiment(*mixID, *partition)
	}
	progress := func(done, total int) {
		if !*quiet && (done%10 == 0 || done == total) {
			fmt.Fprintf(stderr, "\r%s: %d/%d runs (%.0fs)", e.Name, done, total, time.Since(start).Seconds())
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	text, csv := e.Run(m, *mixes, progress)
	fmt.Fprint(stdout, text)
	if *csvDir == "" || csv == "" {
		return finish()
	}
	path := filepath.Join(*csvDir, e.Name+".csv")
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return fail(1, err)
	}
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return fail(1, err)
	}
	if !*quiet {
		fmt.Fprintln(stderr, "wrote", path)
	}
	return finish()
}

// checkFig8 rejects a -mix the machine does not have and a -partition
// outside its cores, before the run starts.
func checkFig8(m exp.Machine, mixID string, part int) error {
	if _, err := m.Mix(workload.CanonicalMixID(mixID)); err != nil {
		return fmt.Errorf("-mix %q: %v", mixID, err)
	}
	if part < 0 || part >= m.Cores {
		return fmt.Errorf("-partition %d is outside 0..%d", part, m.Cores-1)
	}
	return nil
}
