// Command figures regenerates the paper's analytical figures and static
// tables: Fig 1 (associativity CDFs), Fig 2 (managed-region demotion CDFs),
// Fig 5 (unmanaged-region sizing), Table 1 (scheme classification), Table 2
// (machine parameters), and the Fig 4 state-overhead accounting.
//
// Usage:
//
//	figures [-fig 1|2|5] [-table 1|2|state] [-csv dir] [-all]
//	        [-cpuprofile file] [-memprofile file]
//
// With -csv, the figure data is also written as CSV files into dir. The
// profiling flags write pprof CPU and heap profiles covering the figure
// regeneration, for chasing regressions in the analytical kernels.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"vantage/internal/exp"
)

func main() {
	fig := flag.Int("fig", 0, "figure to print (1, 2 or 5)")
	table := flag.String("table", "", "table to print (1, 2 or state)")
	csvDir := flag.String("csv", "", "directory to write CSV data into")
	all := flag.Bool("all", false, "print every analytical figure and table")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to `file` on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
		}()
	}

	if !*all && *fig == 0 && *table == "" {
		*all = true
	}

	writeCSV := func(name, data string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", path)
	}

	if *all || *fig == 1 {
		f := exp.RunFig1()
		fmt.Println(f.Table())
		fmt.Println(f.Plot(64, 14))
		writeCSV("fig1.csv", f.CSV())
	}
	if *all || *fig == 2 {
		f := exp.RunFig2()
		fmt.Println(f.Table())
		fmt.Println(f.Plot(0, 64, 14))
		writeCSV("fig2.csv", f.CSV())
	}
	if *all || *fig == 5 {
		f := exp.RunFig5()
		fmt.Println(f.Table())
		fmt.Println(f.Plot(64, 14))
		writeCSV("fig5.csv", f.CSV())
	}
	if *all || *table == "1" {
		fmt.Println(exp.Table1())
	}
	if *all || *table == "2" {
		fmt.Println(exp.Table2())
	}
	if *all || *table == "state" {
		fmt.Println(exp.StateOverheadTable())
	}
}
