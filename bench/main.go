// Command bench is the repository's benchmark: five workloads that measure
// the simulator, the in-process service, both wire protocols and the
// cluster proxy from outside, through exported functions and the documented
// wire protocols. See README.md for the measurement protocol.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	workloadName := flag.String("workload", "", "run only this workload, in this process (default: all five, each in a child process)")
	seed := flag.Uint64("seed", 1, "workload seed: equal seeds give equal inputs")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced pass, reporting the per-layer metrics")
	windows := flag.Int("windows", 0, "measure exactly this many windows instead of -seconds (smoke runs)")
	describeOnly := flag.Bool("describe", false, "print BENCHMARK.json as the suite's tables define it, and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *describeOnly {
		b, err := describe()
		if err == nil {
			_, err = os.Stdout.Write(b)
		}
		fatal(err)
		return
	}
	rn := run{seed: *seed, seconds: *seconds, windows: *windows, traced: *trace != 0}
	if *workloadName == "" {
		fatal(runAll(rn))
		return
	}
	// The load is generated with at most nproc client goroutines; the
	// simulator fans out over GOMAXPROCS. Both follow the host.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fatal(runOne(*workloadName, rn))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
