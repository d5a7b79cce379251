// Command mixgen lists the paper's multiprogrammed workload mixes (35
// classes × N mixes per class) with the per-app parameters the generator
// drew, so experiment runs are auditable and reproducible.
//
// Usage:
//
//	mixgen [-cores 4|8|...|32] [-per 10] [-lines 32768] [-seed 2011] [-class sftn] [-mrc [-mrc-refs 200000]]
//
// Bad flag values print one line on stderr and exit with status 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"vantage/internal/workload"
)

func main() {
	cores := flag.Int("cores", 4, "core count (multiple of 4)")
	per := flag.Int("per", 10, "mixes per class")
	lines := flag.Int("lines", 32768, "L2 lines the workloads target")
	seed := flag.Uint64("seed", 2011, "generator seed")
	class := flag.String("class", "", "only list mixes of this class (e.g. sftn)")
	mrc := flag.Bool("mrc", false, "print each app's exact LRU miss-rate curve (Mattson stack algorithm)")
	mrcRefs := flag.Int("mrc-refs", 200000, "references per app for -mrc")
	flag.Parse()

	filter, err := checkFlags(*cores, *lines, *mrcRefs, *mrc, *class)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixgen:", err)
		os.Exit(2)
	}

	mixes := workload.Mixes(*cores, *per, workload.Params{CacheLines: *lines}, *seed)
	sizes := []int{*lines / 16, *lines / 4, *lines / 2, *lines, 2 * *lines}
	count := 0
	for _, m := range mixes {
		if filter != "" && m.Class.String() != filter {
			continue
		}
		count++
		fmt.Printf("%s:", m.ID)
		for _, app := range m.Apps {
			fmt.Printf(" %s", app.Name())
		}
		fmt.Println()
		if *mrc {
			for _, app := range m.Apps {
				// The app was built by Mixes above and nothing has read it,
				// so the curve starts at its reference zero.
				curve := workload.MissRateCurve(app, *mrcRefs, sizes)
				fmt.Printf("  %-28s miss%%:", app.Name())
				for i, v := range curve {
					fmt.Printf(" %d:%0.1f", sizes[i], 100*v)
				}
				fmt.Println()
			}
		}
	}
	if count == 0 {
		fmt.Fprintln(os.Stderr, "mixgen: no mixes matched")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%d mixes, %d apps each\n", count, *cores)
}

// checkFlags rejects flag values the generator cannot serve and returns the
// canonical spelling of class ("" lists every class).
func checkFlags(cores, lines, mrcRefs int, mrc bool, class string) (filter string, err error) {
	if cores <= 0 || cores%4 != 0 {
		return "", fmt.Errorf("-cores %d is not a positive multiple of 4", cores)
	}
	if mrc && mrcRefs <= 0 {
		return "", fmt.Errorf("-mrc-refs %d is not positive", mrcRefs)
	}
	if mrc && lines < 4 {
		// The curve's sizes, lines/16 up to 2*lines, must ascend.
		return "", fmt.Errorf("-mrc needs -lines of at least 4, not %d", lines)
	}
	if class == "" {
		return "", nil
	}
	c, _, err := workload.ParseMixID(class + "1")
	if err != nil || len(class) != 4 {
		return "", fmt.Errorf("-class %q is not four letters from n, f, t and s", class)
	}
	return c.String(), nil
}
