package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Experiment is one entry of the registry: a figure or table of the paper's
// evaluation, or one of the repository's own validation experiments.
// WriteReport renders every entry as a section of REPORT.md and
// `vantage-sim -config <Name>` prints one entry's section.
type Experiment struct {
	// Name is the entry's -config name and its CSV's base name.
	Name string
	// Title heads the entry's REPORT.md section.
	Title string
	// Machine returns the machine the entry simulates at a scale; nil for
	// the analytical entries.
	Machine func(Scale) Machine
	// Run returns the section's text and the entry's CSV ("" if it has
	// none). limit caps each workload sweep (0: all 350 mixes); progress,
	// if set, receives per-run counts.
	Run func(m Machine, limit int, progress func(done, total int)) (text, csv string)
}

// Experiments is the registry, in report order.
var Experiments = []Experiment{
	{Name: "fig1", Title: "Fig 1 — associativity CDFs", Run: func(Machine, int, func(int, int)) (string, string) {
		f := RunFig1()
		return blocks(f.Table(), f.Plot(64, 14)), f.CSV()
	}},
	{Name: "fig2", Title: "Fig 2 — managed-region demotion CDFs", Run: func(Machine, int, func(int, int)) (string, string) {
		f := RunFig2()
		return blocks(f.Table(), f.Plot(0, 64, 14)), f.CSV()
	}},
	{Name: "fig5", Title: "Fig 5 — unmanaged-region sizing", Run: func(Machine, int, func(int, int)) (string, string) {
		f := RunFig5()
		return blocks(f.Table(), f.Plot(64, 14)), f.CSV()
	}},
	{Name: "table1", Title: "Table 1 — scheme classification", Run: func(Machine, int, func(int, int)) (string, string) {
		return blocks(Table1()), ""
	}},
	{Name: "table2", Title: "Table 2 — machine parameters", Run: func(Machine, int, func(int, int)) (string, string) {
		return blocks(Table2()), ""
	}},
	{Name: "state", Title: "State overhead (Fig 4)", Run: func(Machine, int, func(int, int)) (string, string) {
		return blocks(StateOverheadTable()), ""
	}},
	{Name: "fig6a", Title: "Fig 6a — 4-core scheme comparison", Machine: SmallCMP, Run: throughput(Fig6a, true)},
	{Name: "fig6b", Title: "Fig 6b — selected mixes", Machine: SmallCMP, Run: func(m Machine, _ int, _ func(int, int)) (string, string) {
		return blocks(Fig6b(m).Table()), ""
	}},
	{Name: "fig7", Title: "Fig 7 — 32-core scalability", Machine: LargeCMP, Run: throughput(Fig7, true)},
	Fig8Experiment("ttnn4", 0),
	{Name: "fig9", Title: "Fig 9 — unmanaged-region sensitivity", Machine: SmallCMP, Run: func(m Machine, limit int, progress func(int, int)) (string, string) {
		r := RunFig9(m, nil, limit, progress)
		return blocks(r.Table()), r.CSV()
	}},
	{Name: "fig10", Title: "Fig 10 — cache array designs", Machine: SmallCMP, Run: throughput(Fig10, false)},
	{Name: "fig11", Title: "Fig 11 — replacement policies", Machine: SmallCMP, Run: throughput(Fig11, false)},
	{Name: "table3", Title: "Table 3 — workload classification", Machine: SmallCMP, Run: func(m Machine, _ int, progress func(int, int)) (string, string) {
		r := RunTable3(m, 3, progress)
		return blocks(r.Table(), fmt.Sprintf("classification accuracy: %.0f%%\n", 100*r.Accuracy())), ""
	}},
	{Name: "validation", Title: "§6.2 validation — model configurations", Machine: SmallCMP, Run: throughput(Validation, false)},
	{Name: "fairness", Title: "Weighted and harmonic speedups (§5)", Machine: SmallCMP, Run: func(m Machine, limit int, progress func(int, int)) (string, string) {
		r := RunFairness(m, LRUBaseline(), []Scheme{DefaultVantageScheme(), WayPartScheme(), PIPPScheme()}, limit, progress)
		return blocks(r.Table()), ""
	}},
	{Name: "assoc", Title: "Array associativity vs FA(x)=x^R", Machine: SmallCMP, Run: func(m Machine, _ int, _ func(int, int)) (string, string) {
		return blocks(RunAssociativity(nil, m.L2Lines, 8000, m.Seed).Table()), ""
	}},
	{Name: "transient", Title: "Resize transient (Fig 8 adaptation claim)", Machine: SmallCMP, Run: func(m Machine, _ int, _ func(int, int)) (string, string) {
		return blocks(RunTransient(m.L2Lines, m.Seed).Table()), ""
	}},
}

// Fig8Experiment is the registry's Fig 8 entry tracing partition part of
// mix mixID; the registry traces partition 0 of ttnn4.
func Fig8Experiment(mixID string, part int) Experiment {
	return Experiment{Name: "fig8", Title: "Fig 8 — size tracking", Machine: SmallCMP,
		Run: func(m Machine, _ int, _ func(int, int)) (string, string) {
			r := RunFig8(m, mixID, part)
			text := []string{r.Table()}
			for i := range r.Schemes {
				text = append(text, r.Plot(i, 70, 12))
			}
			return blocks(text...), r.CSV()
		}}
}

// throughput adapts a scheme comparison to an entry: its table, then, with
// plot, the per-category breakdown and the sorted-improvement chart.
func throughput(run func(Machine, int, func(int, int)) ThroughputResult, plot bool) func(Machine, int, func(int, int)) (string, string) {
	return func(m Machine, limit int, progress func(int, int)) (string, string) {
		r := run(m, limit, progress)
		if !plot {
			return blocks(r.Table()), r.CSV()
		}
		return blocks(r.Table(), r.BreakdownTable(), r.Plot(70, 16)), r.CSV()
	}
}

// blocks joins text blocks with one blank line between them and one
// newline at the end.
func blocks(parts ...string) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(strings.TrimRight(p, "\n"))
		b.WriteString("\n")
	}
	return b.String()
}

// Lookup returns the registry entry called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ReportOptions configures WriteReport.
type ReportOptions struct {
	// Scale selects the machine sizes.
	Scale Scale
	// Mixes caps each sweep's workload count (0 = the full 350).
	Mixes int
	// Progress, if set, receives each entry's name as it starts.
	Progress func(name string)
	// Tweak, if set, adjusts each machine before use (tests shrink the
	// instruction budgets this way).
	Tweak func(Machine) Machine
}

// machine returns e's machine at opt's scale, tweaked; the zero Machine for
// an analytical entry.
func (opt ReportOptions) machine(build func(Scale) Machine) Machine {
	if build == nil {
		return Machine{}
	}
	m := build(opt.Scale)
	if opt.Tweak != nil {
		m = opt.Tweak(m)
	}
	return m
}

// WriteReport runs every registry entry and writes REPORT.md, one section
// per entry, plus each entry's CSV into dir. The output is a function of the
// tree and opt alone: `vantage-sim -config all -mixes 12 -csv results`
// regenerates the committed results/.
func WriteReport(dir string, opt ReportOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("exp: creating report dir: %w", err)
	}
	var md strings.Builder
	fmt.Fprintf(&md, "# Vantage reproduction report\n\n")
	fmt.Fprintf(&md, "Machines: %s; %s. Mix cap: %d.\n\n", opt.machine(SmallCMP), opt.machine(LargeCMP), opt.Mixes)
	for _, e := range Experiments {
		if opt.Progress != nil {
			opt.Progress(e.Name)
		}
		text, csv := e.Run(opt.machine(e.Machine), opt.Mixes, nil)
		fmt.Fprintf(&md, "## %s\n\n```\n%s```\n\n", e.Title, text)
		if csv != "" {
			if err := os.WriteFile(filepath.Join(dir, e.Name+".csv"), []byte(csv), 0o644); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(filepath.Join(dir, "REPORT.md"), []byte(md.String()), 0o644)
}
