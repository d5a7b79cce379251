package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // allowed worsening as a share of the parent's median; end-to-end only
}

// report collects one workload run's metrics and correctness findings.
type report struct {
	workload  string
	values    map[string]float64
	notes     []string
	problems  []string
	attempted int64
	failed    int64
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// note records a line for the human-readable output (sample counts and the
// like); it never reaches the JSON result.
func (r *report) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// fail records an output that was not correct.
func (r *report) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// correct reports whether every check passed and every operation succeeded.
func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// print writes every metric of defs by name and unit, then the notes and
// problems, then the result object as the last line.
func (r *report) print(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value, len(defs))}

	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, d.name, v)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.name, v, d.unit)
		result.Metrics[d.name] = value{v, d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", strings.ReplaceAll(p, "\n", "\n    "))
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, r.correct())
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
