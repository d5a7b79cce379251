package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Req    uint32 `json:"req"`    // spans of one request share it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotals is what every span of one name adds up to. Self time is the
// span's duration minus the part its children cover.
type spanTotals struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// keptSpans is how many spans a tracer keeps for the trace file; the totals
// cover every span.
const keptSpans = 1 << 14

// tracer records spans in memory from one goroutine. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch  time.Time
	names  []string
	totals []spanTotals
	kept   []span
	next   int32
	stack  []openSpan
}

type openSpan struct {
	name   int
	id     int32
	req    uint32
	start  int64
	childs int64
}

// newTracer returns a tracer for the given span names; spans are referred to
// by their index in names.
func newTracer(epoch time.Time, names ...string) *tracer {
	return &tracer{
		epoch:  epoch,
		names:  names,
		totals: make([]spanTotals, len(names)),
		kept:   make([]span, 0, keptSpans),
		stack:  make([]openSpan, 0, 8),
	}
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name int, req uint32) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{name: name, id: t.next, req: req, start: int64(time.Since(t.epoch))})
	t.next++
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.endAs(t.stack[len(t.stack)-1].name)
}

// endAs closes the innermost open span under another name, for calls whose
// kind is known only from their result (a GET that hit or missed).
func (t *tracer) endAs(name int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	top := len(t.stack) - 1
	o := t.stack[top]
	t.stack = t.stack[:top]
	d := now - o.start
	tot := &t.totals[name]
	tot.Count++
	tot.Total += d
	tot.Self += d - o.childs
	parent := int32(-1)
	if top > 0 {
		t.stack[top-1].childs += d
		parent = t.stack[top-1].id
	}
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{t.names[name], o.id, parent, o.req, o.start, now})
	}
}

// p50NS is the median duration of the kept spans named name, 0 when there
// are none.
func (t *tracer) p50NS(name int) float64 {
	var d []float64
	for _, s := range t.kept {
		if s.Name == t.names[name] {
			d = append(d, float64(s.End-s.Start))
		}
	}
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// traceFile is what a traced pass writes out.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Totals   map[string]spanTotals `json:"totals"`
	Spans    []span                `json:"spans"`
}

// writeTrace merges the tracers (one per goroutine) and writes
// trace-<workload>.json into outDir.
func writeTrace(workload string, seed uint64, tracers ...*tracer) (string, error) {
	f := traceFile{Workload: workload, Seed: seed, Totals: make(map[string]spanTotals)}
	for g, t := range tracers {
		for i, name := range t.names {
			sum := f.Totals[name]
			sum.Count += t.totals[i].Count
			sum.Total += t.totals[i].Total
			sum.Self += t.totals[i].Self
			f.Totals[name] = sum
		}
		for _, s := range t.kept {
			// Span ids are per tracer; keep them apart in the merged file.
			s.ID += int32(g) << 24
			if s.Parent >= 0 {
				s.Parent += int32(g) << 24
			}
			f.Spans = append(f.Spans, s)
		}
	}
	sort.SliceStable(f.Spans, func(i, j int) bool { return f.Spans[i].Start < f.Spans[j].Start })
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
