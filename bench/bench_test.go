package main

import (
	"go/parser"
	"go/token"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The calibration kernel must not move when the program under test does:
// it may import the standard library only.
func TestCalibrationKernelImportsNothingFromTheModule(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "calib.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if strings.Contains(path, ".") || strings.HasPrefix(path, "vantage") {
			t.Errorf("calib.go imports %q; the kernel must depend on the standard library only", path)
		}
	}
}

func TestCalibrationSlicesDoIdenticalWork(t *testing.T) {
	tab := newCalibTable()
	var a, b calibState
	mix := calibMix{chunks: 10, alu: 1000, mem: 1000}
	a.run(tab, mix)
	b.run(tab, mix)
	first := a.sink
	a.run(tab, mix) // a second slice on used state
	if a.sink != first || b.sink != first {
		t.Fatalf("slices differ: %x %x %x", first, a.sink, b.sink)
	}
	b.run(tab, calibMix{chunks: 10, alu: 1000, mem: 1001})
	if b.sink == first {
		t.Fatal("a longer slice left the same trace; the kernel's result does not depend on its work")
	}
}

// syntheticRun feeds an aggregator windows of a program that takes perOpNS
// per operation on a quiet host, on a host that runs 20 % slow during
// windows [slowFrom, slowTo) and jitters a little throughout.
func syntheticRun(perOpNS float64, slowFrom, slowTo int) *aggregator {
	const windows, ops, c0 = 300, 1000, 1e6
	a := newAggregator(c0, windows, 0, minLatSamples)
	host := func(w int) float64 {
		f := 1 + 0.01*math.Sin(float64(w)) // jitter
		if w >= slowFrom && w < slowTo {
			f *= 1.2
		}
		return f
	}
	for w := 0; w < windows; w++ {
		a.slice(sliceTimes{c0 * host(w), c0 * host(w)})
		wall := perOpNS * ops * (host(w) + host(w+1)) / 2
		a.window(int64(wall), int64(wall), ops, nil)
	}
	a.slice(sliceTimes{c0 * host(windows), c0 * host(windows)})
	a.finish()
	return a
}

func TestAggregationSeesThroughASlowPhase(t *testing.T) {
	// Program B is 10 % faster than A; A meets a short slow phase, B a long
	// one that covers most of its run.
	a := syntheticRun(1000, 100, 160)
	b := syntheticRun(900, 40, 260)
	got := a.opsPerS() / b.opsPerS()
	if want := 0.9; math.Abs(got/want-1) > 0.03 {
		t.Errorf("calibrated throughput ratio %.4f, want %.4f within 3 %%", got, want)
	}
	if raw := a.rawOpsPerS() / b.rawOpsPerS(); math.Abs(raw/0.9-1) < 0.03 {
		t.Errorf("uncalibrated ratio %.4f is already right; the slow phase is not testing anything", raw)
	}
	if got := a.cpuUSPerOp() / b.cpuUSPerOp(); math.Abs(got*0.9-1) > 0.03 {
		t.Errorf("calibrated CPU ratio %.4f, want %.4f within 3 %%", got, 1/0.9)
	}
}

func TestLatencyPercentilesPoolToTheMinimumSample(t *testing.T) {
	a := newAggregator(1e6, 16, 500, minLatSamples)
	lat := make([]int64, 500)
	for i := range lat {
		lat[i] = int64(i + 1)
	}
	for w := 0; w < 8; w++ {
		a.slice(sliceTimes{1e6, 1e6})
		a.window(1e7, 1e7, 500, lat)
	}
	a.slice(sliceTimes{1e6, 1e6})
	a.finish()
	if len(a.p50) != 2 || a.samples != 4000 {
		t.Fatalf("got %d percentile groups from %d samples, want 2 from 4000", len(a.p50), a.samples)
	}
	if a.p50[0] != 250 || a.p99[0] != 495 {
		t.Errorf("p50=%v p99=%v, want 250 and 495", a.p50[0], a.p99[0])
	}
}

// The L1 filter probe divides by what the filter took from packedRefs: every
// packed reference must have been handed out before Next is first called,
// and Next must count its own.
func TestPackedRefsHandsOutEveryReferenceOnce(t *testing.T) {
	refs := make([]uint64, 2*packedSlice+7)
	for i := range refs {
		refs[i] = uint64(i+1)<<32 | uint64(i)
	}
	p := &packedRefs{refs: refs}
	var got []uint64
	for s := p.NextPacked(); len(s) > 0; s = p.NextPacked() {
		got = append(got, s...)
	}
	if len(got) != len(refs) || got[len(got)-1] != refs[len(refs)-1] {
		t.Fatalf("NextPacked handed out %d references, want %d", len(got), len(refs))
	}
	if gap, addr := p.Next(); gap != 1 || addr != 0 || p.again != 1 {
		t.Errorf("Next after the packed references: gap %d addr %d counted %d, want the first reference again, counted once", gap, addr, p.again)
	}
}

// The harness's own loops must not allocate, or allocs_per_op would count
// the benchmark and not the program.
func TestHarnessHotLoopsDoNotAllocate(t *testing.T) {
	var key [keyLen]byte
	var val [valueLen]byte
	var keys [proxyBatch][keyLen]byte
	tenant := []byte("tenant")
	c := &conn{wbuf: make([]byte, 0, 64<<10)}
	agg := newAggregator(1e6, 4096, 64, minLatSamples)
	lat := make([]int64, 64)
	tr := newTracer(time.Now(), clientSpanNames...)
	var nilTracer *tracer
	gens := newTenantGens(32768, 0)

	loops := map[string]func(){
		"keys and values": func() {
			putKey(key[:], 42)
			putValue(val[:], 42)
			if !valueOK(val[:], 42) {
				t.Error("valueOK rejects putValue's own output")
			}
		},
		"binary encoding": func() {
			c.wbuf = c.wbuf[:0]
			c.binGet(tenant, key[:], 1)
			c.binPut(tenant, key[:], val[:], 2, 1000)
			c.binBMGet(tenant, keys[:], 3)
		},
		"text encoding": func() {
			c.wbuf = c.wbuf[:0]
			c.textGet(tenant, key[:])
			c.textPut(tenant, key[:], val[:], 1000)
			c.textMGet(tenant, keys[:])
		},
		"aggregation": func() {
			agg.slice(sliceTimes{1e6, 1e6})
			agg.window(1e7, 1e7, 64, lat)
		},
		"spans": func() {
			tr.begin(spRTT, 1)
			tr.begin(spEncode, 1)
			tr.end()
			tr.endAs(spFill)
			nilTracer.begin(spRTT, 1)
			nilTracer.end()
		},
		"key generation": func() {
			for i := range gens {
				putKey(key[:], gens[i].next())
			}
		},
	}
	for name, fn := range loops {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}

func TestCalibratorSliceDoesNotAllocate(t *testing.T) {
	cal, err := newCalibrator(fixedCalib{n: 2, mix: calibMix{chunks: 4, alu: 100, mem: 100, echo: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	if n := testing.AllocsPerRun(50, func() { cal.slice() }); n != 0 {
		t.Errorf("calibrator.slice: %v allocs per run, want 0", n)
	}
}

type fixedCalib struct {
	n   int
	mix calibMix
}

func (f fixedCalib) threads() int               { return f.n }
func (f fixedCalib) calib() (calibMix, float64) { return f.mix, 1 }

func TestNamesMeetTheContractAndBenchmarkJSONIsCurrent(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.name)
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, d := range perLayer {
		name(d.name)
		if !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
	}
	if len(workloadDefs) < 2 || len(workloadDefs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics are outside the contract", len(workloadDefs), len(endToEnd), len(perLayer))
	}

	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from the suite's tables; regenerate it with: bench/run.sh --describe > BENCHMARK.json")
	}
}
