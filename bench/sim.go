package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"vantage/internal/exp"
	"vantage/internal/sim"
	appmodel "vantage/internal/workload"
)

const (
	simMixes      = 2
	simInstrLimit = 25_000 // the repository's BenchmarkFig7LargeScale setting
	simSchemes    = 4      // LRU baseline, Vantage, way-partitioning, PIPP
	simGenRefs    = 1 << 16
)

// Span names of the simulator tracers, in tracer index order.
const (
	spFig7 = iota
	spGen
	spRecord
	spL1Filter
	spRunLRU
	spRunVantage
	spRunWayPart
	spRunPIPP
)

var simSpanNames = []string{"fig7_mix", "gen", "record", "l1filter", "run_lru", "run_vantage", "run_waypart", "run_pipp"}

// simFig7 regenerates the paper's 32-core comparison: the repository's
// headline path (recording, L1 filter, zcache walk, 32-partition Vantage,
// UMON and Lookahead, mix fan-out), with no service code on it. One window
// is one exp.Fig7 call over whole warm-up and measurement runs.
//
// The mixes are the repository's own (machine seed 2011) whatever -seed
// says: a mix's cost depends on its class, and two mixes do not average
// that out. Every simulated statistic therefore repeats exactly.
type simFig7 struct {
	traced bool
	m      exp.Machine
	mixIDs []string

	hitRatio float64 // Vantage's simulated L2 hit ratio on the first mix
	setupFP  string
	first    *exp.ThroughputResult
	differ   int // windows whose result differs from the first

	// Traced windows run the decomposed pipeline instead of exp.Fig7.
	tracing bool
	tracers []*tracer // one per mix
	counted simCounts
}

// simCounts is what the decomposed pipeline counted, summed over mixes and
// traced windows.
type simCounts struct {
	mu         sync.Mutex
	drainRefs  uint64                   // references drained from a generator, and from a recording
	filterRefs uint64                   // references the L1 filter consumed
	runs       [simSchemes][]sim.Result // by scheme, in the order of the run_* spans
}

func newSimFig7(rn run) *simFig7 {
	m := exp.LargeCMP(exp.ScaleUnit)
	m.InstrLimit = simInstrLimit
	w := &simFig7{traced: rn.traced, m: m}
	for _, mix := range m.Mixes(simMixes) {
		w.mixIDs = append(w.mixIDs, mix.ID)
	}
	return w
}

func (w *simFig7) threads() int { return min(2, runtime.GOMAXPROCS(0)) }

// calib: about 0.3 s, three quarters of it arithmetic. The simulator is
// compute-bound; the mem component alone tracked it worst of all.
func (w *simFig7) calib() (calibMix, float64) {
	return calibMix{chunks: 1000, alu: 110_000, mem: 300}, 300e6
}

func (w *simFig7) latSamplesPerWindow() int { return 0 } // the window is the latency
func (w *simFig7) fingerprint() string      { return w.setupFP }
func (w *simFig7) teardown()                {}

func (w *simFig7) minWindows() int {
	if w.traced {
		return 1
	}
	return 3 // a median that one disturbed window cannot move; all are compared with the first
}

// opsPerWindow is the simulated instructions of one window.
func (w *simFig7) opsPerWindow() int {
	return simMixes * simSchemes * w.m.Cores * int(w.m.WarmupInstr+w.m.InstrLimit)
}

// setup warms the process with one whole Vantage run of the first mix, which
// also yields the simulated hit ratio.
func (w *simFig7) setup() error {
	mix, err := w.m.Mix(w.mixIDs[0])
	if err != nil {
		return err
	}
	res := w.m.RunMix(mix, exp.DefaultVantageScheme())
	var acc, miss uint64
	for _, c := range res.Cores {
		acc += c.L2Accesses
		miss += c.L2Misses
	}
	w.hitRatio = 1 - float64(miss)/float64(acc)
	w.setupFP = fmt.Sprintf("mix=%s throughput=%v l2acc=%d l2miss=%d repartitions=%d", mix.ID, res.Throughput, acc, miss, res.Repartitions)
	return nil
}

func (w *simFig7) window(out *windowOut) {
	if w.tracing {
		w.decomposed()
	} else {
		r := exp.Fig7(w.m, simMixes, nil)
		if w.first == nil {
			w.first = &r
		} else if !sameThroughput(*w.first, r) {
			w.differ++
			out.failed = w.opsPerWindow()
		}
	}
	out.ops = w.opsPerWindow()
}

// sameThroughput reports whether two results agree bit for bit.
func sameThroughput(a, b exp.ThroughputResult) bool {
	if !slices.Equal(a.MixIDs, b.MixIDs) || !slices.Equal(a.BaselineThroughput, b.BaselineThroughput) || len(a.Curves) != len(b.Curves) {
		return false
	}
	for i := range a.Curves {
		if a.Curves[i].Scheme != b.Curves[i].Scheme || !slices.Equal(a.Curves[i].PerMix, b.Curves[i].PerMix) {
			return false
		}
	}
	return true
}

// speedupGmean is the geometric mean over the mixes of Vantage-Z4/52's
// throughput relative to LRU. It is a repeat-exactly canary, not an accuracy
// figure: the workloads are synthetic and the model is unvalidated.
func (w *simFig7) speedupGmean() float64 {
	want := exp.DefaultVantageScheme().Name
	for _, c := range w.first.Curves {
		if c.Scheme == want {
			return c.Summary.GeoMean
		}
	}
	return 0
}

func (w *simFig7) report(r *report) {
	r.set("hit_ratio", w.hitRatio)
	if w.differ > 0 {
		r.fail("%d windows' ThroughputResult differed from the first window's", w.differ)
	}
	if w.first != nil {
		r.set("speedup_gmean", w.speedupGmean())
		r.note("mixes=%v, speedup_gmean is %s over LRU", w.mixIDs, exp.DefaultVantageScheme().Name)
	}
}

// decomposed does what exp.Fig7 does for the same mixes, one exported call at
// a time with a span around each, two mixes side by side as Fig7's fan-out
// has them on two cores. On top of Fig7's work it drains a generator, a
// recording and an L1 filter once each, to time those layers alone.
func (w *simFig7) decomposed() {
	var wg sync.WaitGroup
	for i, id := range w.mixIDs {
		wg.Add(1)
		go func(tr *tracer, id string) {
			defer wg.Done()
			w.decomposedMix(tr, id)
		}(w.tracers[i], id)
	}
	wg.Wait()
}

// packedRefs is an app's first references in memory, packed the way
// workload.UnpackRef documents. It hands them out in small slices, so that
// whoever reads it has consumed every one of them when it first falls back
// to Next, which then starts over.
type packedRefs struct {
	appmodel.App // name and category
	refs         []uint64
	pos          int
	again        uint64 // references handed out by Next
}

const packedSlice = 256

func (p *packedRefs) NextPacked() []uint64 {
	out := p.refs[p.pos:min(p.pos+packedSlice, len(p.refs))]
	p.pos += len(out)
	return out
}

func (p *packedRefs) Next() (int, uint64) {
	gap, addr := appmodel.UnpackRef(p.refs[p.again%uint64(len(p.refs))])
	p.again++
	return gap, addr
}

func (w *simFig7) decomposedMix(tr *tracer, id string) {
	m := w.m
	tr.begin(spFig7, 0)
	defer tr.end()

	fresh, err := m.Mix(id)
	if err != nil {
		panic(err) // the id came from this machine's own mix list
	}
	streams := make([]*packedRefs, len(fresh.Apps))
	tr.begin(spGen, 0)
	for a, app := range fresh.Apps {
		refs := make([]uint64, simGenRefs)
		for i := range refs {
			gap, addr := app.Next()
			if addr>>32 != 0 {
				panic("sim-fig7: a line address does not fit the packed reference format")
			}
			refs[i] = uint64(gap)<<32 | addr
		}
		streams[a] = &packedRefs{App: app, refs: refs}
	}
	tr.end()

	fresh, _ = m.Mix(id)
	tr.begin(spRecord, 0)
	for _, app := range m.Record(fresh).Replay().Apps {
		for i := 0; i < simGenRefs; i++ {
			app.Next()
		}
	}
	tr.end()
	refs := uint64(len(fresh.Apps)) * simGenRefs

	// The L1 filter alone, the way Machine.RecordMisses builds it, over
	// the references already in memory: a cursor is drained until the
	// filter has taken them all.
	var filterRefs uint64
	tr.begin(spL1Filter, 0)
	for _, src := range streams {
		cur := sim.NewMissRecorder(src, m.L1Lines, m.L1Ways, sim.DefaultLatencies(), m.WarmupInstr, m.InstrLimit).MissSet(1)[0]
		for src.again == 0 {
			cur.NextChunk()
		}
		filterRefs += uint64(len(src.refs)) + src.again
	}
	tr.end()

	// The first run to read the filtered stream also produces it, as the
	// scheme that runs ahead does in exp.Fig7.
	fresh, _ = m.Mix(id)
	sets := exp.MissSets(m.RecordMisses(m.Record(fresh)), simSchemes)
	schemes := [simSchemes]exp.Scheme{exp.LRUBaseline(), exp.DefaultVantageScheme(), exp.WayPartScheme(), exp.PIPPScheme()}
	var runs [simSchemes]sim.Result
	for i, sch := range schemes {
		tr.begin(spRunLRU+i, 0)
		runs[i] = m.RunMixMiss(id, sets[i], sch)
		tr.end()
	}

	w.counted.mu.Lock()
	w.counted.drainRefs += refs
	w.counted.filterRefs += filterRefs
	for i, res := range runs {
		w.counted.runs[i] = append(w.counted.runs[i], res)
	}
	w.counted.mu.Unlock()
}
