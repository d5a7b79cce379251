package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"vantage/internal/cluster"
	"vantage/internal/service"
)

const (
	proxyNodes            = 3
	proxyShards           = 2
	proxyLinesPerShard    = 4096
	proxyBatch            = 32
	proxyBatchesPerWindow = 512 // per connection
	proxyWarmWindows      = 8
	proxyRatioWindows     = 32 // hit_ratio and isolation_ratio cover these
	// proxyRepartition is the interval the repository's cluster benchmarks
	// run their nodes with.
	proxyRepartition = 50 * time.Millisecond
)

// proxyCluster is three nodes and a proxy in this process, wired the way
// cmd/vantaged wires them, all on loopback.
type proxyCluster struct {
	svcs  []*service.Service
	srvs  []*service.Server
	addrs []string
	proxy *cluster.Proxy
}

func newProxyCluster(trackLatency bool) (*proxyCluster, error) {
	pc := &proxyCluster{}
	liss := make([]net.Listener, proxyNodes)
	for i := range liss {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		liss[i] = lis
		pc.addrs = append(pc.addrs, lis.Addr().String())
	}
	for i, lis := range liss {
		svc, err := service.New(service.Config{
			Shards:              proxyShards,
			LinesPerShard:       proxyLinesPerShard,
			RepartitionInterval: proxyRepartition,
			Seed:                mixSeed + uint64(i),
			TrackLatency:        trackLatency,
		})
		if err != nil {
			return nil, err
		}
		pc.svcs = append(pc.svcs, svc)
		pc.srvs = append(pc.srvs, service.Serve(svc, lis))
		node, err := cluster.NewNode(svc, pc.addrs[i], pc.addrs, cluster.DefaultVNodes)
		if err != nil {
			return nil, err
		}
		svc.SetClusterHandler(node)
	}
	// An add on one node is announced to its peers before it returns.
	for _, t := range table3 {
		if _, err := pc.svcs[0].AddTenant(t.name); err != nil {
			return nil, err
		}
	}
	plis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	pc.proxy, err = cluster.NewProxyWith(plis, pc.addrs, cluster.DefaultVNodes, cluster.ProxyConfig{TrackLatency: trackLatency})
	return pc, err
}

func (pc *proxyCluster) close() {
	if pc.proxy != nil {
		pc.proxy.Close()
	}
	for _, s := range pc.srvs {
		_ = s.Close() // each listener is ours and closes once
	}
	for _, s := range pc.svcs {
		_ = s.Close()
	}
}

func (pc *proxyCluster) stats() []service.Stats {
	out := make([]service.Stats, len(pc.svcs))
	for i, s := range pc.svcs {
		out[i] = s.Stats()
	}
	return out
}

// front is one client connection to the proxy driving the Table 3 mix in
// batches: a multi-key read of one tenant, then the pipelined fills of the
// keys that missed. binary picks the wire front.
type front struct {
	c      *conn
	binary bool
	gens   [4]tenantGen
	batchN uint64
	keys   [proxyBatch][keyLen]byte
	hashes [proxyBatch]uint64
	missed []int // indexes into keys of the batch's misses
	val    [valueLen]byte
	vsalt  uint64 // folds the run's seed into every stored value
	out    windowOut
	gets   [4]uint64
	hits   [4]uint64
}

func newFront(addr string, bin bool, seed uint64) (*front, error) {
	f := &front{binary: bin, missed: make([]int, 0, proxyBatch), vsalt: mix64(seed)}
	f.out.lat = make([]int64, 0, proxyBatchesPerWindow)
	stream := uint64(1)
	if bin {
		stream = 0
	}
	f.gens = newTenantGens(proxyNodes*proxyShards*proxyLinesPerShard, stream)
	var err error
	f.c, err = dialProto(addr, bin)
	return f, err
}

// batch reads proxyBatch keys of the next tenant and fills the misses. With
// alone set, only the friendly tenant's batches are issued.
func (f *front) batch(alone bool) error {
	ti := int(f.batchN & 3)
	f.batchN++
	if alone && ti != 0 {
		return nil
	}
	g := &f.gens[ti]
	req := uint32(f.batchN)
	f.c.tr.begin(spRTT, req)
	t0 := time.Now()
	f.c.tr.begin(spEncode, req)
	for i := range f.keys {
		f.hashes[i] = g.next()
		putKey(f.keys[i][:], f.hashes[i])
	}
	if f.binary {
		f.c.binBMGet(g.name, f.keys[:], req)
	} else {
		f.c.textMGet(g.name, f.keys[:])
	}
	f.c.tr.end()
	if err := f.c.flush(); err != nil {
		return err
	}
	f.missed = f.missed[:0]
	var err error
	if f.binary {
		err = f.readBMGet(req)
	} else {
		err = f.readMGet()
	}
	if err != nil {
		return err
	}
	f.out.lat = append(f.out.lat, int64(time.Since(t0)))
	f.c.tr.end()
	f.out.ops += proxyBatch
	f.gets[ti] += proxyBatch
	f.hits[ti] += uint64(proxyBatch - len(f.missed))
	if len(f.missed) == 0 {
		return nil
	}

	f.c.tr.begin(spFill, req)
	defer f.c.tr.end()
	for _, i := range f.missed {
		putValue(f.val[:], f.hashes[i]^f.vsalt)
		if f.binary {
			f.c.binPut(g.name, f.keys[i][:], f.val[:], uint32(i), 0)
		} else {
			f.c.textPut(g.name, f.keys[i][:], f.val[:], 0)
		}
	}
	if err := f.c.flush(); err != nil {
		return err
	}
	for range f.missed {
		ok := false
		if f.binary {
			status, _, _, _, err := f.c.binResponse()
			if err != nil {
				return err
			}
			ok = status == stOK
		} else if ok, err = f.c.textExpect("STORED"); err != nil {
			return err
		}
		f.out.ops++
		if !ok {
			f.out.failed++
		}
	}
	return nil
}

// readBMGet reads the coalesced BMGET answer, checking every value.
func (f *front) readBMGet(req uint32) error {
	status, _, id, p, err := f.c.binResponse()
	if err != nil {
		return err
	}
	if status != stOK || id != req || len(p) < 2 || binary.LittleEndian.Uint16(p) != proxyBatch {
		f.out.failed += proxyBatch
		return nil
	}
	p = p[2:]
	for i := range f.keys {
		var st byte
		var v []byte
		if st, v, p, err = bmgetEntry(p); err != nil {
			return err
		}
		f.check(i, st == stOK, st == stMiss, v)
	}
	return nil
}

// readMGet reads the proxyBatch answers of an MGET and its END.
func (f *front) readMGet() error {
	for i := range f.keys {
		v, hit, err := f.c.textValue()
		if err != nil {
			return err
		}
		f.check(i, hit, !hit, v)
	}
	end, err := f.c.textExpect("END")
	if err == nil && !end {
		err = fmt.Errorf("%w: MGET batch without END", errProtocol)
	}
	return err
}

// check books key i's answer: a hit must carry the key's value, a miss is
// queued for a fill, anything else (SHED, ERR) failed.
func (f *front) check(i int, hit, miss bool, v []byte) {
	switch {
	case hit && valueOK(v, f.hashes[i]^f.vsalt):
	case miss:
		f.missed = append(f.missed, i)
	default:
		f.out.failed++
	}
}

// proxyMix is the cluster workload: ring split, pool, scatter/merge and both
// proxy fronts, over nodes that still do real replacement work.
type proxyMix struct {
	seed   uint64
	traced bool

	pc     *proxyCluster
	fronts [2]*front // A: binary BMGET, B: text MGET
	gang   *gang
	alone  bool
	errs   [2]error

	ratioWindows int             // windows hit_ratio and isolation_ratio cover
	n            int             // measured windows so far
	mix          [4]tenantCounts // what the clients saw in the first ratioWindows of them

	// Traced pass only.
	tracers     []*tracer
	tracedFrom  []service.Stats
	proxyFrom   cluster.ProxyStats
	batchesFrom uint64
}

func newProxyMix(rn run) *proxyMix {
	w := &proxyMix{seed: rn.seed, traced: rn.traced, ratioWindows: proxyRatioWindows}
	if rn.windows > 0 && rn.windows < w.ratioWindows {
		w.ratioWindows = rn.windows
	}
	return w
}

func (w *proxyMix) threads() int { return 2 }

// calib: three quarters memory-bound work, one quarter loopback round trips.
func (w *proxyMix) calib() (calibMix, float64) { return calibMix{chunks: 700, mem: 100, echo: 1}, 28e6 }

func (w *proxyMix) minWindows() int {
	if w.traced {
		return 8
	}
	return w.ratioWindows
}

func (w *proxyMix) latSamplesPerWindow() int { return proxyBatchesPerWindow }
func (w *proxyMix) fingerprint() string      { return "" }

// build starts a cluster, its two client connections and their goroutines.
func (w *proxyMix) build() error {
	var err error
	if w.pc, err = newProxyCluster(w.traced); err != nil {
		return err
	}
	for i := range w.fronts {
		if w.fronts[i], err = newFront(w.pc.proxy.Addr().String(), i == 0, w.seed); err != nil {
			return err
		}
	}
	w.gang = newGang(len(w.fronts), func(i int) {
		for n := 0; n < proxyBatchesPerWindow && w.errs[i] == nil; n++ {
			w.errs[i] = w.fronts[i].batch(w.alone)
		}
	})
	return nil
}

// windowOf runs one window and merges both connections' results. Latency
// comes from connection A only: the two fronts' round trips are bimodal.
func (w *proxyMix) windowOf(out *windowOut) error {
	w.gang.run()
	for i, f := range w.fronts {
		if w.errs[i] != nil {
			return fmt.Errorf("connection %c: %w", 'A'+i, w.errs[i])
		}
		out.ops += f.out.ops
		out.failed += f.out.failed
		if i == 0 {
			out.lat = append(out.lat, f.out.lat...)
		}
		f.out.ops, f.out.failed, f.out.lat = 0, 0, f.out.lat[:0]
	}
	return nil
}

// run drives the cluster through windows untimed windows.
func (w *proxyMix) run(windows int) error {
	var scratch windowOut
	for i := 0; i < windows; i++ {
		scratch.lat = scratch.lat[:0]
		if err := w.windowOf(&scratch); err != nil {
			return err
		}
	}
	return nil
}

// warm runs the warm windows and the one warm-up window.
func (w *proxyMix) warm() error { return w.run(proxyWarmWindows + 1) }

// counts is every tenant's gets and hits as the clients saw them.
func (w *proxyMix) counts() (c [4]tenantCounts) {
	for _, f := range w.fronts {
		for t := range c {
			c[t].gets += f.gets[t]
			c[t].hits += f.hits[t]
		}
	}
	return c
}

// ratio is hits over gets of the tenants in tenants, which index table3.
func ratio(c [4]tenantCounts, tenants ...int) float64 {
	var gets, hits uint64
	for _, t := range tenants {
		gets += c[t].gets
		hits += c[t].hits
	}
	return float64(hits) / float64(gets)
}

// resetCounts forgets the clients' hit counts, so they cover what follows.
func (w *proxyMix) resetCounts() {
	for _, f := range w.fronts {
		f.gets, f.hits = [4]uint64{}, [4]uint64{}
	}
}

// measureAlone runs the isolation baseline and returns the friendly tenant's
// hit ratio in it: the friendly tenant's batches alone, on a cluster of its
// own, over ratioWindows windows.
func (w *proxyMix) measureAlone() (float64, error) {
	if err := w.build(); err != nil {
		return 0, err
	}
	defer w.teardown()
	w.alone = true
	defer func() { w.alone = false }()
	if err := w.warm(); err != nil {
		return 0, err
	}
	w.resetCounts()
	if err := w.run(w.ratioWindows); err != nil {
		return 0, err
	}
	return ratio(w.counts(), 0), nil
}

func (w *proxyMix) setup() error {
	if err := w.build(); err != nil {
		return err
	}
	if err := w.warm(); err != nil {
		return err
	}
	w.resetCounts()
	w.n = 0
	return nil
}

func (w *proxyMix) teardown() {
	if w.gang != nil {
		w.gang.close()
		w.gang = nil
	}
	for i, f := range w.fronts {
		if f != nil && f.c != nil {
			f.c.close()
		}
		w.fronts[i] = nil
	}
	if w.pc != nil {
		w.pc.close()
		w.pc = nil
	}
}

func (w *proxyMix) window(out *windowOut) {
	if err := w.windowOf(out); err != nil {
		out.failed += 2*proxyBatchesPerWindow*proxyBatch - out.ops
		out.ops = 2 * proxyBatchesPerWindow * proxyBatch
	}
	if w.n++; w.n <= w.ratioWindows {
		w.mix = w.counts()
	}
}

func (w *proxyMix) report(r *report) {
	r.set("hit_ratio", ratio(w.mix, 0, 1, 2, 3))
	r.note("hit_ratio and isolation_ratio cover the first %d windows", min(w.n, w.ratioWindows))
	for i, err := range w.errs {
		if err != nil {
			r.fail("connection %c: %v", 'A'+i, err)
		}
	}
	if w.traced || !r.correct() {
		return
	}
	// The isolation baseline needs a cluster of its own; this one is done.
	// It runs after the last measured window, so that neither setup_s nor
	// any window pays for it.
	w.teardown()
	alone, err := w.measureAlone()
	if err != nil {
		r.fail("isolation baseline: %v", err)
		return
	}
	r.set("isolation_ratio", ratio(w.mix, 0)/alone)
	r.note("friendly tenant's hit ratio: %.6g in the mix, %.6g with the co-runners idle", ratio(w.mix, 0), alone)
}
