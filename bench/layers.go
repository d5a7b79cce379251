package main

import (
	"runtime"
	"time"

	"vantage/internal/cluster"
	"vantage/internal/service"
)

// This file holds what each workload adds to the traced pass: its tracers
// and the per-layer metrics of the layers it reaches.

// ---- sim-fig7 --------------------------------------------------------------

func (w *simFig7) setTracing(on bool) []*tracer {
	w.tracing = on
	if on {
		w.tracers = nil
		epoch := time.Now()
		for range w.mixIDs {
			w.tracers = append(w.tracers, newTracer(epoch, simSpanNames...))
		}
	}
	return w.tracers
}

func (w *simFig7) layers(r *report, cal *calibrator, ref, traced *measured) error {
	tot := make([]float64, len(simSpanNames))
	for _, tr := range w.tracers {
		for i := range tot {
			tot[i] += float64(tr.totals[i].Total)
		}
	}
	c := &w.counted
	r.set("workload.gen_ns_per_ref", tot[spGen]/float64(c.drainRefs))
	r.set("workload.record_ns_per_ref", tot[spRecord]/float64(c.drainRefs))
	r.set("sim.l1filter_ns_per_ref", tot[spL1Filter]/float64(c.filterRefs))
	// A run's time covers its warm-up too; its Result counts the L2
	// accesses of the measurement window. The quotient is a cost index that
	// moves with the run's cost, not the cost of one access.
	l2 := func(scheme int) (n float64) {
		for _, res := range c.runs[scheme] {
			for _, core := range res.Cores {
				n += float64(core.L2Accesses)
			}
		}
		return n
	}
	for i, name := range []string{"sim.run_lru_ns_per_l2acc", "sim.run_vantage_ns_per_l2acc", "sim.run_waypart_ns_per_l2acc", "sim.run_pipp_ns_per_l2acc"} {
		r.set(name, tot[spRunLRU+i]/l2(i))
	}
	var l1, l2acc, l2miss, reparts float64
	for _, res := range c.runs[spRunVantage-spRunLRU] {
		for _, core := range res.Cores {
			l1 += float64(core.L1Accesses)
			l2acc += float64(core.L2Accesses)
			l2miss += float64(core.L2Misses)
		}
		reparts += float64(res.Repartitions)
	}
	windows := float64(len(traced.agg.wall))
	r.set("sim.l1_accesses", l1/windows)
	r.set("sim.l2_accesses", l2acc/windows)
	r.set("sim.l2_misses", l2miss/windows)
	r.set("sim.repartitions", reparts/windows)
	var cpu, wall float64
	for i := range ref.agg.wall {
		cpu += ref.agg.cpu[i]
		wall += ref.agg.wall[i]
	}
	r.set("exp.parallel_efficiency", cpu/(wall*float64(runtime.GOMAXPROCS(0))))
	coreProbes(r, cal, 1)
	return nil
}

// ---- svc-mix ---------------------------------------------------------------

// Span names of the svc-mix tracer, in tracer index order.
const (
	spWindow = iota
	spRepartition
	spSweep
	spGetHit
	spGetMiss
	spPutInsert
)

var svcSpanNames = []string{"window", "Repartition", "SweepOnce", "GetB.hit", "GetB.miss", "PutB.insert"}

func (w *svcMix) setTracing(on bool) []*tracer {
	w.m.tr = nil
	if on {
		w.tr = newTracer(time.Now(), svcSpanNames...)
		w.tracedFrom = w.m.svc.Stats()
		w.m.tr = w.tr
		return []*tracer{w.tr}
	}
	return nil
}

func (w *svcMix) layers(r *report, cal *calibrator, ref, traced *measured) error {
	serviceCounts(r, []service.Stats{w.tracedFrom}, []service.Stats{w.m.svc.Stats()})

	// The ledger: what the traced windows took, minus what the spans inside
	// them account for, is what the harness's own loop and the clock reads
	// cost. Self time of the window span is exactly that remainder.
	window := w.tr.totals[spWindow]
	r.set("ledger.svc_residual_pct", 100*float64(window.Self)/float64(window.Total))

	coreProbes(r, cal, w.seed)
	return serviceProbes(r, cal, w.seed)
}

// ---- wire-bin-hot and wire-text-rtt ----------------------------------------

func (w *wireBinHot) setTracing(on bool) []*tracer {
	var out []*tracer
	epoch := time.Now()
	for _, b := range w.clients {
		b.c.tr = nil
		if on {
			b.c.tr = newTracer(epoch, clientSpanNames...)
			out = append(out, b.c.tr)
		}
	}
	if on {
		w.tracedFrom = w.srv.svc.Stats()
	}
	return out
}

func (w *wireBinHot) layers(r *report, cal *calibrator, ref, traced *measured) error {
	return wireLayers(r, cal, w.srv, w.tracedFrom, w.seed, true, w.window)
}

func (w *wireTextRTT) setTracing(on bool) []*tracer {
	w.c.tr = nil
	if on {
		w.c.tr = newTracer(time.Now(), clientSpanNames...)
		w.tracedFrom = w.srv.svc.Stats()
		return []*tracer{w.c.tr}
	}
	return nil
}

func (w *wireTextRTT) layers(r *report, cal *calibrator, ref, traced *measured) error {
	return wireLayers(r, cal, w.srv, w.tracedFrom, w.seed, false, w.window)
}

// ioPerOp runs one more window and reports the read and write system calls
// and the bytes they moved per operation, both ends of every connection
// being in this process.
func ioPerOp(r *report, window func(*windowOut)) error {
	io0, err := readIO()
	if err != nil {
		return err
	}
	var out windowOut
	window(&out)
	io1, err := readIO()
	if err != nil {
		return err
	}
	r.set("transport.syscalls_per_op", float64(io1.syscalls-io0.syscalls)/float64(out.ops))
	r.set("transport.bytes_per_op", float64(io1.bytes-io0.bytes)/float64(out.ops))
	return nil
}

const probeTrips = 1500

// rttProbe measures GET round trips of batch keys over a fresh connection
// and returns the median in µs. Binary batches are pipelined frames, text
// batches pipelined command lines, so protocol and batching stay apart.
func rttProbe(addr string, bin bool, batch int, keys []uint64, seed uint64) (float64, error) {
	c, err := dialProto(addr, bin)
	if err != nil {
		return 0, err
	}
	defer c.close()
	x := mix64(seed) | 1
	var key [keyLen]byte
	lat := make([]float64, 0, probeTrips)
	for i := 0; i < probeTrips; i++ {
		t0 := time.Now()
		for id := 0; id < batch; id++ {
			x = xorshift(x)
			putKey(key[:], keys[x%uint64(len(keys))])
			if bin {
				c.binGet(wireTenant, key[:], uint32(id))
			} else {
				c.textGet(wireTenant, key[:])
			}
		}
		if err := c.flush(); err != nil {
			return 0, err
		}
		for id := 0; id < batch; id++ {
			if bin {
				_, _, _, _, err = c.binResponse()
			} else {
				_, _, err = c.textValue()
			}
			if err != nil {
				return 0, err
			}
		}
		lat = append(lat, float64(time.Since(t0)))
	}
	return median(lat) / 1e3, nil
}

// wireLayers reports the layers of a wire workload: the service's counters
// since from, the four protocol x batch probes, the server's own request
// latency, the harness's encoding cost (to be subtracted from client times),
// the in-process API probes that bound the wire from below, and the I/O of
// one more window.
func wireLayers(r *report, cal *calibrator, srv *wireServer, from service.Stats, seed uint64, bin bool, window func(*windowOut)) error {
	serviceCounts(r, []service.Stats{from}, []service.Stats{srv.svc.Stats()})
	keys := residentKeys(seed, 0)
	probes := []struct {
		name  string
		bin   bool
		batch int
	}{
		{"transport.bin_b1_rtt_p50_us", true, 1},
		{"transport.bin_b32_rtt_p50_us", true, wireBatch},
		{"transport.text_b1_rtt_p50_us", false, 1},
		{"transport.text_b32_rtt_p50_us", false, wireBatch},
	}
	var b1 float64
	for _, p := range probes {
		v, err := rttProbe(srv.addr, p.bin, p.batch, keys, seed)
		if err != nil {
			return err
		}
		r.set(p.name, v)
		if p.batch == 1 && p.bin == bin {
			b1 = v
		}
	}
	st := srv.svc.Stats()
	server := float64(st.LatencyQuantile(0.50)) / 1e3
	r.set("protocol.server_p50_us", server)
	r.set("protocol.server_p99_us", float64(st.LatencyQuantile(0.99))/1e3)
	r.set("transport.overhead_p50_us", b1-server)

	c := &conn{wbuf: make([]byte, 0, 64<<10)}
	var key [keyLen]byte
	r.set("client.encode_ns_per_op", timePerOp(cal, probeOps, func() {
		for i := 0; i < probeOps; i++ {
			if i%wireBatch == 0 {
				c.wbuf = c.wbuf[:0]
			}
			putKey(key[:], keys[i%len(keys)])
			if bin {
				c.binGet(wireTenant, key[:], uint32(i))
			} else {
				c.textGet(wireTenant, key[:])
			}
		}
	}))
	if err := serviceProbes(r, cal, seed); err != nil {
		return err
	}
	return ioPerOp(r, window)
}

// ---- proxy-mix -------------------------------------------------------------

func (w *proxyMix) setTracing(on bool) []*tracer {
	var out []*tracer
	epoch := time.Now()
	for _, f := range w.fronts {
		f.c.tr = nil
		if on {
			f.c.tr = newTracer(epoch, clientSpanNames...)
			out = append(out, f.c.tr)
		}
	}
	if on {
		w.tracers = out
		w.tracedFrom = w.pc.stats()
		w.proxyFrom = w.pc.proxy.Stats()
		w.batchesFrom = w.fronts[0].batchN + w.fronts[1].batchN
	}
	return out
}

func (w *proxyMix) layers(r *report, cal *calibrator, ref, traced *measured) error {
	serviceCounts(r, w.tracedFrom, w.pc.stats())
	ps := w.pc.proxy.Stats()
	batches := float64(w.fronts[0].batchN + w.fronts[1].batchN - w.batchesFrom)
	r.set("cluster.pipelined_frames_per_batch", float64(ps.PipelinedFrames-w.proxyFrom.PipelinedFrames)/batches)
	r.set("cluster.pool_conns", float64(ps.PoolConns))
	r.set("cluster.proxy_server_p50_us", float64(ps.LatencyQuantile(0.50))/1e3)
	r.set("cluster.bin_front_rtt_p50_us", w.tracers[0].p50NS(spRTT)/1e3)
	r.set("cluster.text_front_rtt_p50_us", w.tracers[1].p50NS(spRTT)/1e3)

	ring, err := cluster.NewRing(w.pc.addrs, cluster.DefaultVNodes)
	if err != nil {
		return err
	}
	var key [keyLen]byte
	owners := 0
	r.set("cluster.ring_owner_ns", timePerOp(cal, probeOps, func() {
		for i := 0; i < probeOps; i++ {
			putKey(key[:], mix64(uint64(i)))
			if ring.OwnerB(w.fronts[0].gens[0].name, key[:]) == w.pc.addrs[0] {
				owners++
			}
		}
	}))

	// The proxy hop: the same BMGET batches through the proxy and straight
	// to one node, which answers the keys it does not own with misses.
	viaProxy, err := bmgetProbe(w.pc.proxy.Addr().String())
	if err != nil {
		return err
	}
	direct, err := bmgetProbe(w.pc.addrs[0])
	if err != nil {
		return err
	}
	r.set("cluster.proxy_hop_p50_us", viaProxy-direct)
	coreProbes(r, cal, w.seed)
	return nil
}

// bmgetProbe is the median round trip in µs of friendly-tenant BMGET
// batches against addr.
func bmgetProbe(addr string) (float64, error) {
	c, err := dialBinary(addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	gens := newTenantGens(proxyNodes*proxyShards*proxyLinesPerShard, 2)
	var keys [proxyBatch][keyLen]byte
	lat := make([]float64, 0, probeTrips)
	for i := 0; i < probeTrips; i++ {
		for k := range keys {
			putKey(keys[k][:], gens[0].next())
		}
		t0 := time.Now()
		c.binBMGet(gens[0].name, keys[:], uint32(i))
		if err := c.flush(); err != nil {
			return 0, err
		}
		if _, _, _, _, err := c.binResponse(); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(t0)))
	}
	return median(lat) / 1e3, nil
}
