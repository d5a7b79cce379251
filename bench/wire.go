package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"vantage/internal/service"
)

// gang is a fixed set of goroutines that run one function in step: run
// starts fn(i) on every member and returns when all are done. The members
// live until close, so a window costs no goroutine start and no allocation.
type gang struct {
	fn     func(i int)
	start  []chan struct{}
	done   sync.WaitGroup
	exited sync.WaitGroup
}

func newGang(n int, fn func(i int)) *gang {
	g := &gang{fn: fn}
	for i := 0; i < n; i++ {
		ch := make(chan struct{})
		g.start = append(g.start, ch)
		g.exited.Add(1)
		go func(i int) {
			defer g.exited.Done()
			for range ch {
				g.fn(i)
				g.done.Done()
			}
		}(i)
	}
	return g
}

func (g *gang) run() {
	g.done.Add(len(g.start))
	for _, ch := range g.start {
		ch <- struct{}{}
	}
	g.done.Wait()
}

func (g *gang) close() {
	for _, ch := range g.start {
		close(ch)
	}
	g.exited.Wait()
}

const (
	wireShards        = 4
	wireLinesPerShard = 8192
	wireResident      = 4096 // keys per connection, all resident
	wireBatch         = 32
	wirePutEvery      = 8 // 1 round trip in 8 writes
	// wireRepartition is vantaged's default -repartition interval.
	wireRepartition = 250 * time.Millisecond
)

// wireServer is one vantaged-like node on loopback: a service with one
// tenant behind service.Serve, on the system clock with vantaged's timers.
type wireServer struct {
	svc  *service.Service
	srv  *service.Server
	addr string
}

var wireTenant = []byte("hot")

func newWireServer(seed uint64, trackLatency bool) (*wireServer, error) {
	svc, err := service.New(service.Config{
		Shards:              wireShards,
		LinesPerShard:       wireLinesPerShard,
		RepartitionInterval: wireRepartition,
		Seed:                seed,
		TrackLatency:        trackLatency,
	})
	if err != nil {
		return nil, err
	}
	if _, err := svc.AddTenant(string(wireTenant)); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &wireServer{svc: svc, srv: service.Serve(svc, lis), addr: lis.Addr().String()}, nil
}

func (s *wireServer) close() {
	_ = s.srv.Close() // the listener is ours and closes once
	_ = s.svc.Close()
}

// residentKeys returns the hashes of connection c's resident keys.
func residentKeys(seed uint64, c int) []uint64 {
	h := make([]uint64, wireResident)
	for i := range h {
		h[i] = mix64(seed ^ uint64(c)<<56 ^ uint64(i)*0x9e3779b97f4a7c15)
	}
	return h
}

// ---- wire-bin-hot ----------------------------------------------------------

// binHot is one binary connection's closed loop over its resident keys.
type binHot struct {
	c      *conn
	keys   []uint64
	x      uint64
	trips  uint64
	flight [wireBatch]uint64 // hash of the key each frame in flight carries, by id
	key    [keyLen]byte
	val    [valueLen]byte
	out    windowOut
	misses int
}

// roundTrip pipelines one batch of wireBatch frames and reads the answers.
func (b *binHot) roundTrip(put bool) error {
	b.c.tr.begin(spRTT, uint32(b.trips))
	defer b.c.tr.end()
	t0 := time.Now()
	b.c.tr.begin(spEncode, uint32(b.trips))
	for id := range b.flight {
		b.x = xorshift(b.x)
		h := b.keys[b.x%wireResident]
		b.flight[id] = h
		putKey(b.key[:], h)
		if put {
			putValue(b.val[:], h)
			b.c.binPut(wireTenant, b.key[:], b.val[:], uint32(id), 0)
		} else {
			b.c.binGet(wireTenant, b.key[:], uint32(id))
		}
	}
	b.c.tr.end()
	if err := b.c.flush(); err != nil {
		return err
	}
	for range b.flight {
		status, _, id, payload, err := b.c.binResponse()
		if err != nil {
			return err
		}
		b.out.ops++
		switch {
		case id >= wireBatch || status > stMiss:
			b.out.failed++
		case put:
		case status == stMiss:
			b.misses++
			b.out.failed++
		case !valueOK(payload, b.flight[id]):
			b.out.failed++
		}
	}
	b.out.lat = append(b.out.lat, int64(time.Since(t0)))
	b.trips++
	return nil
}

// run makes n round trips; one in wirePutEvery of them writes.
func (b *binHot) run(n int) error {
	for i := 0; i < n; i++ {
		if err := b.roundTrip(b.trips%wirePutEvery == wirePutEvery-1); err != nil {
			return err
		}
	}
	return nil
}

// prefill stores every resident key.
func (b *binHot) prefill() error {
	for i := 0; i < len(b.keys); i += wireBatch {
		for id := 0; id < wireBatch; id++ {
			h := b.keys[i+id]
			putKey(b.key[:], h)
			putValue(b.val[:], h)
			b.c.binPut(wireTenant, b.key[:], b.val[:], uint32(id), 0)
		}
		if err := b.c.flush(); err != nil {
			return err
		}
		for id := 0; id < wireBatch; id++ {
			if status, _, _, _, err := b.c.binResponse(); err != nil || status != stOK {
				return fmt.Errorf("prefill: status %d: %v", status, err)
			}
		}
	}
	return nil
}

const binHotConns = 2

// wireBinHot is the pipelined hot-read workload: every read hits and no
// line is replaced, so codec, shard rings, epoll transport and gather-flush
// are what it measures.
type wireBinHot struct {
	seed    uint64
	traced  bool
	srv     *wireServer
	clients [binHotConns]*binHot
	gang    *gang
	trips   int
	errs    [binHotConns]error

	tracedFrom service.Stats
}

const (
	binHotTripsPerWindow = 1024
	binHotWarmTrips      = 8 * binHotTripsPerWindow
)

func newWireBinHot(rn run) *wireBinHot { return &wireBinHot{seed: rn.seed, traced: rn.traced} }

func (w *wireBinHot) threads() int { return binHotConns }

// calib: three quarters memory-bound work (codec, rings, shard), one quarter
// loopback round trips.
func (w *wireBinHot) calib() (calibMix, float64) {
	return calibMix{chunks: 300, mem: 100, echo: 1}, 12e6
}

func (w *wireBinHot) minWindows() int          { return 8 }
func (w *wireBinHot) latSamplesPerWindow() int { return binHotConns * binHotTripsPerWindow }
func (w *wireBinHot) fingerprint() string      { return "" }

func (w *wireBinHot) setup() error {
	var err error
	if w.srv, err = newWireServer(w.seed, w.traced); err != nil {
		return err
	}
	for i := range w.clients {
		c, err := dialBinary(w.srv.addr)
		if err != nil {
			return err
		}
		b := &binHot{c: c, keys: residentKeys(w.seed, i), x: mix64(w.seed+uint64(i)) | 1}
		b.out.lat = make([]int64, 0, binHotWarmTrips)
		w.clients[i] = b
		if err := b.prefill(); err != nil {
			return err
		}
	}
	w.gang = newGang(binHotConns, func(i int) { w.errs[i] = w.clients[i].run(w.trips) })
	w.trips = binHotWarmTrips
	w.gang.run()
	var warm windowOut
	return w.collect(&warm)
}

// collect merges the clients' results of the last gang run into out.
func (w *wireBinHot) collect(out *windowOut) error {
	for i, b := range w.clients {
		if w.errs[i] != nil {
			return fmt.Errorf("connection %d: %w", i, w.errs[i])
		}
		out.ops += b.out.ops
		out.failed += b.out.failed
		out.lat = append(out.lat, b.out.lat...)
		b.out.ops, b.out.failed, b.out.lat = 0, 0, b.out.lat[:0]
	}
	return nil
}

func (w *wireBinHot) teardown() {
	if w.gang != nil {
		w.gang.close()
		w.gang = nil
	}
	for i, b := range w.clients {
		if b != nil {
			b.c.close()
			w.clients[i] = nil
		}
	}
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
}

func (w *wireBinHot) window(out *windowOut) {
	w.trips = binHotTripsPerWindow
	w.gang.run()
	if err := w.collect(out); err != nil {
		// A dead connection fails every operation the window still owed.
		out.failed += binHotConns*binHotTripsPerWindow*wireBatch - out.ops
		out.ops = binHotConns * binHotTripsPerWindow * wireBatch
	}
}

func (w *wireBinHot) report(r *report) {
	misses := 0
	for i, b := range w.clients {
		misses += b.misses
		if w.errs[i] != nil {
			r.fail("connection %d: %v", i, w.errs[i])
		}
	}
	if misses > 0 {
		r.fail("%d reads of resident keys missed", misses)
	}
	st := w.srv.svc.Stats()
	r.set("hit_ratio", hitRatio(st))
}

// hitRatio is hits over gets, all tenants, since the service started.
func hitRatio(sts ...service.Stats) float64 {
	var gets, hits uint64
	for _, st := range sts {
		for _, t := range st.Tenants {
			gets += t.Gets
			hits += t.Hits
		}
	}
	return float64(hits) / float64(gets)
}

// ---- wire-text-rtt ---------------------------------------------------------

const (
	textTripsPerWindow = 2048
	textWarmTrips      = 32 * textTripsPerWindow
	textTTLMS          = 3_600_000 // far beyond any run: nothing expires
)

// wireTextRTT is the unbatched text workload: one syscall pair and one
// wake-up per command, text dispatch instead of shard workers. Batching
// gains must not show here; per-request costs must.
type wireTextRTT struct {
	seed   uint64
	traced bool
	srv    *wireServer
	c      *conn
	keys   []uint64
	x      uint64
	trips  uint64
	key    [keyLen]byte
	val    [valueLen]byte
	misses int
	err    error

	tracedFrom service.Stats
}

func newWireTextRTT(rn run) *wireTextRTT { return &wireTextRTT{seed: rn.seed, traced: rn.traced} }

func (w *wireTextRTT) threads() int { return 1 }

// calib: loopback round trips only. Against the mem component this workload
// spread 17 % between runs, against the echo component 1.4 %.
func (w *wireTextRTT) calib() (calibMix, float64) { return calibMix{chunks: 300, echo: 1}, 2.3e6 }

func (w *wireTextRTT) minWindows() int          { return 8 }
func (w *wireTextRTT) latSamplesPerWindow() int { return textTripsPerWindow }
func (w *wireTextRTT) fingerprint() string      { return "" }

func (w *wireTextRTT) setup() error {
	var err error
	if w.srv, err = newWireServer(w.seed, w.traced); err != nil {
		return err
	}
	if w.c, err = dial(w.srv.addr); err != nil {
		return err
	}
	w.keys = residentKeys(w.seed, 0)
	w.x = mix64(w.seed) | 1
	for _, h := range w.keys {
		if ok, err := w.put(h); err != nil || !ok {
			return fmt.Errorf("prefill: stored=%v: %v", ok, err)
		}
	}
	var warm windowOut
	warm.lat = make([]int64, 0, textWarmTrips)
	for i := 0; i < textWarmTrips; i++ {
		if err := w.roundTrip(&warm); err != nil {
			return err
		}
	}
	return nil
}

func (w *wireTextRTT) put(h uint64) (bool, error) {
	w.c.tr.begin(spEncode, uint32(w.trips))
	putKey(w.key[:], h)
	putValue(w.val[:], h)
	w.c.textPut(wireTenant, w.key[:], w.val[:], textTTLMS)
	w.c.tr.end()
	if err := w.c.flush(); err != nil {
		return false, err
	}
	return w.c.textExpect("STORED")
}

// roundTrip sends one command and reads its answer.
func (w *wireTextRTT) roundTrip(out *windowOut) error {
	w.c.tr.begin(spRTT, uint32(w.trips))
	defer w.c.tr.end()
	w.x = xorshift(w.x)
	h := w.keys[w.x%wireResident]
	t0 := time.Now()
	if w.trips%wirePutEvery == wirePutEvery-1 {
		ok, err := w.put(h)
		if err != nil {
			return err
		}
		if !ok {
			out.failed++
		}
	} else {
		w.c.tr.begin(spEncode, uint32(w.trips))
		putKey(w.key[:], h)
		w.c.textGet(wireTenant, w.key[:])
		w.c.tr.end()
		if err := w.c.flush(); err != nil {
			return err
		}
		v, hit, err := w.c.textValue()
		if err != nil {
			return err
		}
		if !hit {
			w.misses++
		}
		if !hit || !valueOK(v, h) {
			out.failed++
		}
	}
	out.lat = append(out.lat, int64(time.Since(t0)))
	out.ops++
	w.trips++
	return nil
}

func (w *wireTextRTT) teardown() {
	if w.c != nil {
		w.c.close()
		w.c = nil
	}
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
}

func (w *wireTextRTT) window(out *windowOut) {
	for i := 0; i < textTripsPerWindow && w.err == nil; i++ {
		w.err = w.roundTrip(out)
	}
	if w.err != nil {
		out.failed += textTripsPerWindow - out.ops
		out.ops = textTripsPerWindow
	}
}

func (w *wireTextRTT) report(r *report) {
	if w.err != nil {
		r.fail("connection: %v", w.err)
	}
	if w.misses > 0 {
		r.fail("%d reads of resident keys missed", w.misses)
	}
	r.set("hit_ratio", hitRatio(w.srv.svc.Stats()))
}
