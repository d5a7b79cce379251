// The per-shard request rings behind the binary protocol: bounded MPSC
// queues fed by the transports (the epoll poller or the portable readers)
// and drained by one worker goroutine per shard. This generalizes the
// UMON deferred-ring idiom from the service layer (shard.observe/drain) —
// producers pay a few stores under a short mutex, the expensive work
// happens on the single consumer — from monitor samples to whole requests,
// which is what makes goroutine-free connections possible: the transport
// never executes shard work, so it never blocks on a shard lock.
//
// The ring is bounded and never blocks a producer: a full ring sheds the
// request with a SHED response, the same degrade-don't-collapse answer the
// text path gives at its in-flight limits. The worker applies those same
// in-flight limits per request (per-tenant immediate shed; the global
// backpressure wait runs on the worker, where blocking is load-shaping for
// one shard's queue instead of a stalled event loop).

package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// binRingCap bounds one shard's queued requests. At 64-byte values a full
// ring holds ~a quarter MiB of copied payloads; deep enough to ride out a
// worker's lock wait, shallow enough that queue delay stays visible as
// shedding instead of hidden latency.
const binRingCap = 1024

// binReq is one decoded, resolved binary request. Pooled; key and val are
// copies owned by the request (the transport's read buffer is reused).
// A BMGET fans out as one binReq per shard touched: batch points at the
// shared aggregation state and bk/kbuf carry that shard's keys (key/val
// are unused), so the per-shard ring and worker machinery below handles
// batches and single requests identically.
type binReq struct {
	c      *binConn
	t      *Tenant
	op     uint8
	hasTTL bool
	id     uint32
	ttlMS  uint32
	addr   uint64
	mixed  uint64
	key    []byte
	val    []byte

	batch *binBatch
	bk    []binBKey
	kbuf  []byte // backing bytes for bk key slices, copied off the read buffer
}

// binBKey is one BMGET key resolved to its line address and shard route,
// with its position in the client's key list for result re-merging.
type binBKey struct {
	addr  uint64
	mixed uint64
	off   int32 // key bytes are kbuf[off : off+ln]
	ln    int32
	idx   int32 // position in the request's key list
}

// binBatch aggregates one BMGET's per-key results across its shard
// sub-requests. sts/vals are written at disjoint indices by the owning
// workers; the remain counter's final decrement publishes them to the
// finisher, which encodes the single coalesced response. err, when set,
// turns the whole response into a frame-level ERR (first setter wins).
//
// Pooled. Ownership: binDispatchBMGet fills the batch completely before any
// sub-request is enqueued; after that each worker touches only its own key
// positions, and once remain reaches zero nobody but the finisher — the
// caller whose binBatchDone made that decrement — may touch it: the finisher
// encodes the response and returns the batch to the pool.
type binBatch struct {
	c      *binConn
	id     uint32
	remain atomic.Int32
	err    atomic.Pointer[string]
	sts    []uint8
	vals   [][]byte
}

var (
	binReqPool   = sync.Pool{New: func() any { return &binReq{} }}
	binBatchPool = sync.Pool{New: func() any { return &binBatch{} }}
)

// newBinBatch takes a zeroed batch of count keys from the pool.
func newBinBatch(c *binConn, id uint32, count int) *binBatch {
	b := binBatchPool.Get().(*binBatch)
	if cap(b.sts) < count {
		b.sts, b.vals = make([]uint8, count), make([][]byte, count)
	}
	b.c, b.id, b.sts, b.vals = c, id, b.sts[:count], b.vals[:count]
	b.remain.Store(int32(count))
	return b
}

// recycle zeroes the batch (the value references would otherwise pin
// evicted values) and returns it to the pool. Finisher only.
func (b *binBatch) recycle() {
	clear(b.sts)
	clear(b.vals)
	b.c = nil
	b.err.Store(nil)
	binBatchPool.Put(b)
}

// appendResp appends the batch's coalesced response frame to dst.
func (b *binBatch) appendResp(dst []byte) []byte {
	sz := 2 + 5*len(b.sts)
	for i, st := range b.sts {
		if st == binStOK {
			sz += len(b.vals[i])
		}
	}
	dst = appendBinRespHdr(dst, binStOK, binOpBMGet, b.id, sz)
	dst = binLE.AppendUint16(dst, uint16(len(b.sts)))
	for i, st := range b.sts {
		v := b.vals[i]
		if st != binStOK {
			v = nil
		}
		dst = append(dst, st)
		dst = binLE.AppendUint32(dst, uint32(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

func (q *binReq) recycle() {
	q.c, q.t, q.batch = nil, nil, nil
	if cap(q.val) > 64<<10 {
		q.val = nil // don't let one huge PUT pin its buffer in the pool
	}
	if cap(q.kbuf) > 64<<10 {
		q.kbuf = nil
	}
	binReqPool.Put(q)
}

// binRing is a bounded MPSC queue: any transport may push, one shard
// worker pops. The wake channel has capacity 1 — a non-blocking send under
// the producer's mutex is enough, because the worker always re-drains the
// ring after consuming a wake.
type binRing struct {
	mu   sync.Mutex
	buf  []*binReq
	head int
	n    int
	wake chan struct{}
}

func newBinRing(capacity int) *binRing {
	return &binRing{buf: make([]*binReq, capacity), wake: make(chan struct{}, 1)}
}

// pushBatch enqueues as many of qs as fit, in order, under one lock
// acquisition and at most one wake — the producer-side mirror of popBatch.
// It returns the count accepted; the caller sheds the remainder. Feeding a
// decoded read's worth of frames per shard this way costs one mutex and
// one channel send per (connection read x shard) instead of per frame.
func (r *binRing) pushBatch(qs []*binReq) int {
	r.mu.Lock()
	n := len(r.buf) - r.n
	if n > len(qs) {
		n = len(qs)
	}
	for i := 0; i < n; i++ {
		r.buf[(r.head+r.n)%len(r.buf)] = qs[i]
		r.n++
	}
	r.mu.Unlock()
	if n > 0 {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	return n
}

// popBatch moves up to cap(dst)-len(dst) queued requests into dst.
func (r *binRing) popBatch(dst []*binReq) []*binReq {
	r.mu.Lock()
	for r.n > 0 && len(dst) < cap(dst) {
		dst = append(dst, r.buf[r.head])
		r.buf[r.head] = nil
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
	r.mu.Unlock()
	return dst
}

// binStart creates the shard rings and starts one worker per shard. Run
// once, via Server.binOnce, on the first binary handshake — a text-only
// deployment never pays for any of this.
func (s *Server) binStart() {
	n := s.svc.cfg.Shards
	s.binRings = make([]*binRing, n)
	for i := range s.binRings {
		s.binRings[i] = newBinRing(binRingCap)
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.binWorker(i)
	}
}

// binWorker drains one shard's ring until the server closes, then drains
// whatever is left (responses to closed connections are suppressed by the
// write path) and exits.
func (s *Server) binWorker(si int) {
	defer s.wg.Done()
	ring := s.binRings[si]
	batch := make([]*binReq, 0, 64)
	var g binGather
	for {
		batch = ring.popBatch(batch[:0])
		if len(batch) == 0 {
			select {
			case <-ring.wake:
				continue
			case <-s.binStop:
				for _, q := range ring.popBatch(batch[:0]) {
					if b := q.batch; b != nil {
						// Drained BMGET sub-requests shed their keys so the
						// finisher (here or on another draining worker) still
						// retires the batch's single pending slot.
						for _, bk := range q.bk {
							b.sts[bk.idx] = binStShed
						}
						done := len(q.bk)
						q.recycle()
						s.binBatchDone(b, done, nil)
						continue
					}
					q.c.pending.Add(-1)
					q.recycle()
				}
				return
			}
		}
		if h := s.svc.latency; h != nil {
			clk := s.svc.clk
			for _, q := range batch {
				t0 := clk.Now()
				s.binExec(q, &g)
				h.Record(clk.Now().Sub(t0))
			}
		} else {
			for _, q := range batch {
				s.binExec(q, &g)
			}
		}
		s.binGatherFlush(&g)
	}
}

// binOpToOp maps a wire opcode to the fault-injection Op taxonomy.
func binOpToOp(op uint8) Op {
	switch op {
	case binOpGet:
		return OpGet
	case binOpPut:
		return OpPut
	case binOpDel:
		return OpDelete
	case binOpTouch:
		return OpTouch
	case binOpRehome:
		return OpPut
	case binOpBMGet:
		return OpMGet
	}
	return OpGet
}

// binExec runs one request on its shard worker: overload gates first
// (dispatcher drop fault, then the same in-flight reservations the text
// path takes), then the resolved service fast path, then the response.
// Responses route through the worker's gather so the flush happens in the
// end-of-batch scatter pass.
func (s *Server) binExec(q *binReq, g *binGather) {
	if q.batch != nil {
		s.binExecBatch(q, g)
		return
	}
	c, op, id := q.c, q.op, q.id
	svc := s.svc
	if svc.fault.Load() != nil && svc.dropFault(binOpToOp(op), q.t.name) {
		// Dispatcher drop fault: close without replying, matching the text
		// dispatcher. Frames already queued behind this one answer into a
		// dying connection and are suppressed.
		c.abort()
		c.pending.Add(-1)
		q.recycle()
		return
	}
	release, ok := s.beginOpT(q.t)
	if !ok {
		s.binRespondG(c, binStShed, op, id, nil, true, g)
		q.recycle()
		return
	}
	if svc.fault.Load() != nil {
		if err := svc.injectFault(binOpToOp(op), q.t.name); err != nil {
			if release != nil {
				release()
			}
			s.binRespondG(c, binStErr, op, id, []byte(err.Error()), true, g)
			q.recycle()
			return
		}
	}
	var status uint8
	var payload []byte
	switch op {
	case binOpGet:
		val, hit := svc.getAt(q.t, q.addr, q.mixed, q.key)
		if hit {
			status, payload = binStOK, val
		} else {
			status = binStMiss
		}
	case binOpPut:
		ttl := svc.cfg.DefaultTTL
		if q.hasTTL {
			ttl = time.Duration(q.ttlMS) * time.Millisecond
		}
		svc.putAt(q.t, q.addr, q.mixed, q.key, q.val, ttl)
		status = binStOK
	case binOpRehome:
		// A re-homed key keeps exactly the TTL it had on the old owner: the
		// flag carries the remaining TTL, no flag means it never expired —
		// the receiver's DefaultTTL must not re-stamp it.
		var ttl time.Duration
		if q.hasTTL {
			ttl = time.Duration(q.ttlMS) * time.Millisecond
		}
		svc.putAt(q.t, q.addr, q.mixed, q.key, q.val, ttl)
		svc.rehomedIn.Add(1)
		status = binStOK
	case binOpDel:
		if svc.deleteAt(q.addr, q.mixed, q.key) {
			status = binStOK
		} else {
			status = binStMiss
		}
	case binOpTouch:
		if svc.touchAt(q.t, q.addr, q.mixed, q.key, time.Duration(q.ttlMS)*time.Millisecond) {
			status = binStOK
		} else {
			status = binStMiss
		}
	}
	if release != nil {
		release()
	}
	s.binRespondG(c, status, op, id, payload, true, g)
	q.recycle()
}

// binExecBatch runs one shard's slice of a BMGET: the same overload gates
// as a single request (one reservation covers the whole sub-batch, like
// the text MGET's single command reservation), then the resolved GET fast
// path per key, writing results into the shared batch at this sub-request's
// key positions. Whoever retires the last key emits the coalesced frame.
func (s *Server) binExecBatch(q *binReq, g *binGather) {
	b := q.batch
	svc := s.svc
	n := len(q.bk)
	if svc.fault.Load() != nil && svc.dropFault(OpMGet, q.t.name) {
		q.c.abort()
		// The connection is dying; retire our keys so the batch's pending
		// slot drains (the suppressed response is written to nobody).
		q.recycle()
		s.binBatchDone(b, n, g)
		return
	}
	release, ok := s.beginOpT(q.t)
	if !ok {
		for _, bk := range q.bk {
			b.sts[bk.idx] = binStShed
		}
		q.recycle()
		s.binBatchDone(b, n, g)
		return
	}
	if svc.fault.Load() != nil {
		if err := svc.injectFault(OpMGet, q.t.name); err != nil {
			if release != nil {
				release()
			}
			msg := err.Error()
			b.err.CompareAndSwap(nil, &msg)
			q.recycle()
			s.binBatchDone(b, n, g)
			return
		}
	}
	for _, bk := range q.bk {
		key := q.kbuf[bk.off : bk.off+bk.ln]
		// getAt returns the stored slice without copying; entries are
		// immutable snapshots, so retaining them until encode is safe.
		if val, hit := svc.getAt(q.t, bk.addr, bk.mixed, key); hit {
			b.sts[bk.idx] = binStOK
			b.vals[bk.idx] = val
		} else {
			b.sts[bk.idx] = binStMiss
		}
	}
	if release != nil {
		release()
	}
	q.recycle()
	s.binBatchDone(b, n, g)
}

// binBatchDone retires n keys of a BMGET batch. The finisher — whoever
// brings remain to zero, a shard worker or a transport-thread shed path —
// encodes the batch's single response frame straight into the connection's
// output buffer, which releases the connection's one pending slot for the
// whole BMGET, and recycles the batch.
func (s *Server) binBatchDone(b *binBatch, n int, g *binGather) {
	if b.remain.Add(-int32(n)) != 0 {
		return
	}
	if msg := b.err.Load(); msg != nil {
		s.binRespondG(b.c, binStErr, binOpBMGet, b.id, []byte(*msg), true, g)
	} else if binRespLock(b.c, true) {
		b.c.out = b.appendResp(b.c.out)
		s.binRespUnlock(b.c, true, g)
	}
	b.recycle()
}
