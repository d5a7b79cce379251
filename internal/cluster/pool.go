package cluster

import (
	"bufio"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/latency"
)

// The proxy's backend layer: one persistent negotiated binary connection
// per cluster member, shared by every proxied client. Frames from all
// clients are pipelined onto it under pool-internal ids, and one reader
// goroutine per connection hands each response to its session by id.
// Writes are buffered and flushed at client batch boundaries, so a 32-deep
// batch costs one write and one read per backend, not 32 round trips.
//
// When a backend connection dies, every request in flight on it is
// answered with a synthesized ERR, never a hang, and the next batch that
// routes there dials afresh.

// pend describes one forwarded request awaiting its backend response.
type pend struct {
	s   respSink
	id  uint32   // binary front: the client's request id, restored on delivery
	op  uint8    // client-visible opcode; the text front renders by it
	seq uint64   // the reply's place in its session's sequence
	m   *bmMerge // non-nil: one sub-batch of a split batch (see merge.go),
	sub int32    // the ring member it went to
	t0  int64    // submit time (ns since epoch) when latency tracking is on
}

// respSink receives a backend's response or a synthesized failure; payload
// is valid only during the call. A session renders it and writes it only
// as far as its client's socket takes it without blocking, so the reader
// never waits on a client, and the session's reads, not the pool, hold
// back a client that does not read.
type respSink interface {
	deliver(pd pend, status uint8, payload []byte)
}

// pool owns the shared backend connections, one slot per ring member,
// addressed by member index so the per-frame lookup is one atomic load.
type pool struct {
	members []string
	conns   []atomic.Pointer[poolConn]

	mu     sync.Mutex // serializes slot creation against close
	closed bool

	lat *latency.Hist // nil unless latency tracking is on

	connsGauge atomic.Int64  // currently open backend connections
	connsTotal atomic.Uint64 // dials that succeeded, lifetime
	frames     atomic.Uint64 // frames pipelined through the pool, lifetime
}

func newPool(members []string, lat *latency.Hist) *pool {
	return &pool{members: members, conns: make([]atomic.Pointer[poolConn], len(members)), lat: lat}
}

// poolConn is one shared backend connection. The write side is a mutex-
// guarded buffered writer (frames from many clients interleave; each frame
// is appended atomically); the read side is one goroutine demultiplexing
// response frames via the pending map.
type poolConn struct {
	pl   *pool
	idx  int32 // ring member index
	addr string

	ready   chan struct{} // closed once dial+negotiate finishes
	dialErr error
	conn    net.Conn

	wmu sync.Mutex
	w   *bufio.Writer

	pmu     sync.Mutex
	pending map[uint32]pend
	nextID  uint32
	dead    bool
}

// get returns the live connection to ring member i, dialing one if none
// exists. Only the first caller dials; concurrent callers wait on ready.
func (pl *pool) get(i int32) (*poolConn, error) {
	pc := pl.conns[i].Load()
	if pc == nil {
		pl.mu.Lock()
		if pl.closed {
			pl.mu.Unlock()
			return nil, errPoolClosed
		}
		if pc = pl.conns[i].Load(); pc == nil {
			pc = &poolConn{pl: pl, idx: i, addr: pl.members[i], ready: make(chan struct{}), pending: make(map[uint32]pend)}
			pl.conns[i].Store(pc)
			pl.mu.Unlock()
			pc.dial()
		} else {
			pl.mu.Unlock()
		}
	}
	<-pc.ready
	if pc.dialErr != nil {
		return nil, pc.dialErr
	}
	return pc, nil
}

var errPoolClosed = &net.OpError{Op: "dial", Err: io.ErrClosedPipe}

// dial connects and negotiates the binary preamble, then starts the
// demultiplexing reader. On failure the slot is removed so the next batch
// retries the dial.
func (pc *poolConn) dial() {
	defer close(pc.ready)
	conn, err := net.DialTimeout("tcp", pc.addr, peerDialTimeout)
	if err == nil {
		conn.SetDeadline(time.Now().Add(peerDialTimeout))
		err = binwire.Handshake(conn, conn, binwire.RoleClient)
		conn.SetDeadline(time.Time{})
	}
	if err != nil {
		if conn != nil {
			conn.Close()
		}
		pc.dialErr = err
		pc.dead = true
		pc.pl.drop(pc)
		return
	}
	pc.conn = conn
	pc.w = bufio.NewWriterSize(conn, 64<<10)
	pc.pl.connsGauge.Add(1)
	pc.pl.connsTotal.Add(1)
	go pc.readLoop()
}

func (pl *pool) drop(pc *poolConn) { pl.conns[pc.idx].CompareAndSwap(pc, nil) }

// submit registers one forwarded frame and appends it to the connection's
// write buffer without flushing. frame is the full wire encoding (4-byte
// length prefix included); its id field is rewritten in place to the
// pool-internal id before buffering. When the connection is already dead
// the request is answered immediately with a synthesized ERR — the caller
// never has to special-case a dying backend.
func (pc *poolConn) submit(pd pend, frame []byte) {
	pc.pmu.Lock()
	if pc.dead {
		pc.pmu.Unlock()
		pc.failOne(pd)
		return
	}
	pc.nextID++
	id := pc.nextID
	binwire.SetID(frame, id)
	pc.pending[id] = pd
	pc.pmu.Unlock()

	pc.wmu.Lock()
	pc.w.Write(frame) // errors are sticky; flush surfaces them
	pc.wmu.Unlock()
	pc.pl.frames.Add(1)
}

// flush pushes buffered frames to the wire; a write error kills the
// connection (and synthesizes failures for everything in flight).
func (pc *poolConn) flush() {
	pc.wmu.Lock()
	err := pc.w.Flush()
	pc.wmu.Unlock()
	if err != nil {
		pc.fail()
	}
}

// readLoop demultiplexes response frames to their pending requests until
// the connection dies.
func (pc *poolConn) readLoop() {
	r := bufio.NewReaderSize(pc.conn, 64<<10)
	var frame []byte
	for {
		resp, err := binwire.ReadResp(r, &frame)
		if err != nil {
			break
		}
		pc.pmu.Lock()
		pd, ok := pc.pending[resp.ID]
		if ok {
			delete(pc.pending, resp.ID)
		}
		pc.pmu.Unlock()
		if !ok {
			break // response for nothing we sent: protocol violation
		}
		if pc.pl.lat != nil && pd.t0 != 0 && pd.m == nil {
			pc.pl.lat.Record(time.Duration(time.Now().UnixNano() - pd.t0))
		}
		pd.s.deliver(pd, resp.Status, resp.Payload)
		frame = keep(frame) // one huge response must not pin its buffer
	}
	pc.fail()
}

// fail marks the connection dead, removes it from the pool, and answers
// every in-flight request with a synthesized ERR so no client hangs.
func (pc *poolConn) fail() {
	pc.pmu.Lock()
	if pc.dead {
		pc.pmu.Unlock()
		return
	}
	pc.dead = true
	pending := pc.pending
	pc.pending = nil
	pc.pmu.Unlock()
	pc.conn.Close()
	pc.pl.drop(pc)
	pc.pl.connsGauge.Add(-1)
	for _, pd := range pending {
		pc.failOne(pd)
	}
}

func (pc *poolConn) failOne(pd pend) {
	pd.s.deliver(pd, binwire.StErr, []byte("proxy: backend "+pc.addr+" lost"))
}

// close shuts every connection down; in-flight requests get synthesized
// errors via each connection's fail path.
func (pl *pool) close() {
	pl.mu.Lock()
	pl.closed = true
	pl.mu.Unlock()
	for i := range pl.conns {
		pc := pl.conns[i].Load()
		if pc == nil {
			continue
		}
		select {
		case <-pc.ready:
			if pc.dialErr == nil {
				pc.fail()
			}
		default:
			// Still dialing; its own failure path cleans up.
		}
	}
}

// touched is the pool connections a client batch wrote to, so the batch
// boundary can flush exactly those; at most one per member, reused.
type touched []*poolConn

func (t *touched) add(pc *poolConn) {
	if !slices.Contains(*t, pc) {
		*t = append(*t, pc)
	}
}

func (t *touched) flush() {
	for _, pc := range *t {
		pc.flush()
	}
	clear(*t)
	*t = (*t)[:0]
}
