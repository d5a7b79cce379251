package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/latency"
	"vantage/internal/textwire"
)

// Proxy routes client commands to the key's ring owner so clients that
// cannot (or do not want to) run the consistent-hash ring themselves can
// speak to the cluster as if it were a single vantaged node. Both wire
// fronts are supported — text lines and the binary framing.
//
// The data plane is pooled and pipelined: the proxy keeps one persistent
// negotiated binary connection per backend (shared by all clients, see
// pool.go), splits each incoming client batch by ring owner, scatters the
// per-backend frames in one buffered write per backend, and re-merges
// responses into each client's stream — in arrival order keyed by request
// id on the binary front, in strict command order (a per-session
// sequencer) on the text front. Both fronts route through one path
// (submit): the text front decodes each command line and its value block
// with the node's own parser (binwire.Req.DecodeText) into the request a
// binary frame carries, and answers a line the parser refuses itself, with
// the node's ERR line. MGET and BMGET fan out as per-owner BMGET
// sub-frames whose coalesced responses are re-merged in client key order
// by the core both fronts share (merge.go). In steady state the hop
// allocates nothing per key or per frame.
//
// Control lines (TENANT, STATS, unknown verbs) ride the same pool as one
// TEXT frame (binwire), and the sequencer renders the node's reply
// verbatim, so a proxied session opens no connection of its own. The
// proxy itself answers only PING, QUIT, CLUSTER (refused, on the binary
// front's TEXT frames too), a client's peer frames (REG_OP, REG_PULL,
// REHOME: refused) and a PUT over the value cap, which ends the session
// with the node's message.
//
// Ownership moves only when the operator restarts the proxy with a new
// member list (the nodes themselves re-home keys via CLUSTER MEMBERS); a
// long-lived proxy deployment would re-resolve membership out of band.
type Proxy struct {
	lis     net.Listener
	ring    *Ring
	members []string
	pool    *pool
	lat     *latency.Hist // nil unless ProxyConfig.TrackLatency

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool

	wg sync.WaitGroup
}

// ProxyConfig carries optional proxy behavior.
type ProxyConfig struct {
	// TrackLatency records per-request submit→response latency in the
	// same log2 histogram layout the nodes use.
	TrackLatency bool
}

// ProxyStats is a snapshot of the proxy's own counters (the backends keep
// their own; STATS through the proxy relays a node's counters and injects
// these).
type ProxyStats struct {
	PoolConns       int64  // currently open pooled backend connections
	PoolConnsTotal  uint64 // successful backend dials, lifetime
	PipelinedFrames uint64 // frames pipelined through the pool, lifetime
	LatencyCounts   []uint64
	LatencySumNS    uint64
}

// LatencyQuantile estimates quantile q from the snapshot's histogram (see
// service.Stats.LatencyQuantile).
func (st ProxyStats) LatencyQuantile(q float64) time.Duration {
	return latency.Quantile(st.LatencyCounts, q)
}

// proxyFlushHi flushes a client-side response buffer early when merged
// responses outgrow it, even though the batch hasn't fully drained.
const proxyFlushHi = 48 << 10

// NewProxy starts a proxy for the given member list on lis.
func NewProxy(lis net.Listener, members []string, vnodes int) (*Proxy, error) {
	return NewProxyWith(lis, members, vnodes, ProxyConfig{})
}

// NewProxyWith starts a proxy with explicit configuration.
func NewProxyWith(lis net.Listener, members []string, vnodes int, cfg ProxyConfig) (*Proxy, error) {
	ring, err := NewRing(members, vnodes)
	if err != nil {
		return nil, err
	}
	p := &Proxy{lis: lis, ring: ring, members: ring.Members(), conns: make(map[net.Conn]bool)}
	if cfg.TrackLatency {
		p.lat = &latency.Hist{}
	}
	p.pool = newPool(p.members, p.lat)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() net.Addr { return p.lis.Addr() }

// Stats snapshots the proxy's own counters.
func (p *Proxy) Stats() ProxyStats {
	st := ProxyStats{
		PoolConns:       p.pool.connsGauge.Load(),
		PoolConnsTotal:  p.pool.connsTotal.Load(),
		PipelinedFrames: p.pool.frames.Load(),
	}
	if p.lat != nil {
		st.LatencyCounts, st.LatencySumNS = p.lat.Snapshot()
	}
	return st
}

// Close stops accepting, closes every client connection and the backend
// pool (synthesizing failures for anything in flight), and waits for the
// per-connection goroutines to drain.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	p.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
	p.pool.close()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.lis.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = true
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serveConn(conn)
	}
}

func (p *Proxy) forget(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

// serveConn sniffs the first byte — the binary preamble's magic can never
// start a text verb — and hands the connection to the matching front.
func (p *Proxy) serveConn(conn net.Conn) {
	defer p.wg.Done()
	defer p.forget(conn)
	defer conn.Close()
	var tch touched
	defer tch.flush()
	r := bufio.NewReaderSize(sessReader{conn, &tch}, 32<<10)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	if first[0] == binwire.Magic {
		p.serveBinary(conn, r, &tch)
		return
	}
	p.serveText(conn, r, &tch)
}

// sessReader is a client session's socket as its front reads it. Before a
// read that may block, it flushes the pooled frames the session's
// requests have touched, the node's flush-before-read rule: a pipelined
// batch leaves in one write per backend, and no request waits behind the
// first bytes of the next. The fronts also flush at the batch boundary,
// once a request leaves nothing buffered, which is the same point for a
// whole batch: with this flush alone, proxy-mix read a p50 about 10%
// higher and wider across runs (2 vCPUs; the cause is not isolated).
type sessReader struct {
	net.Conn
	tch *touched
}

func (s sessReader) Read(p []byte) (int, error) {
	s.tch.flush()
	return s.Conn.Read(p)
}

// route submits one frame through the pool to ring member owner, answering
// with a synthesized ERR when the backend cannot be dialed (reconnect is
// retried on the next batch that routes there) or when owner is -1, the
// CLUSTER verb textOwner refuses.
func (p *Proxy) route(tch *touched, pd pend, owner int32, frame []byte) {
	if owner < 0 {
		pd.s.deliver(pd, binwire.StErr, errClusterVerb)
		return
	}
	pc, err := p.pool.get(owner)
	if err != nil {
		pd.s.deliver(pd, binwire.StErr, []byte("proxy: backend "+p.members[owner]+" unavailable"))
		return
	}
	pc.submit(pd, frame)
	tch.add(pc)
}

// ownerOf is the ring member index that owns (tenant, key).
func (p *Proxy) ownerOf(tenant, key []byte) int32 {
	return p.ring.ownerIdx(keyHashB(tenant, key))
}

// submit routes one data request either front decoded, q, encoded in
// frame: a batch (BMGET, or a text MGET) splits by key owner into per-owner
// BMGET sub-frames (merge.go), TENANT_ADD and TENANT_DEL go to the name's
// owner, and a single-key command to its key's owner.
func (p *Proxy) submit(tch *touched, sc *scatter, pd pend, q *binwire.Req, frame []byte) {
	switch q.Op {
	case binwire.OpBMGet:
		sc.begin(len(p.members), pd.id, pd.seq, pd.t0)
		for _, k := range q.Keys {
			sc.add(p.ownerOf(q.Tenant, k), q.Tenant, k)
		}
		p.send(sc, tch, pd.s)
	case binwire.OpTenantAdd, binwire.OpTenantDel:
		p.route(tch, pd, p.ownerOf(q.Tenant, nil), frame)
	default:
		p.route(tch, pd, p.ownerOf(q.Tenant, q.Key), frame)
	}
}

// now returns a submit timestamp when latency tracking is on, else 0.
func (p *Proxy) now() int64 {
	if p.lat == nil {
		return 0
	}
	return time.Now().UnixNano()
}

func (p *Proxy) record(t0 int64) {
	if p.lat != nil && t0 != 0 {
		p.lat.Record(time.Duration(time.Now().UnixNano() - t0))
	}
}

// ---------------------------------------------------------------- text --

// textSlot is one command's place in the response order. It holds the
// tenant a data command named, which an unknown-tenant reply names as a
// node's does, and, for a response that completed ahead of an earlier one,
// its rendering until its turn. The buffers are reused while small.
type textSlot struct {
	buf    []byte
	tenant []byte
	done   bool
}

// textWindow is the sequencer's window at rest and slotKeepBuf the largest
// out-of-order response buffer one of its slots keeps. A window a deep
// pipelined burst has grown keeps no slot buffers and is given back when the
// burst has drained, so a session pins at most textWindow × slotKeepBuf.
const (
	textWindow  = 64
	slotKeepBuf = 4 << 10
)

// opStats marks a relayed STATS on the text front, whose reply gets the
// proxy's own counters before its END. It is no wire opcode.
const opStats = 0xff

// textProxySess is one text client. Pooled responses complete out of
// order (whichever backend answers first) but the text protocol promises
// responses in command order, so each command takes a sequence slot and
// completions are emitted strictly in slot order.
type textProxySess struct {
	p    *Proxy
	conn net.Conn

	mu    sync.Mutex
	cond  *sync.Cond
	w     *bufio.Writer
	next  uint64     // next sequence slot to assign
	head  uint64     // next slot to emit
	slots []textSlot // window over [head, next): seq s lives at s & (len-1)
	rbuf  []byte     // render scratch for responses completing in order

	// Reading-goroutine scratch.
	req     binwire.Req
	buf     []byte // a line and the value block read after it
	scratch []byte
	sc      scatter
}

// allocSeq claims the next response-ordering slot for a command naming
// tenant (nil for none), doubling the window when the client has that many
// commands in flight.
func (ts *textProxySess) allocSeq(tenant []byte) uint64 {
	ts.mu.Lock()
	if n := uint64(len(ts.slots)); ts.next-ts.head == n {
		grown := make([]textSlot, 2*n)
		for s := ts.head; s != ts.next; s++ {
			grown[s&(2*n-1)] = ts.slots[s&(n-1)]
		}
		ts.slots = grown
	}
	s := ts.next
	sl := &ts.slots[s&uint64(len(ts.slots)-1)]
	sl.tenant = append(sl.tenant[:0], tenant...)
	ts.next++
	ts.mu.Unlock()
	return s
}

// complete renders one command's response — the finished merge m, or the
// single binary response (op, status, payload) — and emits every response
// that is now at the head of the order; one completing ahead of its turn
// waits in its slot. The whole buffer flushes once all assigned slots have
// drained (the batch boundary) or when it grows past the high-water mark.
func (ts *textProxySess) complete(seq uint64, op, status uint8, payload []byte, m *bmMerge) {
	ts.mu.Lock()
	mask := uint64(len(ts.slots) - 1)
	sl, buf := &ts.slots[seq&mask], ts.rbuf
	if seq != ts.head {
		buf = sl.buf
	}
	switch {
	case m != nil:
		buf = m.render(buf[:0], true, sl.tenant)
	case op == opStats && status == binwire.StOK:
		buf = ts.p.appendStats(buf[:0], payload)
	default:
		buf = binwire.AppendTextResp(buf[:0], op, status, payload, sl.tenant)
	}
	if seq != ts.head {
		sl.buf, sl.done = buf, true
	} else {
		ts.w.Write(buf)
		ts.rbuf = keep(buf)
		ts.head++
		for sl = &ts.slots[ts.head&mask]; sl.done; sl = &ts.slots[ts.head&mask] {
			ts.w.Write(sl.buf)
			if sl.done = false; cap(sl.buf) > slotKeepBuf || len(ts.slots) > textWindow {
				sl.buf = nil
			}
			ts.head++
		}
		if ts.head == ts.next && len(ts.slots) > textWindow {
			ts.slots = make([]textSlot, textWindow)
		}
	}
	if ts.head == ts.next || ts.w.Buffered() >= proxyFlushHi {
		if ts.w.Flush() != nil {
			ts.conn.Close() // the session's read loop sees the close
		}
	}
	ts.cond.Broadcast()
	ts.mu.Unlock()
}

// barrier flushes outstanding pooled frames and waits until every
// assigned slot has been emitted.
func (ts *textProxySess) barrier(tch *touched) {
	tch.flush()
	ts.mu.Lock()
	for ts.head != ts.next {
		ts.cond.Wait()
	}
	ts.mu.Unlock()
}

// deliver renders one pooled backend response into the session's response
// order. Called from pool reader goroutines.
func (ts *textProxySess) deliver(pd pend, status uint8, payload []byte) {
	m := pd.m
	if m == nil {
		ts.complete(pd.seq, pd.op, status, payload, nil)
	} else if m.absorb(pd.sub, status, payload) {
		ts.p.record(m.t0)
		ts.complete(m.seq, 0, 0, nil, m)
	}
}

// serveText runs the text front. Each command line and the value block it
// declares are read whole and decoded by binwire.Req.DecodeText, the
// parser a node runs: a decode error is answered here, in order, with the
// node's own ERR line; a data command takes the binary front's path
// (submit) on the pooled binary plane and is answered through the
// sequencer; a control line goes to control. Lines alias the reader's
// buffer, or ts.buf once a value block has been read after them.
func (p *Proxy) serveText(conn net.Conn, r *bufio.Reader, tch *touched) {
	ts := &textProxySess{
		p:     p,
		conn:  conn,
		w:     bufio.NewWriterSize(conn, 16<<10),
		slots: make([]textSlot, textWindow),
	}
	ts.cond = sync.NewCond(&ts.mu)
	q := &ts.req
	for {
		line, err := textwire.ReadLine(r, textwire.MaxLine)
		if err != nil {
			return
		}
		var block []byte
		if n := q.SplitText(line); n > binwire.MaxValue {
			ts.end(tch, "ERR "+binwire.ErrValueLen(n).Error())
			return
		} else if n > 0 {
			if line, block, ts.buf, err = textwire.ReadBlock(r, line, n, ts.buf); err != nil {
				ts.end(tch, "ERR short value")
				return
			}
			ts.buf = keep(ts.buf)
		}
		switch msg := q.DecodeText(line, block); {
		case msg != "":
			ts.complete(ts.allocSeq(nil), 0, binwire.StErr, []byte(msg), nil)
		case q.Op == 0: // a blank line has no reply
		case q.Op == binwire.OpText:
			if !p.control(ts, tch, q) {
				return
			}
		default:
			if q.Op != binwire.OpBMGet { // a batch is split into sub-frames instead
				ts.scratch = binwire.AppendReq(ts.scratch[:0], q.Op, q.Flags, 0, q.TTLms, q.Tenant, q.Key, q.Val)
			}
			p.submit(tch, &ts.sc, pend{s: ts, op: q.Op, seq: ts.allocSeq(q.Tenant), t0: p.now()}, q, ts.scratch)
			ts.scratch = keep(ts.scratch)
		}
		if r.Buffered() == 0 {
			tch.flush() // the batch boundary (see sessReader)
		}
	}
}

var (
	errClusterVerb = []byte("CLUSTER must be issued to a node, not the proxy")
	errTextData    = []byte("a data command rides its own frame, not TEXT, through the proxy")
)

// end writes the reply of the command that ends the session, after every
// reply ahead of it: QUIT's, or the node's own ERR for a PUT whose value
// block is over the cap or cut short, which ends a node's connection too.
func (ts *textProxySess) end(tch *touched, reply string) {
	ts.barrier(tch)
	ts.mu.Lock()
	ts.w.WriteString(reply + "\r\n")
	ts.w.Flush()
	ts.mu.Unlock()
}

// control answers PING here and ends the session on QUIT. Any other
// control line is relayed to textOwner's node as one TEXT frame, whose
// reply the sequencer renders verbatim. It leaves after
// the replies ahead of it and is answered before the next line is read, so
// a pipelined TENANT ADD lands cluster-wide before the commands behind it.
// It reports whether the session goes on.
func (p *Proxy) control(ts *textProxySess, tch *touched, q *binwire.Req) bool {
	op := uint8(binwire.OpText)
	switch verb := q.Keys[0]; {
	case textwire.CmdEq(verb, "PING"):
		ts.complete(ts.allocSeq(nil), binwire.OpPing, binwire.StOK, nil, nil)
		return true
	case textwire.CmdEq(verb, "QUIT"):
		ts.end(tch, "BYE")
		return false
	case textwire.CmdEq(verb, "STATS"):
		op = opStats
	}
	ts.barrier(tch)
	ts.scratch = binwire.AppendText(ts.scratch[:0], 0, q.Key, q.Val)
	p.route(tch, pend{s: ts, op: op, seq: ts.allocSeq(nil), t0: p.now()}, p.textOwner(q.Keys), ts.scratch)
	ts.scratch = keep(ts.scratch)
	ts.barrier(tch)
	return true
}

// textOwner is the ring member a control line's fields f go to: the name's
// owner for TENANT ADD and DEL, so that retries of one registration land on
// one node, and member 0 for everything else, which any node answers alike.
// CLUSTER gets -1, a refusal on both fronts: membership is per node, and
// through a proxy it would be ambiguous about which node should drain.
func (p *Proxy) textOwner(f [][]byte) int32 {
	switch {
	case len(f) > 0 && textwire.CmdEq(f[0], "CLUSTER"):
		return -1
	case len(f) == 3 && textwire.CmdEq(f[0], "TENANT") && (textwire.CmdEq(f[1], "ADD") || textwire.CmdEq(f[1], "DEL")):
		return p.ownerOf(f[2], nil)
	}
	return 0
}

// appendStats appends member 0's STATS reply with the proxy's counters
// before its END (an ERR reply has none). The scale suite scrapes each node
// directly for cluster-wide views.
func (p *Proxy) appendStats(dst, reply []byte) []byte {
	body, ok := bytes.CutSuffix(reply, []byte("END\r\n"))
	if !ok {
		return append(dst, reply...)
	}
	st := p.Stats()
	dst = fmt.Appendf(append(dst, body...), "STAT proxy_pool_conns %d\r\nSTAT proxy_pipelined_frames %d\r\n", st.PoolConns, st.PipelinedFrames)
	if st.LatencyCounts != nil {
		dst = fmt.Appendf(dst, "STAT proxy_latency_p50_us %d\r\nSTAT proxy_latency_p99_us %d\r\n", st.LatencyQuantile(0.5).Microseconds(), st.LatencyQuantile(0.99).Microseconds())
	}
	return append(dst, "END\r\n"...)
}

// -------------------------------------------------------------- binary --

// binProxySess is one binary client. The binary contract tells clients to
// match responses by id, so pooled responses are written back in arrival
// order with the client's original id restored; no sequencer is needed.
type binProxySess struct {
	p    *Proxy
	conn net.Conn

	wmu sync.Mutex
	out []byte // encoded, unflushed response frames

	// outstanding counts client frames still owed a response; out is
	// written when it drains (the batch boundary) or on the high-water mark.
	outstanding atomic.Int64

	// Reading goroutine only.
	req  binwire.Req
	text binwire.Req // a TEXT frame's line, decoded
	sc   scatter
}

// deliver writes one pooled backend response (or finished merge) back to
// the client. Called from pool reader goroutines.
func (bs *binProxySess) deliver(pd pend, status uint8, payload []byte) {
	m := pd.m
	if m == nil {
		bs.writeFrame(status, pd.op, pd.id, payload)
	} else if m.absorb(pd.sub, status, payload) {
		bs.p.record(m.t0)
		bs.wmu.Lock()
		bs.out = m.render(bs.out, false, nil)
		bs.sentLocked()
		bs.wmu.Unlock()
	}
}

func (bs *binProxySess) writeFrame(status, op uint8, id uint32, payload []byte) {
	bs.wmu.Lock()
	bs.out = binwire.AppendResp(bs.out, status, op, id, payload)
	bs.sentLocked()
	bs.wmu.Unlock()
}

// sentLocked retires one owed response, flushing at the batch boundary.
// Caller holds wmu.
func (bs *binProxySess) sentLocked() {
	if bs.outstanding.Add(-1) <= 0 || len(bs.out) >= proxyFlushHi {
		if _, err := bs.conn.Write(bs.out); err != nil {
			bs.conn.Close() // the session's read loop sees the close
		}
		bs.out = keep(bs.out)
	}
}

// serveBinary runs the binary front: negotiate with the client, then
// validate each request frame with the node's own framing rule
// (binwire.Req.Parse), rewrite its id, and pipeline it through the shared
// pool. A frame the rule refuses closes this client's session, as a node
// closes a connection; forwarded, it would make the node close the pooled
// connection that every other client's requests ride on.
func (p *Proxy) serveBinary(conn net.Conn, r *bufio.Reader, tch *touched) {
	if _, ok, _ := binwire.Accept(r, conn); !ok {
		return
	}
	bs := &binProxySess{p: p, conn: conn}

	hdr := make([]byte, 4)
	var frame []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return
		}
		n := int(le.Uint32(hdr))
		if !binwire.ReqLen(n) {
			return
		}
		if cap(frame) < 4+n {
			frame = make([]byte, 4+n)
		}
		frame = frame[:4+n]
		copy(frame, hdr)
		if _, err := io.ReadFull(r, frame[4:]); err != nil {
			return
		}
		q := &bs.req
		if !q.Parse(frame[4:]) {
			return
		}
		pd := pend{s: bs, id: q.ID, op: q.Op, t0: p.now()}

		bs.outstanding.Add(1)
		switch {
		case q.Op == binwire.OpPing:
			// Answered locally: PING probes the proxy's own liveness.
			bs.writeFrame(binwire.StOK, q.Op, q.ID, nil)
		case binwire.PeerOp(q.Op):
			// The peers' replication and re-homing frames never pass through
			// the proxy, whatever preamble the client sent.
			bs.writeFrame(binwire.StErr, q.Op, q.ID, []byte(binwire.PeerOpRefused))
		case q.Err != "":
			// A frame the node would refuse is answered here with the node's
			// bytes, in the node's order; a split batch would otherwise slip
			// past the node's whole-frame limits (and an empty batch has no
			// owner to route to).
			bs.writeFrame(binwire.StErr, q.Op, q.ID, []byte(q.Err))
		case q.Op == binwire.OpText:
			// A TEXT frame relays a control line. A data command in one is
			// refused: the text decoder parses it, but data is routed by key
			// only in data frames. A line it refuses goes on for the node's
			// own ERR line.
			if t := &bs.text; t.DecodeText(q.Key, q.Val) == "" && t.Op != 0 && t.Op != binwire.OpText {
				bs.writeFrame(binwire.StErr, q.Op, q.ID, errTextData)
			} else {
				p.route(tch, pd, p.textOwner(t.Keys), frame)
			}
		default:
			p.submit(tch, &bs.sc, pd, q, frame)
		}
		if r.Buffered() == 0 {
			tch.flush() // the batch boundary (see sessReader)
		}
	}
}
