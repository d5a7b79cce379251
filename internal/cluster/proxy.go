package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/latency"
	"vantage/internal/textwire"
)

// Proxy routes client commands to the key's ring owner so clients that
// cannot (or do not want to) run the consistent-hash ring themselves can
// speak to the cluster as if it were a single vantaged node, on either wire
// front: text lines or the binary framing.
//
// The data plane is pooled and pipelined: one persistent binary connection
// per backend, shared by all clients (pool.go), carries each client batch
// split by ring owner in one buffered write per backend. Each client
// connection is one session (sess) whose codec sits only at its edges: both
// fronts decode into the request a binary frame carries (the text front
// with the node's own parser, answering a line it refuses with the node's
// ERR line) and route it through one path (submit). Replies pass through
// one sequencer, in command order on the text front and in completion
// order, keyed by request id, on the binary front. MGET and BMGET fan out
// as per-owner BMGET sub-frames re-merged in client key order (merge.go).
// In steady state the hop allocates nothing per key or per frame.
//
// No pool reader waits on a client. A reader renders a completed reply
// into its session and writes it only as far as the client's socket takes
// it without blocking; the session's own writer writes the rest. A session
// stops reading its client while it owes sessMaxOwed replies or holds more
// than sessMaxOut unwritten reply bytes, so a client that does not read is
// held back, not reaped, and stalls only itself.
//
// Control lines (TENANT, STATS, unknown verbs) ride the pool as one TEXT
// frame, whose reply is relayed verbatim. The proxy itself answers only
// PING, QUIT, CLUSTER (refused, in TEXT frames too), a client's peer frames
// (REG_OP, REG_PULL, REHOME: refused) and a PUT over the value cap, which
// ends the session with the node's message. Ownership moves only when the
// proxy restarts with a new member list.
type Proxy struct {
	lis  net.Listener
	ring *Ring
	pool *pool
	lat  *latency.Hist // nil unless ProxyConfig.TrackLatency

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
	p := &Proxy{lis: lis, ring: ring, conns: make(map[net.Conn]bool)}
	if cfg.TrackLatency {
		p.lat = &latency.Hist{}
	}
	p.pool = newPool(ring.Members(), p.lat)
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
// pool (synthesizing failures for anything in flight, so no session waits
// on a reply), and waits for the sessions to end.
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
	p.pool.close()
	p.wg.Wait()
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
		s := &sess{p: p, conn: conn}
		s.rcond.L, s.wcond.L = &s.mu, &s.mu
		if sc, ok := conn.(syscall.Conn); ok {
			s.raw, _ = sc.SyscallConn()
			s.rawFn = s.writeNow
		}
		p.wg.Add(2)
		go s.writeLoop()
		go s.serve()
	}
}

// ownerOf is the ring member index that owns (tenant, key).
func (p *Proxy) ownerOf(tenant, key []byte) int32 {
	return p.ring.ownerIdx(keyHashB(tenant, key))
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

// textOwner is the ring member a control line's fields f go to: the name's
// owner for TENANT ADD and DEL, so retries of one registration land on one
// node, else member 0, as any node answers alike. CLUSTER gets -1, refused:
// membership is per node, and through a proxy it names no node.
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
// before its END (an ERR reply has none).
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

// The session's bounds. Past sessMaxOwed replies owed (a power of two, the
// text window's size) or sessMaxOut unwritten reply bytes, a session stops
// reading its client, so it holds at most sessMaxOut bytes plus
// sessMaxOwed replies. The replies it owes also ride ahead of other
// clients' on the shared backend connections, so sessMaxOwed is one batch
// of 32 fills, the deepest pipeline proxy-mix drives. Replies are written
// at the batch boundary or once they pass proxyFlushHi; a slot keeps an
// out-of-order reply's buffer up to slotKeepBuf.
const (
	sessMaxOwed  = 32
	sessMaxOut   = 1 << 20
	proxyFlushHi = 48 << 10
	slotKeepBuf  = 4 << 10
)

// opStats marks a relayed STATS on the text front, whose reply gets the
// proxy's own counters before its END. It is no wire opcode.
const opStats = 0xff

// slot is one text command's place in the reply order. It holds the tenant
// a data command named, which an unknown-tenant reply names as a node's
// does, and, for a reply that completed ahead of an earlier one, its
// rendering until its turn.
type slot struct {
	buf    []byte
	tenant []byte
	done   bool
}

// sess is one client connection. Its reader (serve) decodes requests in the
// connection's codec and routes them, each with a place claimed in the
// reply sequence; pool readers render replies into it (deliver); its writer
// (writeLoop) writes what the socket did not take at once. On the text
// front (slots non-nil) replies leave in command order and one completing
// early waits in its slot; on the binary front they leave as they complete.
type sess struct {
	p    *Proxy
	conn net.Conn

	mu      sync.Mutex
	rcond   sync.Cond // the reader waits for room or for the replies it owes
	wcond   sync.Cond // the writer waits for a batch's replies
	next    uint64    // replies claimed
	head    uint64    // replies rendered into out: next-head are owed
	slots   []slot    // text: the window over [head, next), seq s at s%sessMaxOwed
	out     []byte    // rendered replies not yet written
	writing int       // bytes the writer is writing
	eof     bool      // the reader is done
	dead    bool      // the writer is done; replies are dropped
	raw     syscall.RawConn
	rawFn   func(fd uintptr) bool // writeNow, bound once

	// The reading goroutine's own.
	quit    bool // claim found the session dead: read no further
	tch     touched
	req     binwire.Req
	text    binwire.Req // a binary TEXT frame's line, decoded
	buf     []byte      // a text line and the value block read after it
	scratch []byte
	sc      scatter
}

// sessReader is a session's socket as it reads it. Before a read that may
// block, it flushes the pooled frames the session has touched (the node's
// flush-before-read rule), so no request waits behind the first bytes of
// the next. The fronts also flush at the batch boundary, the same point for
// a whole batch: without it proxy-mix's p50 read ~10% higher (cause not
// isolated).
type sessReader struct {
	net.Conn
	tch *touched
}

func (s sessReader) Read(p []byte) (int, error) {
	s.tch.flush()
	return s.Conn.Read(p)
}

// serve sniffs the first byte — the binary preamble's magic can never start
// a text verb — and runs the matching front until the client is done; the
// writer then writes what is owed and closes the connection.
func (s *sess) serve() {
	defer s.p.wg.Done()
	r := bufio.NewReaderSize(sessReader{s.conn, &s.tch}, 32<<10)
	if first, err := r.Peek(1); err == nil && first[0] == binwire.Magic {
		s.serveBinary(r)
	} else if err == nil {
		s.slots = make([]slot, sessMaxOwed)
		s.serveText(r)
	}
	s.tch.flush()
	s.mu.Lock()
	s.eof = true
	s.wcond.Signal()
	s.mu.Unlock()
}

// full reports whether the session must stop reading. Caller holds mu.
func (s *sess) full() bool {
	return s.next-s.head >= sessMaxOwed || len(s.out)+s.writing > sessMaxOut
}

// claim takes the next place in the reply order for a request naming tenant
// (nil for none). It is where a session stops reading: while it is full, it
// flushes the pooled frames it has touched and waits for its replies to
// come in and go out. A front claims at most once per request it reads,
// and reads no further once quit is set.
func (s *sess) claim(tenant []byte) uint64 {
	s.mu.Lock()
	if s.full() {
		s.mu.Unlock()
		s.tch.flush()
		s.mu.Lock()
		for s.full() && !s.dead {
			s.rcond.Wait()
		}
	}
	s.quit = s.dead
	seq := s.next
	s.next++
	if s.slots != nil {
		sl := &s.slots[seq%sessMaxOwed]
		sl.tenant = append(sl.tenant[:0], tenant...)
	}
	s.mu.Unlock()
	return seq
}

// barrier flushes the pooled frames the session has touched and waits
// until every reply it has claimed is rendered.
func (s *sess) barrier() {
	s.tch.flush()
	s.mu.Lock()
	for s.head != s.next && !s.dead {
		s.rcond.Wait()
	}
	s.mu.Unlock()
}

// deliver renders one reply (a backend's, a synthesized failure or a local
// answer) into the session: at the head of the order, always on the binary
// front, into out with every reply that waited on it, else into its slot.
// A split batch is rendered by the deliverer of its last answer. At the
// batch boundary, once no reply is owed, or past proxyFlushHi, out is
// pushed. Called from pool readers and the session's reader.
func (s *sess) deliver(pd pend, status uint8, payload []byte) {
	if m := pd.m; m != nil {
		if !m.absorb(pd.sub, status, payload) {
			return
		}
		s.p.record(m.t0)
		pd.seq = m.seq
	}
	s.mu.Lock()
	switch {
	case s.dead:
		if pd.m != nil {
			pd.m.recycle()
		}
	case s.slots == nil || pd.seq == s.head:
		s.out = s.render(s.out, pd, status, payload)
		for s.head++; s.slots != nil && s.slots[s.head%sessMaxOwed].done; s.head++ {
			sl := &s.slots[s.head%sessMaxOwed]
			s.out = append(s.out, sl.buf...)
			if sl.buf, sl.done = sl.buf[:0], false; cap(sl.buf) > slotKeepBuf {
				sl.buf = nil
			}
		}
		if s.head == s.next || len(s.out) >= proxyFlushHi {
			s.push()
		}
		s.rcond.Signal()
	default:
		sl := &s.slots[pd.seq%sessMaxOwed]
		sl.buf, sl.done = s.render(sl.buf[:0], pd, status, payload), true
	}
	s.mu.Unlock()
}

// render appends reply pd in the session's codec: the text reply to its
// command (the finished merge, the node's STATS with the proxy's counters,
// or AppendTextResp), or the binary response frame with the client's id.
// Caller holds mu.
func (s *sess) render(dst []byte, pd pend, status uint8, payload []byte) []byte {
	if s.slots == nil {
		if pd.m != nil {
			return pd.m.render(dst, false, nil)
		}
		return binwire.AppendResp(dst, status, pd.op, pd.id, payload)
	}
	tenant := s.slots[pd.seq%sessMaxOwed].tenant
	switch {
	case pd.m != nil:
		return pd.m.render(dst, true, tenant)
	case pd.op == opStats && status == binwire.StOK:
		return s.p.appendStats(dst, payload)
	}
	return binwire.AppendTextResp(dst, pd.op, status, payload, tenant)
}

// answer claims a place for a reply the session gives itself and renders it.
func (s *sess) answer(op, status uint8, payload []byte) {
	s.deliver(pend{op: op, seq: s.claim(nil)}, status, payload)
}

// Write sends b, the binary preamble's acknowledgement, as a reply.
func (s *sess) Write(b []byte) (int, error) {
	s.mu.Lock()
	s.out = append(s.out, b...)
	s.push()
	s.mu.Unlock()
	return len(b), nil
}

// push writes out as far as the socket takes it without blocking, unless
// the writer is writing, and wakes the writer for the rest, or to end the
// session once the reader is done. Caller holds mu.
func (s *sess) push() {
	if s.writing == 0 && s.raw != nil && !s.dead {
		s.raw.Write(s.rawFn)
	}
	if len(s.out) > 0 || s.eof {
		s.wcond.Signal()
	}
}

func (s *sess) writeNow(fd uintptr) bool {
	s.out = s.out[:copy(s.out, s.out[writeNow(fd, s.out):])]
	return true
}

// writeLoop writes what push left, waiting on the client as long as it
// takes; deliveries go on into a fresh out meanwhile. Once the reader is
// done and nothing is owed, or a write has failed, it closes the connection.
func (s *sess) writeLoop() {
	defer s.p.wg.Done()
	s.mu.Lock()
	for !s.dead {
		if len(s.out) == 0 {
			if s.eof && s.head == s.next {
				break
			}
			s.wcond.Wait()
			continue
		}
		w := s.out
		s.out, s.writing = nil, len(w)
		s.mu.Unlock()
		_, err := s.conn.Write(w)
		s.mu.Lock()
		if s.writing, s.dead = 0, err != nil; s.out == nil {
			s.out = keep(w)
		}
		s.rcond.Signal()
	}
	s.dead = true
	s.rcond.Signal()
	s.mu.Unlock()
	s.conn.Close() // a reader still reading sees the close
	s.p.mu.Lock()
	delete(s.p.conns, s.conn)
	s.p.mu.Unlock()
}

// route submits one frame through the pool to ring member owner, answering
// with a synthesized ERR when the backend cannot be dialed (the next batch
// that routes there redials) or owner is -1, a CLUSTER verb.
func (s *sess) route(pd pend, owner int32, frame []byte) {
	if owner < 0 {
		s.deliver(pd, binwire.StErr, errClusterVerb)
		return
	}
	pc, err := s.p.pool.get(owner)
	if err != nil {
		s.deliver(pd, binwire.StErr, []byte("proxy: backend "+s.p.pool.members[owner]+" unavailable"))
		return
	}
	pd.s = s
	pc.submit(pd, frame)
	s.tch.add(pc)
}

// submit routes data request q, encoded in frame: a batch (BMGET or text
// MGET) splits into per-owner BMGET sub-frames (merge.go), TENANT_ADD and
// TENANT_DEL go to the name's owner, and a key to its owner.
func (s *sess) submit(pd pend, q *binwire.Req, frame []byte) {
	p := s.p
	switch q.Op {
	case binwire.OpBMGet:
		s.sc.begin(len(p.pool.members), pd.id, pd.seq, pd.t0)
		for _, k := range q.Keys {
			s.sc.add(p.ownerOf(q.Tenant, k), q.Tenant, k)
		}
		s.send()
	case binwire.OpTenantAdd, binwire.OpTenantDel:
		s.route(pd, p.ownerOf(q.Tenant, nil), frame)
	default:
		s.route(pd, p.ownerOf(q.Tenant, q.Key), frame)
	}
}

// serveText runs the text front. Each line and the value block it declares
// are read whole and decoded by binwire.Req.DecodeText, the node's parser:
// a decode error is answered here with the node's ERR line, a data command
// goes to submit and a control line to control. A PUT whose block is over
// the cap or cut short gets the node's ERR and ends the session, as it ends
// a node's connection. Lines alias r's buffer, or s.buf after a block.
func (s *sess) serveText(r *bufio.Reader) {
	q := &s.req
	for !s.quit {
		line, err := textwire.ReadLine(r, textwire.MaxLine)
		if err != nil {
			return
		}
		var block []byte
		if n := q.SplitText(line); n > binwire.MaxValue {
			s.answer(binwire.OpText, binwire.StErr, []byte(binwire.ErrValueLen(n).Error()))
			return
		} else if n > 0 {
			if line, block, s.buf, err = textwire.ReadBlock(r, line, n, s.buf); err != nil {
				s.answer(binwire.OpText, binwire.StErr, []byte("short value"))
				return
			}
			s.buf = keep(s.buf)
		}
		switch msg := q.DecodeText(line, block); {
		case msg != "":
			s.answer(0, binwire.StErr, []byte(msg))
		case q.Op == 0: // a blank line has no reply
		case q.Op == binwire.OpText:
			if !s.control(q) {
				return
			}
		default:
			if q.Op != binwire.OpBMGet { // a batch is split into sub-frames instead
				s.scratch = binwire.AppendReq(s.scratch[:0], q.Op, q.Flags, 0, q.TTLms, q.Tenant, q.Key, q.Val)
			}
			s.submit(pend{op: q.Op, seq: s.claim(q.Tenant), t0: s.p.now()}, q, s.scratch)
			s.scratch = keep(s.scratch)
		}
		if r.Buffered() == 0 {
			s.tch.flush() // the batch boundary (see sessReader)
		}
	}
}

var (
	errClusterVerb = []byte("CLUSTER must be issued to a node, not the proxy")
	errTextData    = []byte("a data command rides its own frame, not TEXT, through the proxy")
	bye            = []byte("BYE\r\n")
)

// control answers PING here and ends the session on QUIT. Any other
// control line goes to textOwner's node as one TEXT frame, after the
// replies ahead of it and answered before the next line is read, so a
// pipelined TENANT ADD lands cluster-wide before the commands behind it.
// It reports whether the session goes on.
func (s *sess) control(q *binwire.Req) bool {
	op := uint8(binwire.OpText)
	switch verb := q.Keys[0]; {
	case textwire.CmdEq(verb, "PING"):
		s.answer(binwire.OpPing, binwire.StOK, nil)
		return true
	case textwire.CmdEq(verb, "QUIT"):
		s.answer(binwire.OpText, binwire.StOK, bye)
		return false
	case textwire.CmdEq(verb, "STATS"):
		op = opStats
	}
	s.barrier()
	s.scratch = binwire.AppendText(s.scratch[:0], 0, q.Key, q.Val)
	s.route(pend{op: op, seq: s.claim(nil), t0: s.p.now()}, s.p.textOwner(q.Keys), s.scratch)
	s.scratch = keep(s.scratch)
	s.barrier()
	return true
}

// serveBinary runs the binary front: negotiate, then check each frame with
// the node's framing rule (binwire.Req.Parse) and pipeline it through the
// pool. A frame the rule refuses ends the session, as a node closes a
// connection; forwarded, it would close the pooled connection every other
// client rides on.
func (s *sess) serveBinary(r *bufio.Reader) {
	if _, ok, _ := binwire.Accept(r, s); !ok {
		return
	}
	var frame []byte
	for q := &s.req; !s.quit; {
		hdr, err := r.Peek(4)
		if err != nil || !binwire.ReqLen(int(le.Uint32(hdr))) {
			return
		}
		n := 4 + int(le.Uint32(hdr))
		frame = slices.Grow(frame[:0], n)[:n]
		if _, err := io.ReadFull(r, frame); err != nil || !q.Parse(frame[4:]) {
			return
		}
		pd := pend{id: q.ID, op: q.Op, seq: s.claim(nil), t0: s.p.now()}
		switch {
		case q.Op == binwire.OpPing: // the proxy's own liveness
			s.deliver(pd, binwire.StOK, nil)
		case binwire.PeerOp(q.Op): // peer frames never pass the proxy
			s.deliver(pd, binwire.StErr, []byte(binwire.PeerOpRefused))
		case q.Err != "":
			// The node's refusal, in the node's order: split, a batch would
			// slip past the node's whole-frame limits.
			s.deliver(pd, binwire.StErr, []byte(q.Err))
		case q.Op == binwire.OpText:
			// A TEXT frame relays a control line; data is routed by key only
			// in data frames. A line the decoder refuses gets the node's ERR.
			if t := &s.text; t.DecodeText(q.Key, q.Val) == "" && t.Op != 0 && t.Op != binwire.OpText {
				s.deliver(pd, binwire.StErr, errTextData)
			} else {
				s.route(pd, s.p.textOwner(t.Keys), frame)
			}
		default:
			s.submit(pd, q, frame)
		}
		if r.Buffered() == 0 {
			s.tch.flush() // the batch boundary (see sessReader)
		}
	}
}
