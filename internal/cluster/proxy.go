package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
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
// pool.go), translates hot text commands onto it, splits each incoming
// client batch by ring owner, scatters the per-backend frames in one
// buffered write per backend, and re-merges responses into each client's
// stream — in arrival order keyed by request id on the binary front, in
// strict command order (a per-session sequencer) on the text front. MGET
// and BMGET fan out as per-owner BMGET sub-frames whose coalesced
// responses are re-merged in client key order by the core both fronts
// share (merge.go). In steady state the hop allocates nothing per key or
// per frame.
//
// Every other text line (control verbs, malformed lines, keys too long for
// a data frame) rides the same pool as one TEXT frame (binwire), and the
// sequencer renders the node's reply verbatim, so a proxied session opens
// no connection of its own. The proxy itself answers only PING, QUIT,
// CLUSTER (refused, on the binary front's TEXT frames too) and a PUT over
// the value cap, which ends the session with the node's message.
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
	r := bufio.NewReaderSize(conn, 32<<10)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	if first[0] == binwire.Magic {
		p.serveBinary(conn, r)
		return
	}
	p.serveText(conn, r)
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

// textSlot holds the rendered response of a command that completed ahead of
// an earlier one, until its turn. The buffers are reused while small.
type textSlot struct {
	buf  []byte
	done bool
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
	fields  [][]byte
	scratch []byte
	sc      scatter
}

// allocSeq claims the next response-ordering slot, doubling the window when
// the client has that many commands in flight.
func (ts *textProxySess) allocSeq() uint64 {
	ts.mu.Lock()
	if n := uint64(len(ts.slots)); ts.next-ts.head == n {
		grown := make([]textSlot, 2*n)
		for s := ts.head; s != ts.next; s++ {
			grown[s&(2*n-1)] = ts.slots[s&(n-1)]
		}
		ts.slots = grown
	}
	s := ts.next
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
		buf = m.render(buf[:0], true)
	case op == opStats && status == binwire.StOK:
		buf = ts.p.appendStats(buf[:0], payload)
	default:
		buf = appendTextResp(buf[:0], op, status, payload)
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

// canPool reports whether tenant and key fit the binary data frames the
// proxy translates hot commands into (anything else is relayed as text,
// and the node produces its own exact error strings).
func canPool(tenant, key []byte) bool {
	return len(tenant) > 0 && len(tenant) <= 255 && len(key) <= binwire.MaxKey
}

// serveText runs the text front: hot data verbs are translated onto the
// pooled binary plane and answered through the sequencer; every other line
// is relayed to a node as a TEXT frame on the same pool. Lines are read
// and tokenized in place (textwire): fields alias the reader's buffer and
// are dead after the next read from r.
func (p *Proxy) serveText(conn net.Conn, r *bufio.Reader) {
	ts := &textProxySess{
		p:     p,
		conn:  conn,
		w:     bufio.NewWriterSize(conn, 16<<10),
		slots: make([]textSlot, textWindow),
	}
	ts.cond = sync.NewCond(&ts.mu)
	var tch touched
	defer tch.flush()
	for {
		line, err := textwire.ReadLine(r, textwire.MaxLine)
		if err != nil {
			return
		}
		ts.fields = textwire.SplitFields(line, ts.fields[:0])
		fields := ts.fields
		if len(fields) == 0 {
			continue
		}
		verb := fields[0]
		hot := true
		switch {
		case textwire.CmdEq(verb, "GET"), textwire.CmdEq(verb, "DEL"):
			if len(fields) != 3 || !canPool(fields[1], fields[2]) {
				hot = false
				break
			}
			op := uint8(binwire.OpGet)
			if textwire.CmdEq(verb, "DEL") {
				op = binwire.OpDel
			}
			p.textRoute(ts, &tch, op, 0, fields[1], fields[2])

		case textwire.CmdEq(verb, "TOUCH"), textwire.CmdEq(verb, "EXPIRE"):
			if len(fields) != 4 || !canPool(fields[1], fields[2]) {
				hot = false
				break
			}
			ms, ok := textwire.ParseUint(fields[3])
			if !ok || ms > math.MaxUint32 {
				hot = false
				break
			}
			p.textRoute(ts, &tch, binwire.OpTouch, uint32(ms), fields[1], fields[2])

		case textwire.CmdEq(verb, "PUT"):
			done, perr := p.textPutPooled(ts, r, &tch, fields)
			if perr != nil {
				ts.end(&tch, "ERR "+perr.Error())
				return
			}
			hot = done

		case textwire.CmdEq(verb, "MGET"):
			hot = p.textMGetPooled(ts, &tch, fields)

		case textwire.CmdEq(verb, "PING"):
			ts.complete(ts.allocSeq(), binwire.OpPing, binwire.StOK, nil, nil)

		case textwire.CmdEq(verb, "QUIT"):
			ts.end(&tch, "BYE")
			return

		default:
			hot = false
		}
		if !hot {
			if err := p.relay(ts, r, &tch, line, fields); err != nil {
				ts.end(&tch, "ERR "+err.Error())
				return
			}
			continue
		}
		if r.Buffered() == 0 {
			tch.flush()
		}
	}
}

var (
	errClusterVerb = []byte("CLUSTER must be issued to a node, not the proxy")
	errKeyLength   = []byte("bad key length")
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

// textRoute pipelines one single-key command onto the pool.
func (p *Proxy) textRoute(ts *textProxySess, tch *touched, op uint8, ttlMS uint32, tenant, key []byte) {
	pd := pend{s: ts, op: op, seq: ts.allocSeq(), t0: p.now()}
	ts.scratch = binwire.AppendReq(ts.scratch[:0], op, 0, 0, ttlMS, tenant, key, nil)
	p.route(tch, pd, p.ownerOf(tenant, key), ts.scratch)
}

// textPutPooled handles a PUT whose line parses onto the binary framing:
// the value block is consumed from the client and the whole store rides
// the pool. Returns done=false (nothing consumed) when the command is to
// be relayed; a non-nil error kills the session.
func (p *Proxy) textPutPooled(ts *textProxySess, r *bufio.Reader, tch *touched, fields [][]byte) (done bool, err error) {
	if len(fields) != 4 && len(fields) != 6 {
		return false, nil
	}
	if !canPool(fields[1], fields[2]) || len(fields[2]) == 0 {
		return false, nil
	}
	n, ok := textwire.ParseUint(fields[3])
	if !ok || n > binwire.MaxValue {
		return false, nil
	}
	var flags uint8
	var ttlMS uint32
	if len(fields) == 6 {
		ms, ok := textwire.ParseUint(fields[5])
		if !ok || ms > math.MaxUint32 || !textwire.CmdEq(fields[4], "EXPIRE") {
			return false, nil
		}
		flags, ttlMS = binwire.FlagTTL, uint32(ms)
	}
	// The line is pool-shaped: the value block belongs to this command, so
	// consume it here (a short read means the client died mid-value). Owner
	// and header first — reading the block overwrites the fields.
	owner := p.ownerOf(fields[1], fields[2])
	ts.scratch = binwire.AppendReq(ts.scratch[:0], binwire.OpPut, flags, 0, ttlMS, fields[1], fields[2], nil)
	if err := ts.readValue(r, n); err != nil {
		return false, err
	}
	binwire.SetLen(ts.scratch)
	p.route(tch, pend{s: ts, op: binwire.OpPut, seq: ts.allocSeq(), t0: p.now()}, owner, ts.scratch)
	ts.scratch = keep(ts.scratch)
	return true, nil
}

// readValue appends the client's n-byte value block to ts.scratch and
// absorbs its terminator, tolerating a bare LF.
func (ts *textProxySess) readValue(r *bufio.Reader, n int) error {
	base := len(ts.scratch)
	ts.scratch = append(ts.scratch, make([]byte, n)...)
	if _, err := io.ReadFull(r, ts.scratch[base:]); err != nil {
		return errors.New("short value")
	}
	textwire.DiscardEOL(r)
	return nil
}

// textMGetPooled fans a well-formed MGET out as per-owner BMGET frames
// and re-merges the coalesced responses in client key order. Returns
// false for malformed lines, which are relayed for the node's usage error.
func (p *Proxy) textMGetPooled(ts *textProxySess, tch *touched, fields [][]byte) bool {
	if len(fields) < 3 || !canPool(fields[1], nil) {
		return false
	}
	k, ok := textwire.ParseUint(fields[2])
	if !ok || k < 1 || k > binwire.MaxBatchKeys || len(fields) != 3+k {
		return false
	}
	for _, key := range fields[3:] {
		if len(key) > binwire.MaxKey {
			// The owner's BMGET would refuse the batch with this reply; past
			// 64 KiB the key would not even fit the sub-frame's u16 length.
			ts.complete(ts.allocSeq(), 0, binwire.StErr, errKeyLength, nil)
			return true
		}
	}
	ts.sc.begin(len(p.members), 0, ts.allocSeq(), p.now())
	for _, key := range fields[3:] {
		ts.sc.add(p.ownerOf(fields[1], key), fields[1], key)
	}
	p.send(&ts.sc, tch, ts)
	return true
}

// relay sends a line the proxy does not translate, with its value block,
// to textOwner's node as one TEXT frame, whose reply the sequencer renders
// verbatim. It leaves after the replies ahead of it and is answered before
// the next line is read, so a pipelined TENANT ADD lands cluster-wide
// before the commands behind it. An over-cap PUT is refused unread.
func (p *Proxy) relay(ts *textProxySess, r *bufio.Reader, tch *touched, line []byte, fields [][]byte) error {
	ts.barrier(tch)
	n, ok := textwire.Block(line, binwire.MaxValue)
	if !ok {
		return binwire.ErrValueLen(n) // QUIT never gets here
	}
	// Op, owner and line first: reading the block overwrites the fields.
	op, owner := uint8(binwire.OpText), p.textOwner(fields)
	if textwire.CmdEq(fields[0], "STATS") {
		op = opStats
	}
	ts.scratch = binwire.AppendText(ts.scratch[:0], 0, line, nil)
	if n > 0 {
		if err := ts.readValue(r, n); err != nil {
			return err
		}
		binwire.SetLen(ts.scratch)
	}
	p.route(tch, pend{s: ts, op: op, seq: ts.allocSeq(), t0: p.now()}, owner, ts.scratch)
	ts.scratch = keep(ts.scratch)
	ts.barrier(tch)
	return nil
}

// textOwner is the ring member a relayed line goes to: the key's owner for
// a data verb, the name's owner for TENANT ADD and DEL, so that retries of
// one registration land on one node, and member 0 for everything else,
// which any node answers alike. CLUSTER gets -1, a refusal on both fronts:
// membership is per node, and through a proxy it would be ambiguous about
// which node should drain.
func (p *Proxy) textOwner(f [][]byte) int32 {
	switch {
	case len(f) > 0 && textwire.CmdEq(f[0], "CLUSTER"):
		return -1
	case len(f) < 3:
		return 0
	case textwire.CmdEq(f[0], "GET"), textwire.CmdEq(f[0], "PUT"), textwire.CmdEq(f[0], "DEL"),
		textwire.CmdEq(f[0], "TOUCH"), textwire.CmdEq(f[0], "EXPIRE"):
		return p.ownerOf(f[1], f[2])
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
	req    binwire.Req
	sc     scatter
	fields [][]byte
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
		bs.out = m.render(bs.out, false)
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
func (p *Proxy) serveBinary(conn net.Conn, r *bufio.Reader) {
	if ok, _ := binwire.Accept(r, conn); !ok {
		return
	}
	bs := &binProxySess{p: p, conn: conn}
	var tch touched
	defer tch.flush()

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
		switch q.Op {
		case binwire.OpPing:
			// Answered locally: PING probes the proxy's own liveness.
			bs.writeFrame(binwire.StOK, q.Op, q.ID, nil)
		case binwire.OpBMGet:
			p.binBMGet(bs, &tch, pd)
		case binwire.OpTenantAdd, binwire.OpTenantDel, binwire.OpRegOp:
			p.route(&tch, pd, p.ownerOf(q.Tenant, nil), frame)
		case binwire.OpRegPull:
			p.route(&tch, pd, 0, frame)
		case binwire.OpText:
			bs.fields = textwire.SplitFields(q.Key, bs.fields[:0])
			p.route(&tch, pd, p.textOwner(bs.fields), frame)
		default:
			p.route(&tch, pd, p.ownerOf(q.Tenant, q.Key), frame)
		}
		if r.Buffered() == 0 {
			tch.flush()
		}
	}
}

// binBMGet scatters a parsed BMGET by owner. Its frame-level ERRs come from
// the parse, in the node's order; the proxy answers them itself because a
// split batch would otherwise slip past the node's whole-frame limits (and
// an empty batch has no owner to route to).
func (p *Proxy) binBMGet(bs *binProxySess, tch *touched, pd pend) {
	q := &bs.req
	if q.BatchErr != "" {
		bs.writeFrame(binwire.StErr, binwire.OpBMGet, pd.id, []byte(q.BatchErr))
		return
	}
	bs.sc.begin(len(p.members), pd.id, 0, pd.t0)
	for _, k := range q.Keys {
		bs.sc.add(p.ownerOf(q.Tenant, k), q.Tenant, k)
	}
	p.send(&bs.sc, tch, bs)
}
