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
// Control verbs (TENANT, STATS, CLUSTER, malformed lines) and anything
// the binary framing cannot carry fall back to per-session text
// connections, preceded by a barrier that drains in-flight pooled
// responses so cross-plane ordering is preserved.
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

// proxyMaxLine bounds one text command line (the session closes beyond it,
// before buffering more); proxyMaxBody bounds one PUT value block or binary
// frame. Both are generous — the backends enforce the real protocol limits
// and their ERR/close is relayed — these only keep an endless line or a
// garbage length field from making the proxy buffer gigabytes.
const (
	proxyMaxLine = 1 << 20
	proxyMaxBody = 64 << 20
)

// proxyFlushHi flushes a client-side response buffer early when merged
// responses outgrow it, even though the batch hasn't fully drained.
const proxyFlushHi = 48 << 10

// Wire limits mirrored from internal/service's protocol. The proxy must
// pre-validate what it pipelines onto shared backend connections (a
// malformed frame would kill a connection other clients are riding) and
// must answer whole-batch limits itself (a split BMGET would otherwise
// slip past the node's per-frame caps). The cluster package cannot import
// service for the canonical values without a cycle through loadgen.
const (
	proxyMaxKeyLen    = 250
	proxyMaxValueLen  = 1 << 20
	proxyMaxBatchKeys = 1024
)

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
	if first[0] == peerMagic {
		p.serveBinary(conn, r)
		return
	}
	p.serveText(conn, r)
}

// route submits one frame through the pool to ring member owner, answering
// with a synthesized ERR when the backend cannot be dialed (reconnect is
// retried on the next batch that routes there).
func (p *Proxy) route(tch *touched, pd pend, owner int32, frame []byte) {
	pc, err := p.pool.get(owner)
	if err != nil {
		pd.s.deliver(pd, peerStErr, []byte("proxy: backend "+p.members[owner]+" unavailable"))
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

// textBackend is one lazily dialed text-protocol connection to a node,
// owned by a single client session (so fallback responses can't
// interleave). Only control verbs and malformed lines use these; the data
// plane rides the shared binary pool.
type textBackend struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

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
	backends map[string]*textBackend
	fields   [][]byte
	scratch  []byte
	sc       scatter
}

func (ts *textProxySess) backend(addr string) (*textBackend, error) {
	if b := ts.backends[addr]; b != nil {
		return b, nil
	}
	conn, err := net.DialTimeout("tcp", addr, peerDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("backend %s: %w", addr, err)
	}
	b := &textBackend{conn: conn, r: bufio.NewReaderSize(conn, 32<<10), w: bufio.NewWriterSize(conn, 16<<10)}
	ts.backends[addr] = b
	return b, nil
}

func (ts *textProxySess) closeAll() {
	for _, b := range ts.backends {
		b.conn.Close()
	}
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
	if m != nil {
		buf = m.render(buf[:0], true)
	} else {
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
// assigned slot has been emitted, so fallback text round trips cannot
// overtake pooled responses.
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

// canPool reports whether tenant and key fit the binary framing the pool
// speaks (anything else falls back to the text path, where the backend
// produces its own exact error strings).
func canPool(tenant, key []byte) bool {
	return len(tenant) > 0 && len(tenant) <= 255 && len(key) <= proxyMaxKeyLen
}

// serveText runs the text front: hot data verbs are translated onto the
// pooled binary plane and answered through the sequencer; everything else
// drains the pipeline and takes the synchronous fallback path. Lines are
// read and tokenized in place (textwire): fields alias the reader's buffer
// and are dead after the next read from r.
func (p *Proxy) serveText(conn net.Conn, r *bufio.Reader) {
	ts := &textProxySess{
		p:        p,
		conn:     conn,
		w:        bufio.NewWriterSize(conn, 16<<10),
		slots:    make([]textSlot, textWindow),
		backends: make(map[string]*textBackend),
	}
	ts.cond = sync.NewCond(&ts.mu)
	defer ts.closeAll()
	var tch touched
	defer tch.flush()
	for {
		line, err := textwire.ReadLine(r, proxyMaxLine)
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
			op := uint8(peerOpGet)
			if textwire.CmdEq(verb, "DEL") {
				op = peerOpDel
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
			p.textRoute(ts, &tch, peerOpTouch, uint32(ms), fields[1], fields[2])

		case textwire.CmdEq(verb, "PUT"):
			done, perr := p.textPutPooled(ts, r, &tch, fields)
			if perr != nil {
				ts.fatal(perr)
				return
			}
			hot = done

		case textwire.CmdEq(verb, "MGET"):
			hot = p.textMGetPooled(ts, &tch, fields)

		case textwire.CmdEq(verb, "PING"):
			ts.complete(ts.allocSeq(), peerOpPing, peerStOK, nil, nil)

		case textwire.CmdEq(verb, "CLUSTER"):
			// Membership is per node; issuing it through a proxy would be
			// ambiguous about which node should drain.
			ts.complete(ts.allocSeq(), 0, peerStErr, errClusterVerb, nil)

		case textwire.CmdEq(verb, "QUIT"):
			ts.barrier(&tch)
			ts.w.WriteString("BYE\r\n")
			ts.w.Flush()
			return

		default:
			hot = false
		}
		if !hot {
			ts.barrier(&tch)
			if err := p.textFallback(ts, r, line, fields); err != nil {
				ts.fatal(err)
				return
			}
			if ts.w.Flush() != nil {
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

// fatal reports a proxy-side failure mid-command; the client stream can
// no longer be trusted to stay in sync, so the session ends after it.
func (ts *textProxySess) fatal(err error) {
	fmt.Fprintf(ts.w, "ERR proxy: %v\r\n", err)
	ts.w.Flush()
}

// textRoute pipelines one single-key command onto the pool.
func (p *Proxy) textRoute(ts *textProxySess, tch *touched, op uint8, ttlMS uint32, tenant, key []byte) {
	pd := pend{s: ts, op: op, seq: ts.allocSeq(), t0: p.now()}
	ts.scratch = appendFrame(ts.scratch[:0], op, 0, 0, ttlMS, tenant, key, nil)
	p.route(tch, pd, p.ownerOf(tenant, key), ts.scratch)
}

// textPutPooled handles a PUT whose line parses onto the binary framing:
// the value block is consumed from the client and the whole store rides
// the pool. Returns done=false (nothing consumed) when the command needs
// the fallback path; a non-nil error kills the session.
func (p *Proxy) textPutPooled(ts *textProxySess, r *bufio.Reader, tch *touched, fields [][]byte) (done bool, err error) {
	if len(fields) != 4 && len(fields) != 6 {
		return false, nil
	}
	if !canPool(fields[1], fields[2]) || len(fields[2]) == 0 {
		return false, nil
	}
	n, ok := textwire.ParseUint(fields[3])
	if !ok || n > proxyMaxValueLen {
		return false, nil
	}
	var flags uint8
	var ttlMS uint32
	if len(fields) == 6 {
		ms, ok := textwire.ParseUint(fields[5])
		if !ok || ms > math.MaxUint32 || !textwire.CmdEq(fields[4], "EXPIRE") {
			return false, nil
		}
		flags, ttlMS = peerFlagTTL, uint32(ms)
	}
	// The line is pool-shaped: the value block belongs to this command, so
	// consume it here (a short read means the client died mid-value). Owner
	// and header first — reading the block overwrites the fields.
	owner := p.ownerOf(fields[1], fields[2])
	ts.scratch = appendFrame(ts.scratch[:0], peerOpPut, flags, 0, ttlMS, fields[1], fields[2], nil)
	if err := ts.readValue(r, n); err != nil {
		return false, err
	}
	peerLE.PutUint32(ts.scratch[0:4], uint32(len(ts.scratch)-4))
	p.route(tch, pend{s: ts, op: peerOpPut, seq: ts.allocSeq(), t0: p.now()}, owner, ts.scratch)
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
// false (fallback) for malformed lines the backend should answer.
func (p *Proxy) textMGetPooled(ts *textProxySess, tch *touched, fields [][]byte) bool {
	if len(fields) < 3 || !canPool(fields[1], nil) {
		return false
	}
	k, ok := textwire.ParseUint(fields[2])
	if !ok || k < 1 || k > proxyMaxBatchKeys || len(fields) != 3+k {
		return false
	}
	for _, key := range fields[3:] {
		if len(key) > proxyMaxKeyLen {
			// The owner's BMGET would refuse the batch with this reply; past
			// 64 KiB the key would not even fit the sub-frame's u16 length.
			ts.complete(ts.allocSeq(), 0, peerStErr, errKeyLength, nil)
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

// textFallback handles control verbs and malformed lines over per-session
// text connections, exactly as the pre-pool proxy did: the backend
// produces its own usage errors and multi-line relays. Callers have
// already drained the pooled pipeline.
func (p *Proxy) textFallback(ts *textProxySess, r *bufio.Reader, line []byte, fields [][]byte) error {
	verb := fields[0]
	switch {
	case textwire.CmdEq(verb, "GET"), textwire.CmdEq(verb, "DEL"), textwire.CmdEq(verb, "TOUCH"), textwire.CmdEq(verb, "EXPIRE"):
		if len(fields) < 3 {
			// Malformed: any node produces the right usage error.
			return ts.roundTripTo(p.members[0], line)
		}
		return ts.roundTripTo(p.ring.OwnerB(fields[1], fields[2]), line)

	case textwire.CmdEq(verb, "PUT"):
		return p.textPutFallback(ts, r, line, fields)

	case textwire.CmdEq(verb, "MGET"):
		// Only malformed MGETs reach here; the one-line usage error comes
		// from any node.
		return ts.roundTripTo(p.members[0], line)

	case textwire.CmdEq(verb, "TENANT"):
		// Registration replicates cluster-wide from whichever node takes
		// it; route by name so retries of one op land on one node. LIST
		// reads any node's registry — they converge — so use the first.
		addr := p.members[0]
		if len(fields) == 3 && (textwire.CmdEq(fields[1], "ADD") || textwire.CmdEq(fields[1], "DEL")) {
			addr = p.ring.OwnerB(fields[2], nil)
		}
		if len(fields) >= 2 && textwire.CmdEq(fields[1], "LIST") {
			return ts.relayUntilEnd(addr, line, nil)
		}
		return ts.roundTripTo(addr, line)

	case textwire.CmdEq(verb, "STATS"):
		// Per-node counters; the proxy reports the first member's, plus
		// its own pool counters injected before END. The scale suite
		// scrapes each node directly for cluster-wide views.
		return ts.relayUntilEnd(p.members[0], line, func() {
			st := p.Stats()
			fmt.Fprintf(ts.w, "STAT proxy_pool_conns %d\r\n", st.PoolConns)
			fmt.Fprintf(ts.w, "STAT proxy_pipelined_frames %d\r\n", st.PipelinedFrames)
			if st.LatencyCounts != nil {
				fmt.Fprintf(ts.w, "STAT proxy_latency_p50_us %d\r\n", st.LatencyQuantile(0.5).Microseconds())
				fmt.Fprintf(ts.w, "STAT proxy_latency_p99_us %d\r\n", st.LatencyQuantile(0.99).Microseconds())
			}
		})

	default:
		fmt.Fprintf(ts.w, "ERR unknown command %q\r\n", verb)
		return nil
	}
}

// forward sends one command line to addr's fallback connection.
func (ts *textProxySess) forward(addr string, line []byte) (*textBackend, error) {
	b, err := ts.backend(addr)
	if err != nil {
		return nil, err
	}
	b.w.Write(line)
	b.w.WriteString("\r\n")
	return b, b.w.Flush()
}

// relayLine copies one reply line from the backend to the client.
func (ts *textProxySess) relayLine(b *textBackend) error {
	resp, err := textwire.ReadLine(b.r, proxyMaxLine)
	if err == nil {
		ts.w.Write(resp)
		ts.w.WriteString("\r\n")
	}
	return err
}

// roundTripTo forwards one command line and relays the one-line reply.
func (ts *textProxySess) roundTripTo(addr string, line []byte) error {
	b, err := ts.forward(addr, line)
	if err != nil {
		return err
	}
	return ts.relayLine(b)
}

// relayUntilEnd forwards one command line and copies response lines to the
// client until the END terminator, invoking inject (when non-nil) just
// before END so the proxy can add its own lines. A leading ERR line is a
// complete response on its own.
func (ts *textProxySess) relayUntilEnd(addr string, line []byte, inject func()) error {
	b, err := ts.forward(addr, line)
	if err != nil {
		return err
	}
	for {
		resp, err := textwire.ReadLine(b.r, proxyMaxLine)
		if err != nil {
			return err
		}
		end := string(resp) == "END"
		if end && inject != nil {
			inject()
		}
		ts.w.Write(resp)
		ts.w.WriteString("\r\n")
		if end || bytes.HasPrefix(resp, []byte("ERR")) {
			return nil
		}
	}
}

// textPutFallback forwards a malformed or un-poolable PUT over the text
// path: the value block belongs to the command, so it is read from the
// client (keeping the client stream in sync even when the command line is
// malformed) and forwarded with the line.
func (p *Proxy) textPutFallback(ts *textProxySess, r *bufio.Reader, line []byte, fields [][]byte) error {
	if len(fields) < 4 {
		return ts.roundTripTo(p.members[0], line)
	}
	n, ok := textwire.ParseUint(fields[3])
	if !ok {
		// No value block can follow an unparseable length; the backend
		// answers the same ERR without one.
		return ts.roundTripTo(p.members[0], line)
	}
	if n > proxyMaxBody {
		return fmt.Errorf("value length %d exceeds proxy maximum", n)
	}
	// The line is buffered for the backend before the block is read: line
	// and fields alias the client reader's buffer.
	addr := p.ring.OwnerB(fields[1], fields[2])
	b, err := ts.backend(addr)
	if err != nil {
		return err
	}
	b.w.Write(line)
	b.w.WriteString("\r\n")
	ts.scratch = ts.scratch[:0]
	if err := ts.readValue(r, n); err != nil {
		return err
	}
	b.w.Write(ts.scratch)
	ts.scratch = keep(ts.scratch)
	b.w.WriteString("\r\n")
	// A node refuses an oversized value from the command line alone and
	// closes, so the write of the block can fail while the node's ERR is
	// already readable: the write error counts only when no reply arrived.
	werr := b.w.Flush()
	if err := ts.relayLine(b); err != nil {
		if werr != nil {
			return werr
		}
		return err
	}
	if werr != nil {
		b.conn.Close()
		delete(ts.backends, addr)
	}
	return nil
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

	sc scatter // reading goroutine only
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
	bs.out = appendResp(bs.out, status, op, id, payload)
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
// parse each request frame just enough to validate and route it, rewrite
// its id, and pipeline it through the shared pool.
func (p *Proxy) serveBinary(conn net.Conn, r *bufio.Reader) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return
	}
	if pre[0] != peerMagic || pre[1] != 'V' || pre[2] != 'B' {
		return
	}
	ack := [4]byte{peerMagic, 'V', 'B', peerVersion}
	if _, err := conn.Write(ack[:]); err != nil || pre[3] != peerVersion {
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
		n := int(peerLE.Uint32(hdr))
		if n < peerReqHdr || n > proxyMaxBody {
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
		op := frame[4]
		tl := int(frame[6])
		id := peerLE.Uint32(frame[8:12])
		kl := int(peerLE.Uint16(frame[16:18]))
		if peerReqHdr+tl > n {
			return // framing violation, same as a node would treat it
		}
		tenant := frame[4+peerReqHdr : 4+peerReqHdr+tl]
		pd := pend{s: bs, id: id, op: op, t0: p.now()}

		bs.outstanding.Add(1)
		switch op {
		case peerOpPing:
			// Answered locally: PING probes the proxy's own liveness.
			bs.writeFrame(peerStOK, op, id, nil)
		case peerOpBMGet:
			if !p.binBMGet(bs, &tch, frame, tenant, pd, kl) {
				return
			}
		case peerOpTenantAdd, peerOpTenantDel, peerOpRegOp:
			p.route(&tch, pd, p.ownerOf(tenant, nil), frame)
		case peerOpRegPull:
			p.route(&tch, pd, 0, frame)
		case peerOpGet, peerOpPut, peerOpDel, peerOpTouch, peerOpRehome:
			if peerReqHdr+tl+kl > n {
				return
			}
			key := frame[4+peerReqHdr+tl : 4+peerReqHdr+tl+kl]
			p.route(&tch, pd, p.ownerOf(tenant, key), frame)
		default:
			return // unknown opcode: the stream can't be trusted
		}
		if r.Buffered() == 0 {
			tch.flush()
		}
	}
}

// binBMGet validates one BMGET frame and scatters it by owner. Semantic
// failures answer the same frame-level ERRs a node would, in the node's
// order (service.binBMGet); framing violations return false and close the
// client, mirroring node behavior.
func (p *Proxy) binBMGet(bs *binProxySess, tch *touched, frame, tenant []byte, pd pend, count int) bool {
	// No flags or TTL semantics are defined for BMGET in v1.
	if frame[5] != 0 || peerLE.Uint32(frame[12:16]) != 0 {
		return false
	}
	// Structural pass before anything is sized from the header's count: the
	// declared entries must tile the body exactly.
	list := frame[4+peerReqHdr+len(tenant):]
	rest, badKey := list, false
	for i := 0; i < count; i++ {
		if len(rest) < 2 {
			return false
		}
		kl := int(peerLE.Uint16(rest))
		if len(rest) < 2+kl {
			return false
		}
		badKey = badKey || kl == 0 || kl > proxyMaxKeyLen
		rest = rest[2+kl:]
	}
	if len(rest) != 0 {
		return false
	}
	// Semantic validation mirrors the node's: the proxy must answer these
	// itself because a split batch would otherwise slip past the node's
	// whole-frame limits (and an empty batch has no owner to route to).
	msg := ""
	switch {
	case count == 0:
		msg = "empty key list"
	case count > proxyMaxBatchKeys:
		msg = "too many keys"
	case badKey:
		msg = "bad key length"
	}
	if msg != "" {
		bs.writeFrame(peerStErr, peerOpBMGet, pd.id, []byte(msg))
		return true
	}
	bs.sc.begin(len(p.members), pd.id, 0, pd.t0)
	for len(list) > 0 {
		kl := int(peerLE.Uint16(list))
		bs.sc.add(p.ownerOf(tenant, list[2:2+kl]), tenant, list[2:2+kl])
		list = list[2+kl:]
	}
	p.send(&bs.sc, tch, bs)
	return true
}
