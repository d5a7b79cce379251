package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/latency"
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
// responses are re-merged in client key order.
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

// proxyMaxLine bounds one text command line; proxyMaxBody bounds one PUT
// value block or binary frame. Both are generous — the backends enforce
// the real protocol limits and their ERR/close is relayed — these only
// keep a garbage length field from making the proxy buffer gigabytes.
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
	p.pool = newPool(p.lat)
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

// route submits one frame through the pool, answering with a synthesized
// ERR when the backend cannot be dialed (reconnect is retried on the next
// batch that routes there).
func (p *Proxy) route(tch *touched, pd pend, addr string, frame []byte) {
	pc, err := p.pool.get(addr)
	if err != nil {
		pd.s.deliver(pd, peerStErr, []byte("proxy: backend "+addr+" unavailable"))
		return
	}
	pc.submit(pd, frame)
	tch.add(pc)
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

// Response renderings for pooled text commands.
const (
	kGet = iota + 1
	kPut
	kDel
	kTouch
)

// textBackend is one lazily dialed text-protocol connection to a node,
// owned by a single client session (so fallback responses can't
// interleave). Only control verbs and malformed lines use these; the data
// plane rides the shared binary pool.
type textBackend struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// textProxySess is one text client. Pooled responses complete out of
// order (whichever backend answers first) but the text protocol promises
// responses in command order, so each command takes a sequence slot and
// completions are emitted strictly in slot order.
type textProxySess struct {
	p    *Proxy
	conn net.Conn

	mu   sync.Mutex
	cond *sync.Cond
	w    *bufio.Writer
	next uint64 // next sequence slot to assign
	head uint64 // next slot to emit
	done map[uint64][]byte

	backends map[string]*textBackend
	scratch  []byte
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

// allocSeq claims the next response-ordering slot.
func (ts *textProxySess) allocSeq() uint64 {
	ts.mu.Lock()
	s := ts.next
	ts.next++
	ts.mu.Unlock()
	return s
}

// complete stores one command's rendered response and emits every
// response that is now at the head of the order. The whole buffer flushes
// once all assigned slots have drained (the batch boundary) or when it
// grows past the high-water mark.
func (ts *textProxySess) complete(seq uint64, resp []byte) {
	ts.mu.Lock()
	ts.done[seq] = resp
	for {
		b, ok := ts.done[ts.head]
		if !ok {
			break
		}
		delete(ts.done, ts.head)
		ts.head++
		ts.w.Write(b)
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
	if pd.m != nil {
		m := pd.m
		if !m.absorb(pd, status, payload) {
			return
		}
		ts.p.record(m.t0)
		ts.complete(m.seq, renderMGetMerged(m))
		return
	}
	ts.complete(pd.seq, renderTextResp(pd.kind, status, payload))
}

// renderTextResp maps one binary response onto the text protocol's exact
// reply strings for the originating verb.
func renderTextResp(kind, status uint8, payload []byte) []byte {
	switch status {
	case peerStOK:
		switch kind {
		case kGet:
			out := make([]byte, 0, len(payload)+24)
			out = append(out, "VALUE "...)
			out = strconv.AppendInt(out, int64(len(payload)), 10)
			out = append(out, "\r\n"...)
			out = append(out, payload...)
			return append(out, "\r\n"...)
		case kPut:
			return []byte("STORED\r\n")
		case kDel:
			return []byte("DELETED\r\n")
		case kTouch:
			return []byte("TOUCHED\r\n")
		}
	case peerStMiss:
		return []byte("MISS\r\n")
	case peerStShed:
		return []byte("ERR SHED server overloaded\r\n")
	}
	out := make([]byte, 0, len(payload)+8)
	out = append(out, "ERR "...)
	out = append(out, payload...)
	return append(out, "\r\n"...)
}

// renderMGetMerged renders a merged BMGET fan-out as the text MGET
// response: per-key VALUE/MISS blocks in key order plus END, or — like a
// node's own whole-batch failure — a single ERR line with no END when any
// owner failed the batch or shed its sub-batch.
func renderMGetMerged(m *bmMerge) []byte {
	if msg := m.errMsg.Load(); msg != nil {
		return []byte("ERR " + *msg + "\r\n")
	}
	for _, st := range m.sts {
		if st == peerStShed {
			return []byte("ERR SHED server overloaded\r\n")
		}
	}
	var out []byte
	for i, st := range m.sts {
		if st == peerStOK {
			out = append(out, "VALUE "...)
			out = strconv.AppendInt(out, int64(len(m.vals[i])), 10)
			out = append(out, "\r\n"...)
			out = append(out, m.vals[i]...)
			out = append(out, "\r\n"...)
		} else {
			out = append(out, "MISS\r\n"...)
		}
	}
	return append(out, "END\r\n"...)
}

// readLine reads one CRLF- (or LF-) terminated line, stripped.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) > proxyMaxLine {
		return "", errors.New("line too long")
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// canPool reports whether tenant and key fit the binary framing the pool
// speaks (anything else falls back to the text path, where the backend
// produces its own exact error strings).
func canPool(tenant, key string) bool {
	return len(tenant) > 0 && len(tenant) <= 255 && len(key) <= proxyMaxKeyLen
}

// serveText runs the text front: hot data verbs are translated onto the
// pooled binary plane and answered through the sequencer; everything else
// drains the pipeline and takes the synchronous fallback path.
func (p *Proxy) serveText(conn net.Conn, r *bufio.Reader) {
	ts := &textProxySess{
		p:        p,
		conn:     conn,
		w:        bufio.NewWriterSize(conn, 16<<10),
		done:     make(map[uint64][]byte),
		backends: make(map[string]*textBackend),
	}
	ts.cond = sync.NewCond(&ts.mu)
	defer ts.closeAll()
	var tch touched
	defer tch.flush()
	for {
		line, err := readLine(r)
		if err != nil {
			return
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		verb := strings.ToUpper(fields[0])
		hot := true
		switch verb {
		case "GET", "DEL":
			if len(fields) != 3 || !canPool(fields[1], fields[2]) {
				hot = false
				break
			}
			op, kind := uint8(peerOpGet), uint8(kGet)
			if verb == "DEL" {
				op, kind = peerOpDel, kDel
			}
			pd := pend{s: ts, op: op, kind: kind, seq: ts.allocSeq(), t0: p.now()}
			ts.scratch = appendReqFrame(ts.scratch[:0], op, 0, 0, fields[1], []byte(fields[2]), nil)
			p.route(&tch, pd, p.ring.Owner(fields[1], fields[2]), ts.scratch)

		case "TOUCH", "EXPIRE":
			if len(fields) != 4 || !canPool(fields[1], fields[2]) {
				hot = false
				break
			}
			ms, perr := strconv.ParseUint(fields[3], 10, 32)
			if perr != nil {
				hot = false
				break
			}
			pd := pend{s: ts, op: peerOpTouch, kind: kTouch, seq: ts.allocSeq(), t0: p.now()}
			ts.scratch = appendReqFrame(ts.scratch[:0], peerOpTouch, 0, uint32(ms), fields[1], []byte(fields[2]), nil)
			p.route(&tch, pd, p.ring.Owner(fields[1], fields[2]), ts.scratch)

		case "PUT":
			done, perr := p.textPutPooled(ts, r, &tch, fields)
			if perr != nil {
				ts.fatal(perr)
				return
			}
			hot = done

		case "MGET":
			hot = p.textMGetPooled(ts, &tch, fields)

		case "PING":
			ts.complete(ts.allocSeq(), []byte("PONG\r\n"))

		case "CLUSTER":
			// Membership is per node; issuing it through a proxy would be
			// ambiguous about which node should drain.
			ts.complete(ts.allocSeq(), []byte("ERR CLUSTER must be issued to a node, not the proxy\r\n"))

		case "QUIT":
			ts.barrier(&tch)
			ts.w.WriteString("BYE\r\n")
			ts.w.Flush()
			return

		default:
			hot = false
		}
		if !hot {
			ts.barrier(&tch)
			if err := p.textFallback(ts, r, line, fields, verb); err != nil {
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

// fatal reports a proxy-side failure mid-command; the client stream can
// no longer be trusted to stay in sync, so the session ends after it.
func (ts *textProxySess) fatal(err error) {
	fmt.Fprintf(ts.w, "ERR proxy: %v\r\n", err)
	ts.w.Flush()
}

// textPutPooled handles a PUT whose line parses onto the binary framing:
// the value block is consumed from the client and the whole store rides
// the pool. Returns done=false (nothing consumed) when the command needs
// the fallback path; a non-nil error kills the session.
func (p *Proxy) textPutPooled(ts *textProxySess, r *bufio.Reader, tch *touched, fields []string) (done bool, err error) {
	if len(fields) != 4 && len(fields) != 6 {
		return false, nil
	}
	if !canPool(fields[1], fields[2]) || len(fields[2]) == 0 {
		return false, nil
	}
	n, perr := strconv.Atoi(fields[3])
	if perr != nil || n < 0 || n > proxyMaxValueLen {
		return false, nil
	}
	var flags uint8
	var ttlMS uint32
	if len(fields) == 6 {
		ms, perr := strconv.ParseUint(fields[5], 10, 32)
		if perr != nil || !strings.EqualFold(fields[4], "EXPIRE") {
			return false, nil
		}
		flags, ttlMS = peerFlagTTL, uint32(ms)
	}
	// The line is pool-shaped: the value block belongs to this command, so
	// consume it here (a short read means the client died mid-value).
	ts.scratch = appendReqFrame(ts.scratch[:0], peerOpPut, flags, ttlMS, fields[1], []byte(fields[2]), nil)
	base := len(ts.scratch)
	ts.scratch = append(ts.scratch, make([]byte, n)...)
	if _, err := io.ReadFull(r, ts.scratch[base:]); err != nil {
		return false, errors.New("short value")
	}
	peerLE.PutUint32(ts.scratch[0:4], uint32(peerReqHdr+len(fields[1])+len(fields[2])+n))
	// Absorb the client's value terminator, tolerating a bare LF.
	if c, err := r.ReadByte(); err == nil && c == '\r' {
		r.ReadByte()
	} else if err == nil && c != '\n' {
		r.UnreadByte()
	}
	pd := pend{s: ts, op: peerOpPut, kind: kPut, seq: ts.allocSeq(), t0: p.now()}
	p.route(tch, pd, p.ring.Owner(fields[1], fields[2]), ts.scratch)
	return true, nil
}

// textMGetPooled fans a well-formed MGET out as per-owner BMGET frames
// and re-merges the coalesced responses in client key order. Returns
// false (fallback) for malformed lines the backend should answer.
func (p *Proxy) textMGetPooled(ts *textProxySess, tch *touched, fields []string) bool {
	if len(fields) < 3 || !canPool(fields[1], "") {
		return false
	}
	k, perr := strconv.Atoi(fields[2])
	if perr != nil || k < 1 || k > proxyMaxBatchKeys || len(fields) != 3+k {
		return false
	}
	tenant, keyFields := fields[1], fields[3:]
	keys := make([][]byte, k)
	byOwner := make(map[string][]int, len(p.members))
	for i, key := range keyFields {
		keys[i] = []byte(key)
		owner := p.ring.Owner(tenant, key)
		byOwner[owner] = append(byOwner[owner], i)
	}
	m := newBMMerge(0, ts.allocSeq(), k, len(byOwner), p.now())
	for addr, idxs := range byOwner {
		ts.scratch = appendBMGetReq(ts.scratch[:0], tenant, keys, idxs)
		p.route(tch, pend{s: ts, m: m, idxs: idxs}, addr, ts.scratch)
	}
	return true
}

// textFallback handles control verbs and malformed lines over per-session
// text connections, exactly as the pre-pool proxy did: the backend
// produces its own usage errors and multi-line relays. Callers have
// already drained the pooled pipeline.
func (p *Proxy) textFallback(ts *textProxySess, r *bufio.Reader, line string, fields []string, verb string) error {
	switch verb {
	case "GET", "DEL", "TOUCH", "EXPIRE":
		if len(fields) < 3 {
			// Malformed: any node produces the right usage error.
			return ts.roundTripTo(p.members[0], line)
		}
		return ts.roundTripTo(p.ring.Owner(fields[1], fields[2]), line)

	case "PUT":
		return p.textPutFallback(ts, r, line, fields)

	case "MGET":
		// Only malformed MGETs reach here; the one-line usage error comes
		// from any node.
		return ts.roundTripTo(p.members[0], line)

	case "TENANT":
		// Registration replicates cluster-wide from whichever node takes
		// it; route by name so retries of one op land on one node. LIST
		// reads any node's registry — they converge — so use the first.
		addr := p.members[0]
		if len(fields) == 3 && (strings.EqualFold(fields[1], "ADD") || strings.EqualFold(fields[1], "DEL")) {
			addr = p.ring.Owner(fields[2], "")
		}
		if len(fields) >= 2 && strings.EqualFold(fields[1], "LIST") {
			b, err := ts.backend(addr)
			if err != nil {
				return err
			}
			b.w.WriteString(line + "\r\n")
			if err := b.w.Flush(); err != nil {
				return err
			}
			return ts.relayUntilEnd(b, nil)
		}
		return ts.roundTripTo(addr, line)

	case "STATS":
		// Per-node counters; the proxy reports the first member's, plus
		// its own pool counters injected before END. The scale suite
		// scrapes each node directly for cluster-wide views.
		b, err := ts.backend(p.members[0])
		if err != nil {
			return err
		}
		b.w.WriteString(line + "\r\n")
		if err := b.w.Flush(); err != nil {
			return err
		}
		return ts.relayUntilEnd(b, func() {
			st := p.Stats()
			fmt.Fprintf(ts.w, "STAT proxy_pool_conns %d\r\n", st.PoolConns)
			fmt.Fprintf(ts.w, "STAT proxy_pipelined_frames %d\r\n", st.PipelinedFrames)
			if st.LatencyCounts != nil {
				fmt.Fprintf(ts.w, "STAT proxy_latency_p50_us %d\r\n", st.LatencyQuantile(0.5).Microseconds())
				fmt.Fprintf(ts.w, "STAT proxy_latency_p99_us %d\r\n", st.LatencyQuantile(0.99).Microseconds())
			}
		})

	default:
		fmt.Fprintf(ts.w, "ERR unknown command %q\r\n", fields[0])
		return nil
	}
}

// roundTripTo forwards one command line and relays the one-line reply.
func (ts *textProxySess) roundTripTo(addr, line string) error {
	b, err := ts.backend(addr)
	if err != nil {
		return err
	}
	b.w.WriteString(line)
	b.w.WriteString("\r\n")
	if err := b.w.Flush(); err != nil {
		return err
	}
	resp, err := readLine(b.r)
	if err != nil {
		return err
	}
	ts.w.WriteString(resp + "\r\n")
	return nil
}

// relayUntilEnd copies response lines to the client until the END
// terminator, invoking inject (when non-nil) just before END so the proxy
// can add its own lines. A leading ERR line is a complete response on its
// own.
func (ts *textProxySess) relayUntilEnd(b *textBackend, inject func()) error {
	for {
		line, err := readLine(b.r)
		if err != nil {
			return err
		}
		if line == "END" && inject != nil {
			inject()
		}
		ts.w.WriteString(line)
		ts.w.WriteString("\r\n")
		if line == "END" || strings.HasPrefix(line, "ERR") {
			return nil
		}
	}
}

// textPutFallback forwards a malformed or un-poolable PUT over the text
// path: the value block belongs to the command, so it is read from the
// client (keeping the client stream in sync even when the command line is
// malformed) and forwarded with the line.
func (p *Proxy) textPutFallback(ts *textProxySess, r *bufio.Reader, line string, fields []string) error {
	if len(fields) < 4 {
		return ts.roundTripTo(p.members[0], line)
	}
	n, perr := strconv.Atoi(fields[3])
	if perr != nil || n < 0 {
		// No value block can follow an unparseable length; the backend
		// answers the same ERR without one.
		return ts.roundTripTo(p.members[0], line)
	}
	if n > proxyMaxBody {
		return fmt.Errorf("value length %d exceeds proxy maximum", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return errors.New("short value")
	}
	// Absorb the client's value terminator, tolerating a bare LF.
	if c, err := r.ReadByte(); err == nil && c == '\r' {
		r.ReadByte()
	} else if err == nil && c != '\n' {
		r.UnreadByte()
	}
	addr := p.members[0]
	if len(fields) >= 3 {
		addr = p.ring.Owner(fields[1], fields[2])
	}
	b, err := ts.backend(addr)
	if err != nil {
		return err
	}
	b.w.WriteString(line)
	b.w.WriteString("\r\n")
	b.w.Write(body)
	b.w.WriteString("\r\n")
	// A node refuses an oversized value from the command line alone and
	// closes, so the write of the block can fail while the node's ERR is
	// already readable: the write error counts only when no reply arrived.
	werr := b.w.Flush()
	resp, err := readLine(b.r)
	if err != nil {
		if werr != nil {
			return werr
		}
		return err
	}
	if werr != nil {
		b.conn.Close()
		delete(ts.backends, addr)
	}
	ts.w.WriteString(resp + "\r\n")
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
	w   *bufio.Writer

	// outstanding counts client frames still owed a response; the writer
	// flushes when it drains (the batch boundary) or on the high-water
	// mark.
	outstanding atomic.Int64
}

// deliver writes one pooled backend response (or merged BMGET) back to
// the client. Called from pool reader goroutines.
func (bs *binProxySess) deliver(pd pend, status uint8, payload []byte) {
	if pd.m != nil {
		m := pd.m
		if !m.absorb(pd, status, payload) {
			return
		}
		bs.p.record(m.t0)
		if msg := m.errMsg.Load(); msg != nil {
			bs.writeFrame(peerStErr, peerOpBMGet, m.id, []byte(*msg))
			return
		}
		bs.writeFrame(peerStOK, peerOpBMGet, m.id, appendBMGetMerged(nil, m))
		return
	}
	bs.writeFrame(status, pd.op, pd.id, payload)
}

func (bs *binProxySess) writeFrame(status, op uint8, id uint32, payload []byte) {
	var h [4 + peerRespHdr]byte
	peerLE.PutUint32(h[0:4], uint32(peerRespHdr+len(payload)))
	h[4] = status
	h[5] = op
	peerLE.PutUint32(h[8:12], id)
	bs.wmu.Lock()
	bs.w.Write(h[:])
	bs.w.Write(payload)
	left := bs.outstanding.Add(-1)
	if left <= 0 || bs.w.Buffered() >= proxyFlushHi {
		if bs.w.Flush() != nil {
			bs.conn.Close() // the session's read loop sees the close
		}
	}
	bs.wmu.Unlock()
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

	bs := &binProxySess{p: p, conn: conn, w: bufio.NewWriterSize(conn, 64<<10)}
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
		tenant := string(frame[4+peerReqHdr : 4+peerReqHdr+tl])

		bs.outstanding.Add(1)
		switch op {
		case peerOpPing:
			// Answered locally: PING probes the proxy's own liveness.
			bs.writeFrame(peerStOK, op, id, nil)
		case peerOpBMGet:
			if !p.binBMGet(bs, &tch, frame, tenant, id, kl) {
				return
			}
		case peerOpTenantAdd, peerOpTenantDel, peerOpRegOp:
			p.route(&tch, pend{s: bs, id: id, op: op, t0: p.now()}, p.ring.Owner(tenant, ""), frame)
		case peerOpRegPull:
			p.route(&tch, pend{s: bs, id: id, op: op, t0: p.now()}, p.members[0], frame)
		case peerOpGet, peerOpPut, peerOpDel, peerOpTouch, peerOpRehome:
			if peerReqHdr+tl+kl > n {
				return
			}
			key := string(frame[4+peerReqHdr+tl : 4+peerReqHdr+tl+kl])
			p.route(&tch, pend{s: bs, id: id, op: op, t0: p.now()}, p.ring.Owner(tenant, key), frame)
		default:
			return // unknown opcode: the stream can't be trusted
		}
		if r.Buffered() == 0 {
			tch.flush()
		}
	}
}

// binBMGet validates and routes one BMGET frame: a single-owner batch
// forwards verbatim; a multi-owner batch splits into per-owner sub-frames
// whose responses re-merge into one coalesced frame. Semantic failures
// answer the same frame-level ERRs a node would; framing violations
// return false and close the client, mirroring node behavior.
func (p *Proxy) binBMGet(bs *binProxySess, tch *touched, frame []byte, tenant string, id uint32, count int) bool {
	// No flags or TTL semantics are defined for BMGET in v1.
	if frame[5] != 0 || peerLE.Uint32(frame[12:16]) != 0 {
		return false
	}
	body := frame[4+peerReqHdr+len(tenant):]
	keys := make([][]byte, 0, count)
	badKey := false
	for i := 0; i < count; i++ {
		if len(body) < 2 {
			return false
		}
		kl := int(peerLE.Uint16(body))
		body = body[2:]
		if len(body) < kl {
			return false
		}
		if kl == 0 || kl > proxyMaxKeyLen {
			badKey = true
		}
		keys = append(keys, body[:kl])
		body = body[kl:]
	}
	if len(body) != 0 {
		return false // the key list must tile the body exactly
	}
	// Semantic validation mirrors the node's: the proxy must answer these
	// itself because a split batch would otherwise slip past the node's
	// whole-frame limits (and an empty batch has no owner to route to).
	switch {
	case count == 0:
		bs.writeFrame(peerStErr, peerOpBMGet, id, []byte("empty key list"))
		return true
	case count > proxyMaxBatchKeys:
		bs.writeFrame(peerStErr, peerOpBMGet, id, []byte("too many keys"))
		return true
	case badKey:
		bs.writeFrame(peerStErr, peerOpBMGet, id, []byte("bad key length"))
		return true
	}
	byOwner := make(map[string][]int, len(p.members))
	for i, key := range keys {
		owner := p.ring.Owner(tenant, string(key))
		byOwner[owner] = append(byOwner[owner], i)
	}
	if len(byOwner) == 1 {
		// One owner serves the whole batch: forward the frame verbatim.
		for addr := range byOwner {
			p.route(tch, pend{s: bs, id: id, op: peerOpBMGet, t0: p.now()}, addr, frame)
		}
		return true
	}
	m := newBMMerge(id, 0, count, len(byOwner), p.now())
	var sub []byte
	for addr, idxs := range byOwner {
		sub = appendBMGetReq(sub[:0], tenant, keys, idxs)
		p.route(tch, pend{s: bs, m: m, idxs: idxs}, addr, sub)
	}
	return true
}
