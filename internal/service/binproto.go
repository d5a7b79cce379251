// The vantaged binary wire protocol: length-prefixed, versioned framing
// negotiated on a connection's first bytes, sharing the listener (and the
// Service) with the CRLF text protocol.
//
// # Negotiation
//
// A binary client opens with the 4-byte preamble
//
//	0x83 'V' 'B' <version>
//
// and the server answers with the same 4 bytes carrying *its* version. The
// magic byte 0x83 has the high bit set, so it can never begin a text verb
// (the text protocol is 7-bit ASCII); conversely no binary preamble parses
// as a command line, so one Peek of the first byte routes the connection
// with zero ambiguity and zero cost to text clients. On a version mismatch
// the server still answers (telling the client what it speaks) and closes.
// A server at its connection cap answers "BUSY\r\n" before negotiation,
// which a binary client recognizes by its non-magic first byte.
//
// # Frames
//
// Every frame is a little-endian u32 length followed by that many bytes.
// Request frames (client -> server) after the length:
//
//	off 0  opcode  u8   GET=1 PUT=2 DEL=3 TOUCH=4 PING=5 TENANT_ADD=6
//	                    TENANT_DEL=7 REG_OP=8 REG_PULL=9 REHOME=10 BMGET=11
//	off 1  flags   u8   bit0 (PUT/REHOME): explicit TTL — ttl_ms is
//	                    authoritative, 0 meaning "never expire"; unset:
//	                    service default TTL (REHOME: never expire).
//	                    bit0 (REG_OP): add (set) vs remove (clear)
//	off 2  tlen    u8   tenant-name length
//	off 3  rsvd    u8   must be 0
//	off 4  id      u32  client-chosen, echoed verbatim in the response
//	off 8  ttl_ms  u32  PUT (with flag) / TOUCH TTL in milliseconds
//	off 12 klen    u16  key length
//	off 14 rsvd    u16  must be 0
//	off 16 tenant[tlen] key[klen] value[rest]   (value: PUT only)
//
// Response frames (server -> client) after the length:
//
//	off 0  status  u8   OK=0 MISS=1 ERR=2 SHED=3
//	off 1  opcode  u8   echo of the request opcode
//	off 2  rsvd    u16
//	off 4  id      u32  echo of the request id
//	off 8  payload      GET hit: value; TENANT_ADD: u32 partition;
//	                    REG_OP: u64 local registry version; REG_PULL:
//	                    u64 version, u32 count, count x (u8 len, name);
//	                    BMGET: see below; ERR: message text
//
// # BMGET
//
// BMGET (opcode 11) reads N keys of one tenant in one frame. The request
// reuses the fixed header with klen carrying the KEY COUNT (not a byte
// length); flags and ttl_ms must be zero. The body after the tenant name is
// count x (u16 keylen, key bytes), tiling the frame exactly — a truncated
// or overrun key list is a framing violation and closes the connection,
// while an empty list, a count over the batch cap, an unknown tenant or a
// bad key length answer a frame-level ERR and the stream continues. The
// response is one coalesced frame whose OK payload is
//
//	u16 count, count x (u8 status, u32 vlen, value bytes)
//
// in request key order, with per-key status OK (value follows), MISS or
// SHED (vlen 0). The frame-level status is ERR only when the whole batch
// failed (validation, unknown tenant, injected fault); per-key SHED covers
// ring overflow and in-flight shedding of the shard sub-batches, so one
// overloaded shard degrades its keys without failing the rest.
//
// # Cluster frames
//
// REG_OP replicates one tenant registry mutation between peers: the tenant
// field carries the name, flag bit0 picks add vs remove, and the value
// payload is exactly 8 bytes — the origin's registry version as a
// little-endian u64 (klen must be 0). The receiver applies the mutation and
// max-merges the version (service.ApplyRegistryOp), answering OK with its
// own version. REG_PULL (no tenant, no key, no value) returns the
// receiver's full registry snapshot for bootstrap. REHOME is a PUT-shaped
// internal transfer used during key re-homing on membership changes: same
// fields as PUT, but the TTL flag semantics preserve "never expires" (no
// flag means no expiry, never the receiver's default TTL) and the receiver
// counts it in cluster_rehomed_in_keys instead of tenant PUT accounting
// pressure on dashboards. All three are ordinary frames: framing
// violations close the connection, semantic errors answer ERR and the
// stream continues.
//
// Responses to one connection may be written out of order relative to
// other connections' requests but in practice arrive in request order per
// connection (one MPSC ring per shard preserves per-shard FIFO); clients
// must match on id regardless. Violating the framing itself (bad length,
// bad reserved bytes, unknown opcode) closes the connection — unlike a
// semantic error, a framing error means the byte stream can no longer be
// trusted. Semantic errors (unknown tenant, oversized key) answer ERR on
// the offending id and the stream continues: the length prefix means an
// error can never desync later frames, which is the property the text
// protocol's PUT-drain bugs had to hand-craft.
//
// # Concurrency model
//
// Binary connections do not get a goroutine each. On Linux a single
// event-loop goroutine (binpoll_linux.go) multiplexes every binary
// connection through epoll, decoding frames straight out of one shared
// read buffer; elsewhere (and for non-TCP listeners or when the poller
// cannot start) a portable goroutine-per-connection reader does the same
// decoding. Either way, decoded requests are resolved once (tenant,
// address, shard route) and pushed onto the target shard's bounded MPSC
// ring (binring.go) — the UMON deferred-ring idiom generalized to whole
// requests — where one worker goroutine per shard executes them against
// the resolved fast paths (getAt/putAt/deleteAt/touchAt) with zero lock
// handoffs between shards. A full ring sheds the request (SHED status)
// instead of blocking the event loop: the same degrade-don't-collapse
// discipline as the text path's in-flight limits, which the workers also
// enforce (per-tenant immediate shed, global backpressure wait).
//
// Responses are coalesced writev-style: workers append frames to a
// per-connection output buffer and flush only when the connection's
// dispatched-frame count drains to zero or the buffer passes a high-water
// mark, so a pipelined batch of K requests costs one write syscall, and
// interleaved batches from many connections cost few: within one ring
// drain the worker defers every flush decision to a single end-of-batch
// scatter-gather pass over the connections it touched (binGather).
package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/hash"
)

const (
	// binMagic opens the negotiation preamble. >= 0x80 so it can never
	// start a text-protocol verb.
	binMagic   = 0x83
	binVersion = 1

	// binReqHdr and binRespHdr are the fixed header sizes after the u32
	// length prefix.
	binReqHdr  = 16
	binRespHdr = 8

	// binMaxFrame bounds one request frame: header + max tenant (u8) +
	// max key + max value. Anything larger is a framing violation.
	binMaxFrame = binReqHdr + 255 + maxKeyLen + maxValueLen

	// binFlushHi flushes a connection's output buffer early when coalesced
	// responses pass this size, bounding memory and syscall payload alike.
	binFlushHi = 64 << 10

	// binFlagTTL marks a PUT whose ttl_ms field is authoritative.
	binFlagTTL = 1 << 0

	// binEnqFlush caps how many resolved requests a connection batches
	// before handing runs to the shard rings mid-read, bounding both the
	// transport's buffered work and the first frame's queue delay when a
	// single read carries a very deep pipeline.
	binEnqFlush = 64
)

// Request opcodes and response statuses.
const (
	binOpGet       = 1
	binOpPut       = 2
	binOpDel       = 3
	binOpTouch     = 4
	binOpPing      = 5
	binOpTenantAdd = 6
	binOpTenantDel = 7
	binOpRegOp     = 8
	binOpRegPull   = 9
	binOpRehome    = 10
	binOpBMGet     = 11

	binStOK   = 0
	binStMiss = 1
	binStErr  = 2
	binStShed = 3
)

// binFlagRegAdd distinguishes add from remove on a REG_OP frame.
const binFlagRegAdd = 1 << 0

var binLE = binary.LittleEndian

// errBadFrame marks a framing violation; the connection closes because the
// stream can no longer be trusted.
var errBadFrame = errors.New("binary framing violation")

// errPollerDown reports that the event-loop poller declined a connection
// (stopping, or platform without one); the caller falls back to the
// portable goroutine transport.
var errPollerDown = errors.New("binary poller unavailable")

// binConn is one negotiated binary connection. Exactly one transport owns
// it: nc (portable goroutine reader) or f/fd (the event-loop poller).
type binConn struct {
	srv *Server

	nc net.Conn // goroutine transport; nil under the poller

	// Poller transport state. f owns the dup'd fd; registered and wantW
	// are guarded by wmu; lastActive is poller-thread-private.
	f          *os.File
	fd         int
	registered bool
	wantW      bool
	wantWSince atomic.Int64 // unix ns the current EPOLLOUT wait began; 0 = none
	lastActive int64        // unix ns of the last completed frame

	wmu sync.Mutex
	out []byte    // coalesced, unflushed response frames
	wwd *watchdog // goroutine-transport write watchdog, nil otherwise

	pending atomic.Int64 // dispatched frames whose responses are unwritten
	dying   atomic.Bool  // close requested; suppresses further writes
	closed  atomic.Bool  // transport released (fd/conn closed)

	in []byte // partial-frame carry between reads

	// Per-shard enqueue runs, transport-thread-private: binDispatch batches
	// resolved data ops here and binFeed hands each shard its run with one
	// pushBatch, so a pipelined read pays one ring lock+wake per shard
	// touched instead of per frame. Always drained before binFeed returns.
	enqBy [][]*binReq
	enqN  int

	// bmShard is transport-thread scratch for BMGET dispatch: the one
	// sub-request per shard the current frame is accumulating into.
	bmShard []*binReq
}

// abort requests the connection's demise from a worker context: the
// goroutine transport closes the net.Conn directly (its reader unblocks
// and finishes the bookkeeping); the poller transport queues the close so
// only the poller thread ever releases an fd (a worker closing it directly
// could race a kernel fd reuse into the poller's read path).
func (c *binConn) abort() {
	if c.dying.Swap(true) {
		return
	}
	if c.nc != nil {
		c.nc.Close()
		return
	}
	c.pollerRequestClose()
}

// handleBinary completes the negotiation for a connection whose first byte
// was binMagic and hands it to a binary transport. The pooled text reader
// is returned to its pool either way; bytes a client pipelined behind the
// preamble are carried into the transport.
func (s *Server) handleBinary(conn net.Conn, r *bufio.Reader, rwd *watchdog) {
	drop := func(timeout bool) {
		if timeout {
			s.svc.deadlineCloses.Add(1)
		}
		if rwd != nil {
			rwd.disarm()
		}
		r.Reset(nil)
		readerPool.Put(r)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		drop(isTimeout(err))
		return
	}
	if pre[1] != 'V' || pre[2] != 'B' {
		drop(false)
		return
	}
	// The ack always carries the server's version: a mismatched client
	// learns what the server speaks before the close.
	ack := [4]byte{binMagic, 'V', 'B', binVersion}
	if _, err := conn.Write(ack[:]); err != nil || pre[3] != binVersion {
		drop(false)
		return
	}
	s.binOnce.Do(s.binStart)
	s.svc.binConnsTotal.Add(1)
	s.svc.binConns.Add(1)
	var leftover []byte
	if n := r.Buffered(); n > 0 {
		peek, _ := r.Peek(n)
		leftover = append(leftover, peek...)
	}
	if rwd != nil {
		rwd.disarm()
	}
	// A watchdog that fired during the handshake may have poisoned the
	// read deadline; the binary transports manage their own windows.
	conn.SetReadDeadline(time.Time{})
	r.Reset(nil)
	readerPool.Put(r)
	s.binAttach(conn, leftover)
}

// binAttach hands a negotiated connection to the best available transport:
// the event-loop poller for TCP connections where one exists, else the
// portable goroutine reader.
func (s *Server) binAttach(conn net.Conn, leftover []byte) {
	c := &binConn{srv: s}
	if tc, ok := conn.(*net.TCPConn); ok && !s.binNoPoll {
		if p := s.binPoller(); p != nil {
			if p.attach(tc, c, leftover) == nil {
				return
			}
		}
	}
	c.nc = conn
	s.wg.Add(1)
	go s.binServeConn(c, leftover)
}

// binPoller returns the lazily created event-loop poller, or nil when the
// platform (or the kernel) does not provide one.
func (s *Server) binPoller() *binPoller {
	if p := s.binPoll.Load(); p != nil {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.binPoll.Load(); p != nil {
		return p
	}
	if s.closed.Load() {
		return nil
	}
	p := newBinPoller(s)
	if p == nil {
		return nil
	}
	s.binPoll.Store(p)
	return p
}

// binServeConn is the portable binary transport: one goroutine reads and
// decodes frames into the shard rings; workers write responses directly to
// the connection. Used where the poller is unavailable, for non-TCP
// listeners (unix sockets, in-memory pipes), and — via the binNoPoll test
// seam — to exercise this path on platforms that have a poller.
func (s *Server) binServeConn(c *binConn, leftover []byte) {
	defer s.wg.Done()
	conn := c.nc
	if s.cfg.WriteTimeout > 0 {
		c.wwd = newWatchdog(s.svc.clk, conn.SetWriteDeadline)
	}
	var rwd *watchdog
	if s.cfg.IdleTimeout > 0 {
		rwd = newWatchdog(s.svc.clk, conn.SetReadDeadline)
	}
	defer func() {
		c.dying.Store(true)
		c.wmu.Lock()
		c.closed.Store(true)
		c.wmu.Unlock()
		conn.Close()
		if rwd != nil {
			rwd.disarm()
		}
		if c.wwd != nil {
			c.wwd.disarm()
		}
		s.svc.binConns.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if len(leftover) > 0 {
		if _, err := s.binFeed(c, leftover); err != nil {
			return
		}
	}
	buf := make([]byte, 32<<10)
	armed := false
	for {
		if rwd != nil && !armed {
			// Absolute window per frame — the binary analogue of the text
			// protocol's per-command-line idle window. Re-armed only after
			// progress (a completed frame), so a dribbling client cannot
			// keep the connection alive.
			rwd.arm(s.cfg.IdleTimeout)
			armed = true
		}
		n, err := conn.Read(buf)
		if n > 0 {
			frames, ferr := s.binFeed(c, buf[:n])
			if ferr != nil {
				return
			}
			if frames > 0 {
				armed = false
			}
		}
		if err != nil {
			if isTimeout(err) {
				s.svc.deadlineCloses.Add(1)
			}
			return
		}
	}
}

// binFeed consumes a chunk of stream bytes, dispatching every complete
// frame and carrying any partial tail to the next call. It returns the
// number of frames dispatched; a non-nil error is a framing violation and
// the caller must close the connection.
func (s *Server) binFeed(c *binConn, data []byte) (int, error) {
	b := data
	if len(c.in) > 0 {
		c.in = append(c.in, data...)
		b = c.in
	}
	frames := 0
	for {
		if len(b) < 4 {
			break
		}
		n := int(binLE.Uint32(b))
		if n < binReqHdr || n > binMaxFrame {
			s.binFlushEnq(c)
			return frames, errBadFrame
		}
		if len(b) < 4+n {
			break
		}
		if err := s.binDispatch(c, b[4:4+n]); err != nil {
			// Frames decoded before the violation were valid; hand them to
			// their shards before the caller tears the connection down.
			s.binFlushEnq(c)
			return frames, err
		}
		frames++
		b = b[4+n:]
	}
	s.binFlushEnq(c)
	if len(b) > 0 || len(c.in) > 0 {
		// copy() under append handles the overlapping self-move when b
		// still aliases c.in.
		c.in = append(c.in[:0], b...)
	}
	if len(c.in) == 0 && cap(c.in) > binFlushHi {
		c.in = nil // don't let one huge PUT pin a large carry buffer
	}
	return frames, nil
}

// binDispatch validates one request frame and routes it: PING and
// TENANT_ADD answer inline (no shard state), data ops resolve the tenant
// and line address once and enqueue on the owning shard's ring. The frame
// bytes alias the read buffer and are copied into the pooled request
// before this returns.
func (s *Server) binDispatch(c *binConn, f []byte) error {
	op := f[0]
	flags := f[1]
	tl := int(f[2])
	id := binLE.Uint32(f[4:8])
	ttlMS := binLE.Uint32(f[8:12])
	kl := int(binLE.Uint16(f[12:14]))
	if f[3] != 0 || f[14] != 0 || f[15] != 0 {
		return errBadFrame // reserved bytes must be zero in v1
	}
	if binReqHdr+tl+kl > len(f) {
		return errBadFrame
	}
	tenant := f[binReqHdr : binReqHdr+tl]
	key := f[binReqHdr+tl : binReqHdr+tl+kl]
	val := f[binReqHdr+tl+kl:]
	s.svc.binFrames.Add(1)
	switch op {
	case binOpPing:
		s.binRespond(c, binStOK, op, id, nil, false)
		return nil
	case binOpTenantAdd:
		// AddTenant replicates to every peer synchronously, so it must
		// never run on the poller loop: two nodes adding tenants
		// concurrently would each block their loop on the other's RegOp
		// reply — which the other loop, equally blocked, can never write —
		// until the peer timeout breaks the cycle. The op takes a pending
		// slot and answers out of band exactly like a shard op; a client
		// pipelining data frames behind an unacknowledged TENANT_ADD may
		// see "unknown tenant" for them, which is why every client in this
		// repo awaits the add's ack before sending data.
		name := string(tenant)
		c.pending.Add(1)
		go func() {
			part, err := s.svc.AddTenant(name)
			if err != nil {
				s.binRespondErr(c, op, id, err.Error(), true)
				return
			}
			var p [4]byte
			binLE.PutUint32(p[:], uint32(part))
			s.binRespond(c, binStOK, op, id, p[:], true)
		}()
		return nil
	case binOpTenantDel:
		if flags != 0 {
			return errBadFrame
		}
		// Same broadcast, same poller-deadlock hazard as TENANT_ADD.
		name := string(tenant)
		c.pending.Add(1)
		go func() {
			if err := s.svc.RemoveTenant(name); err != nil {
				s.binRespondErr(c, op, id, err.Error(), true)
				return
			}
			s.binRespond(c, binStOK, op, id, nil, true)
		}()
		return nil
	case binOpRegOp:
		if flags&^byte(binFlagRegAdd) != 0 {
			return errBadFrame
		}
		if kl != 0 || len(val) != 8 {
			s.binRespondErr(c, op, id, "bad registry frame", false)
			return nil
		}
		ver, err := s.svc.ApplyRegistryOp(binLE.Uint64(val), flags&binFlagRegAdd != 0, string(tenant))
		if err != nil {
			s.binRespondErr(c, op, id, err.Error(), false)
			return nil
		}
		var p [8]byte
		binLE.PutUint64(p[:], ver)
		s.binRespond(c, binStOK, op, id, p[:], false)
		return nil
	case binOpRegPull:
		if flags != 0 {
			return errBadFrame
		}
		if tl != 0 || kl != 0 || len(val) != 0 {
			s.binRespondErr(c, op, id, "bad registry pull", false)
			return nil
		}
		ver, names := s.svc.RegistrySnapshot()
		p := make([]byte, 12, 12+16*len(names))
		binLE.PutUint64(p[0:8], ver)
		binLE.PutUint32(p[8:12], uint32(len(names)))
		for _, n := range names {
			p = append(p, byte(len(n)))
			p = append(p, n...)
		}
		s.binRespond(c, binStOK, op, id, p, false)
		return nil
	case binOpBMGet:
		return s.binDispatchBMGet(c, f, flags, id, ttlMS, tl, kl)
	case binOpGet, binOpPut, binOpDel, binOpTouch, binOpRehome:
	default:
		return errBadFrame
	}
	if flags&^byte(binFlagTTL) != 0 {
		return errBadFrame
	}
	if kl == 0 || kl > maxKeyLen {
		s.binRespondErr(c, op, id, "bad key length", false)
		return nil
	}
	if op != binOpPut && op != binOpRehome && len(val) != 0 {
		s.binRespondErr(c, op, id, "unexpected value payload", false)
		return nil
	}
	if len(val) > maxValueLen {
		s.binRespondErr(c, op, id, "value too long", false)
		return nil
	}
	t := s.svc.reg.Load().tenants[string(tenant)]
	if t == nil {
		s.binRespondErr(c, op, id, "unknown tenant", false)
		return nil
	}
	q := binReqPool.Get().(*binReq)
	addr := addrOfB(t.part, key)
	q.c, q.op, q.id, q.t = c, op, id, t
	q.addr, q.mixed = addr, hash.Mix64(addr)
	q.ttlMS = ttlMS
	q.hasTTL = flags&binFlagTTL != 0
	q.key = append(q.key[:0], key...)
	q.val = append(q.val[:0], val...)
	si := int(s.svc.route.Hash(q.mixed) & s.svc.mask)
	if c.enqBy == nil {
		c.enqBy = make([][]*binReq, len(s.binRings))
	}
	c.enqBy[si] = append(c.enqBy[si], q)
	if c.enqN++; c.enqN >= binEnqFlush {
		s.binFlushEnq(c)
	}
	return nil
}

// binDispatchBMGet validates one BMGET frame and fans its keys out to the
// owning shards as at most one pooled sub-request per shard, all sharing
// one binBatch that re-merges per-key results into a single coalesced
// response frame. The whole batch holds exactly one pending slot on the
// connection — it produces exactly one response frame. count arrives in
// the header's klen field; the key list must tile the body exactly.
func (s *Server) binDispatchBMGet(c *binConn, f []byte, flags uint8, id, ttlMS uint32, tl, count int) error {
	if flags != 0 || ttlMS != 0 {
		return errBadFrame // no flags or TTL semantics are defined for BMGET in v1
	}
	tenant := f[binReqHdr : binReqHdr+tl]
	list := f[binReqHdr+tl:]
	// Structural pass: the declared count of (u16 len, key) entries must
	// consume the body exactly. Truncation or trailing bytes mean the
	// stream can no longer be trusted; key-length violations are semantic.
	rest := list
	badKey := false
	for i := 0; i < count; i++ {
		if len(rest) < 2 {
			return errBadFrame
		}
		kl := int(binLE.Uint16(rest))
		if len(rest) < 2+kl {
			return errBadFrame
		}
		if kl == 0 || kl > maxKeyLen {
			badKey = true
		}
		rest = rest[2+kl:]
	}
	if len(rest) != 0 {
		return errBadFrame
	}
	switch {
	case count == 0:
		s.binRespondErr(c, binOpBMGet, id, "empty key list", false)
		return nil
	case count > maxBatchKeys:
		s.binRespondErr(c, binOpBMGet, id, "too many keys", false)
		return nil
	case badKey:
		s.binRespondErr(c, binOpBMGet, id, "bad key length", false)
		return nil
	}
	t := s.svc.reg.Load().tenants[string(tenant)]
	if t == nil {
		s.binRespondErr(c, binOpBMGet, id, "unknown tenant", false)
		return nil
	}
	s.svc.bmgetKeys.Add(uint64(count))
	b := newBinBatch(c, id, count)
	if c.enqBy == nil {
		c.enqBy = make([][]*binReq, len(s.binRings))
	}
	if cap(c.bmShard) < len(s.binRings) {
		c.bmShard = make([]*binReq, len(s.binRings))
	}
	reqs := c.bmShard[:len(s.binRings)]
	for i := range reqs {
		reqs[i] = nil
	}
	for i := 0; i < count; i++ {
		kl := int(binLE.Uint16(list))
		key := list[2 : 2+kl]
		list = list[2+kl:]
		addr := addrOfB(t.part, key)
		mixed := hash.Mix64(addr)
		si := int(s.svc.route.Hash(mixed) & s.svc.mask)
		q := reqs[si]
		if q == nil {
			q = binReqPool.Get().(*binReq)
			q.c, q.op, q.id, q.t = c, binOpBMGet, id, t
			q.batch = b
			q.bk = q.bk[:0]
			q.kbuf = q.kbuf[:0]
			reqs[si] = q
			c.enqBy[si] = append(c.enqBy[si], q)
			c.enqN++
		}
		off := int32(len(q.kbuf))
		q.kbuf = append(q.kbuf, key...)
		q.bk = append(q.bk, binBKey{addr: addr, mixed: mixed, off: off, ln: int32(kl), idx: int32(i)})
	}
	c.pending.Add(1)
	if c.enqN >= binEnqFlush {
		s.binFlushEnq(c)
	}
	return nil
}

// binFlushEnq hands the connection's accumulated per-shard runs to their
// rings, one pushBatch (one lock, one wake) per shard touched. Requests a
// full ring cannot accept are shed here with the same counters as an
// in-flight shed, so dashboards see one overload signal. Transport-thread
// context only.
func (s *Server) binFlushEnq(c *binConn) {
	if c.enqN == 0 {
		return
	}
	for si, qs := range c.enqBy {
		if len(qs) == 0 {
			continue
		}
		// BMGET sub-requests don't hold pending slots of their own: the
		// batch claimed its single slot at dispatch (one response frame).
		pend := int64(0)
		for _, q := range qs {
			if q.batch == nil {
				pend++
			}
		}
		if pend > 0 {
			c.pending.Add(pend)
		}
		n := s.binRings[si].pushBatch(qs)
		for _, q := range qs[n:] {
			q.t.shed.Add(1)
			s.svc.requestsShed.Add(1)
			if b := q.batch; b != nil {
				for _, bk := range q.bk {
					b.sts[bk.idx] = binStShed
				}
				done := len(q.bk)
				q.recycle()
				s.binBatchDone(b, done, nil)
				continue
			}
			op, id := q.op, q.id
			q.recycle()
			s.binRespond(c, binStShed, op, id, nil, true)
		}
		for i := range qs {
			qs[i] = nil
		}
		if cap(qs) > binEnqFlush*4 {
			c.enqBy[si] = nil
		} else {
			c.enqBy[si] = qs[:0]
		}
	}
	c.enqN = 0
}

// binRespond encodes one response frame onto c's output buffer and
// flushes when the connection's batch drains (pending hits zero) or the
// buffer passes the high-water mark. dec is true when this response
// retires a dispatched data frame (PING/TENANT_ADD answer inline and never
// took a pending slot).
func (s *Server) binRespond(c *binConn, status, op uint8, id uint32, payload []byte, dec bool) {
	s.binRespondG(c, status, op, id, payload, dec, nil)
}

// binRespondG is binRespond with an optional scatter-gather context: when
// g is non-nil (shard-worker context) the flush decision is deferred to
// the worker's end-of-batch binGatherFlush pass, so responses to many
// connections executed in one popBatch run are written back-to-back in one
// pass instead of deciding (and often syscalling) per response. The
// high-water mark still flushes inline to bound buffered memory.
func (s *Server) binRespondG(c *binConn, status, op uint8, id uint32, payload []byte, dec bool, g *binGather) {
	if binRespLock(c, dec) {
		c.out = appendBinResp(c.out, status, op, id, payload)
		s.binRespUnlock(c, dec, g)
	}
}

// binRespLock takes c.wmu for appending one response to c.out. It reports
// false, with the lock released and the pending slot (dec) retired, when
// the connection is going away and the response is dropped.
func binRespLock(c *binConn, dec bool) bool {
	c.wmu.Lock()
	if c.dying.Load() || c.closed.Load() {
		c.wmu.Unlock()
		if dec {
			c.pending.Add(-1)
		}
		return false
	}
	return true
}

// binRespUnlock ends what binRespLock began once the frame is in c.out:
// it retires the pending slot, makes the flush decision and releases c.wmu.
func (s *Server) binRespUnlock(c *binConn, dec bool, g *binGather) {
	var left int64
	if dec {
		left = c.pending.Add(-1)
	} else {
		left = c.pending.Load()
	}
	if g != nil {
		if len(c.out) >= binFlushHi {
			s.binFlushLocked(c)
		}
		c.wmu.Unlock()
		g.add(c)
		return
	}
	if left == 0 || len(c.out) >= binFlushHi {
		s.binFlushLocked(c)
	}
	c.wmu.Unlock()
}

func (s *Server) binRespondErr(c *binConn, op uint8, id uint32, msg string, dec bool) {
	s.binRespond(c, binStErr, op, id, []byte(msg), dec)
}

// binGather is a shard worker's per-popBatch set of touched connections.
// Deferring the flush decision to one end-of-batch pass is the
// cross-connection scatter-gather: K coalesced responses to M connections
// cost at most M writes issued consecutively, not K flush checks each
// potentially paying its own syscall.
type binGather struct {
	conns []*binConn
}

// add records a touched connection (deduplicated; M is small).
func (g *binGather) add(c *binConn) {
	for _, e := range g.conns {
		if e == c {
			return
		}
	}
	g.conns = append(g.conns, c)
}

// binGatherFlush writes every gathered connection whose dispatched frames
// have drained. A connection still owing responses keeps its buffer: the
// worker that appends its last response gathers it again and this pass on
// that worker flushes it, so no frame is ever stranded.
func (s *Server) binGatherFlush(g *binGather) {
	for i, c := range g.conns {
		g.conns[i] = nil
		c.wmu.Lock()
		if len(c.out) > 0 && c.pending.Load() == 0 && !c.dying.Load() && !c.closed.Load() {
			s.binFlushLocked(c)
		}
		c.wmu.Unlock()
	}
	g.conns = g.conns[:0]
}

// binFlushLocked writes c's buffered responses. Caller holds c.wmu.
func (s *Server) binFlushLocked(c *binConn) {
	if len(c.out) == 0 {
		return
	}
	if c.nc == nil {
		c.pollerFlushLocked()
		return
	}
	if c.wwd != nil {
		c.wwd.arm(s.cfg.WriteTimeout)
	}
	_, err := c.nc.Write(c.out)
	if c.wwd != nil {
		c.wwd.disarm()
	}
	c.out = c.out[:0]
	if cap(c.out) > 1<<20 {
		c.out = nil
	}
	if err != nil {
		if isTimeout(err) {
			s.svc.deadlineCloses.Add(1)
		}
		c.dying.Store(true)
		c.nc.Close()
	}
}

// appendBinRespHdr appends the length prefix and header of a response
// frame whose payload is n bytes.
func appendBinRespHdr(dst []byte, status, op uint8, id uint32, n int) []byte {
	dst = binLE.AppendUint32(dst, uint32(binRespHdr+n))
	dst = append(dst, status, op, 0, 0)
	return binLE.AppendUint32(dst, id)
}

// appendBinResp appends one encoded response frame to dst.
func appendBinResp(dst []byte, status, op uint8, id uint32, payload []byte) []byte {
	return append(appendBinRespHdr(dst, status, op, id, len(payload)), payload...)
}
