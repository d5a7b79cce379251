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
// failed (validation, unknown tenant, injected fault); a frame refused by
// the in-flight limits answers OK with every key SHED, so a client handles
// overload per key in one shape.
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
// This server answers a connection's frames in request order; clients
// match on id regardless, which is what lets a proxy pipeline many
// clients' frames over one backend connection. Violating the framing itself
// (bad length, bad reserved bytes, unknown opcode) closes the connection —
// unlike a semantic error, a framing error means the byte stream can no
// longer be trusted. Semantic errors (unknown tenant, oversized key) answer
// ERR on the offending id and the stream continues: the length prefix means
// an error can never desync later frames, which is the property the text
// protocol's PUT-drain bugs had to hand-craft.
//
// # Concurrency model
//
// A binary connection is served like a text one: by its own goroutine,
// which decodes each data frame into a request and executes it at once
// through the admission path both codecs share (request.go: tenant, one
// fault draw, drop, in-flight reservation, delay, injected error, then the
// resolved fast path under the owning shard's mutex), with key and value
// read straight out of the connection's read buffer. This file only
// validates frames and renders verdicts. Registry frames (TENANT_ADD/DEL, which replicate to peers synchronously)
// block only their own connection, so a frame pipelined behind a
// TENANT_ADD sees the tenant.
//
// Responses are appended to a per-connection output buffer and written when
// the connection would otherwise block on a read — the text path's "flush
// when the read buffer drains" — or when the buffer passes a high-water
// mark, so a pipelined batch of K frames costs one write syscall.
package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"time"
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

var (
	// errBadFrame marks a framing violation; the connection closes because
	// the stream can no longer be trusted.
	errBadFrame = errors.New("binary framing violation")
	// errDropConn marks a dispatcher drop fault: the connection closes
	// without answering the frame, as on the text path.
	errDropConn = errors.New("connection dropped by fault injection")
)

// binConn is one negotiated binary connection. The goroutine serving it is
// its only user.
type binConn struct {
	nc    net.Conn
	r     *bufio.Reader
	rwd   *watchdog // per-frame idle window; nil without IdleTimeout
	wwd   *watchdog // per-flush write window; nil without WriteTimeout
	armed bool      // rwd's window is running for the frame being read
	out   []byte    // coalesced, unflushed response frames
	keys  [][]byte  // the BMGET being executed: its keys, aliasing the frame
	dead  bool      // a write failed: the connection is closed
}

// handleBinary completes the negotiation for a connection whose first byte
// was binMagic and serves it on the calling goroutine. The pooled text
// reader becomes the frame reader, so bytes a client pipelined behind the
// preamble are already in it.
func (s *Server) handleBinary(conn net.Conn, r *bufio.Reader, rwd *watchdog) {
	defer func() {
		if rwd != nil {
			rwd.disarm()
		}
		r.Reset(nil)
		readerPool.Put(r)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if isTimeout(err) {
			s.svc.deadlineCloses.Add(1)
		}
		return
	}
	if pre[1] != 'V' || pre[2] != 'B' {
		return
	}
	// The ack always carries the server's version: a mismatched client
	// learns what the server speaks before the close.
	ack := [4]byte{binMagic, 'V', 'B', binVersion}
	if _, err := conn.Write(ack[:]); err != nil || pre[3] != binVersion {
		return
	}
	s.svc.binConnsTotal.Add(1)
	s.svc.binConns.Add(1)
	defer s.svc.binConns.Add(-1)
	c := &binConn{nc: conn, r: r}
	if s.cfg.IdleTimeout > 0 {
		// The handshake's window keeps running until the first blocking
		// read arms a fresh one, whose arm also clears any poison it left.
		c.rwd = rwd
	}
	if s.cfg.WriteTimeout > 0 {
		c.wwd = newWatchdog(s.svc.clk, conn.SetWriteDeadline)
		defer c.wwd.disarm()
	}
	s.binServe(c)
}

// binServe reads and executes frames until EOF, a deadline, a framing
// violation, a drop fault or a failed write. Responses already appended
// are written before the connection closes, as the text path flushes
// before a QUIT or a drop.
func (s *Server) binServe(c *binConn) {
	for !c.dead {
		f, peeked, err := s.binRead(c)
		if err != nil {
			if isTimeout(err) {
				s.svc.deadlineCloses.Add(1)
			}
			break
		}
		// A completed frame is progress: the next blocking read gets a
		// fresh idle window, and a dribbled partial frame never does.
		c.armed = false
		if h := s.svc.latency; h != nil {
			t0 := s.svc.clk.Now()
			err = s.binExec(c, f)
			h.Record(s.svc.clk.Now().Sub(t0))
		} else {
			err = s.binExec(c, f)
		}
		if err != nil {
			break
		}
		c.r.Discard(peeked)
	}
	s.binFlush(c)
}

// binRead returns the next request frame's body and the count of buffered
// bytes it occupies, which the caller discards once the frame has
// executed. A frame too large for the reader's buffer (only a PUT value
// over ~16 KiB) is read into a buffer of its own and occupies none.
func (s *Server) binRead(c *binConn) (f []byte, peeked int, err error) {
	hdr, err := s.binPeek(c, 4)
	if err != nil {
		return nil, 0, err
	}
	n := int(binLE.Uint32(hdr))
	if n < binReqHdr || n > binMaxFrame {
		return nil, 0, errBadFrame
	}
	if 4+n <= c.r.Size() {
		if f, err = s.binPeek(c, 4+n); err != nil {
			return nil, 0, err
		}
		return f[4:], 4 + n, nil
	}
	c.r.Discard(4)
	s.binWait(c)
	f = make([]byte, n)
	_, err = io.ReadFull(c.r, f)
	return f, 0, err
}

// binPeek returns the next n buffered bytes, first doing what binWait does
// when they are not all buffered yet.
func (s *Server) binPeek(c *binConn, n int) ([]byte, error) {
	if c.r.Buffered() < n {
		s.binWait(c)
	}
	return c.r.Peek(n)
}

// binWait runs before a read that may block: every response so far leaves
// in one write, and the idle window for the frame being read starts unless
// it already runs — it is absolute per frame, so a client dribbling bytes
// cannot keep the connection alive.
func (s *Server) binWait(c *binConn) {
	s.binFlush(c)
	if c.rwd != nil && !c.armed {
		c.rwd.arm(s.cfg.IdleTimeout)
		c.armed = true
	}
}

// binExec validates one request frame and executes it, appending its
// response to c.out. A non-nil error closes the connection: errBadFrame for
// a framing violation, errDropConn for a drop fault. f aliases the read
// buffer and is only valid for the duration of the call.
func (s *Server) binExec(c *binConn, f []byte) error {
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
	svc := s.svc
	svc.binFrames.Add(1)
	switch op {
	case binOpPing:
		s.binRespond(c, binStOK, op, id, nil)
		return nil
	case binOpTenantAdd:
		part, err := svc.AddTenant(string(tenant))
		if err != nil {
			s.binRespondErr(c, op, id, err.Error())
			return nil
		}
		var p [4]byte
		binLE.PutUint32(p[:], uint32(part))
		s.binRespond(c, binStOK, op, id, p[:])
		return nil
	case binOpTenantDel:
		if flags != 0 {
			return errBadFrame
		}
		if err := svc.RemoveTenant(string(tenant)); err != nil {
			s.binRespondErr(c, op, id, err.Error())
			return nil
		}
		s.binRespond(c, binStOK, op, id, nil)
		return nil
	case binOpRegOp:
		if flags&^byte(binFlagRegAdd) != 0 {
			return errBadFrame
		}
		if kl != 0 || len(val) != 8 {
			s.binRespondErr(c, op, id, "bad registry frame")
			return nil
		}
		ver, err := svc.ApplyRegistryOp(binLE.Uint64(val), flags&binFlagRegAdd != 0, string(tenant))
		if err != nil {
			s.binRespondErr(c, op, id, err.Error())
			return nil
		}
		var p [8]byte
		binLE.PutUint64(p[:], ver)
		s.binRespond(c, binStOK, op, id, p[:])
		return nil
	case binOpRegPull:
		if flags != 0 {
			return errBadFrame
		}
		if tl != 0 || kl != 0 || len(val) != 0 {
			s.binRespondErr(c, op, id, "bad registry pull")
			return nil
		}
		ver, names := svc.RegistrySnapshot()
		p := make([]byte, 12, 12+16*len(names))
		binLE.PutUint64(p[0:8], ver)
		binLE.PutUint32(p[8:12], uint32(len(names)))
		for _, n := range names {
			p = append(p, byte(len(n)))
			p = append(p, n...)
		}
		s.binRespond(c, binStOK, op, id, p)
		return nil
	case binOpBMGet:
		return s.binBMGet(c, f, flags, id, ttlMS, tl, kl)
	case binOpGet, binOpPut, binOpDel, binOpTouch, binOpRehome:
	default:
		return errBadFrame
	}
	if flags&^byte(binFlagTTL) != 0 {
		return errBadFrame
	}
	if kl == 0 || kl > maxKeyLen {
		s.binRespondErr(c, op, id, "bad key length")
		return nil
	}
	if op != binOpPut && op != binOpRehome && len(val) != 0 {
		s.binRespondErr(c, op, id, "unexpected value payload")
		return nil
	}
	if len(val) > maxValueLen {
		s.binRespondErr(c, op, id, "value too long")
		return nil
	}
	fop, ttl, ttlSet := OpGet, time.Duration(0), false
	switch op {
	case binOpPut, binOpRehome:
		fop = OpPut
		if flags&binFlagTTL != 0 {
			ttl = time.Duration(ttlMS) * time.Millisecond
		}
		// A re-homed key keeps exactly the TTL it had on the old owner: the
		// flag carries the remaining TTL, no flag means it never expired —
		// the receiver's DefaultTTL must not re-stamp it.
		ttlSet = flags&binFlagTTL != 0 || op == binOpRehome
	case binOpDel:
		fop = OpDelete
	case binOpTouch:
		fop, ttl = OpTouch, time.Duration(ttlMS)*time.Millisecond
	}
	// The record is built in place: assembling it in a variable first costs
	// a struct copy per frame, measurable on pipelined hot reads.
	v, payload := svc.serve(s, &request{op: fop, tenant: tenant, key: key, val: val,
		ttl: ttl, ttlSet: ttlSet, rehome: op == binOpRehome}, nil)
	switch v {
	case outDone:
		s.binRespond(c, binStOK, op, id, payload)
	case outMiss:
		s.binRespond(c, binStMiss, op, id, nil)
	case outShed:
		s.binRespond(c, binStShed, op, id, nil)
	case outDrop:
		return errDropConn
	default:
		s.binRespondErr(c, op, id, binErrMsg(v))
	}
	return nil
}

// binErrMsg is the ERR payload of a request the admission path refused or
// failed.
func binErrMsg(v verdict) string {
	if v == outUnknownTenant {
		return "unknown tenant"
	}
	return ErrInjected.Error()
}

// binBMGet validates one BMGET frame and hands its keys to the admission
// path as one batch (one reservation and one fault draw, as a text MGET),
// encoding the coalesced response straight into c.out as the keys execute.
// count arrives in the header's klen field; the key list must tile the body
// exactly.
func (s *Server) binBMGet(c *binConn, f []byte, flags uint8, id, ttlMS uint32, tl, count int) error {
	if flags != 0 || ttlMS != 0 {
		return errBadFrame // no flags or TTL semantics are defined for BMGET in v1
	}
	tenant := f[binReqHdr : binReqHdr+tl]
	list := f[binReqHdr+tl:]
	// Structural pass: the declared count of (u16 len, key) entries must
	// consume the body exactly. Truncation or trailing bytes mean the
	// stream can no longer be trusted; key-length violations are semantic.
	c.keys = c.keys[:0]
	badKey := false
	for i := 0; i < count; i++ {
		if len(list) < 2 {
			return errBadFrame
		}
		kl := int(binLE.Uint16(list))
		if len(list) < 2+kl {
			return errBadFrame
		}
		if kl == 0 || kl > maxKeyLen {
			badKey = true
		}
		if count <= maxBatchKeys {
			c.keys = append(c.keys, list[2:2+kl])
		}
		list = list[2+kl:]
	}
	if len(list) != 0 {
		return errBadFrame
	}
	switch {
	case count == 0:
		s.binRespondErr(c, binOpBMGet, id, "empty key list")
		return nil
	case count > maxBatchKeys:
		s.binRespondErr(c, binOpBMGet, id, "too many keys")
		return nil
	case badKey:
		s.binRespondErr(c, binOpBMGet, id, "bad key length")
		return nil
	}
	start := len(c.out)
	c.out = appendBinRespHdr(c.out, binStOK, binOpBMGet, id, 0)
	c.out = binLE.AppendUint16(c.out, uint16(count))
	v, _ := s.svc.serve(s, &request{op: OpMGet, tenant: tenant, keys: c.keys}, func(val []byte, hit bool) {
		st := uint8(binStMiss)
		if hit {
			st = binStOK
		}
		c.out = append(c.out, st)
		c.out = binLE.AppendUint32(c.out, uint32(len(val)))
		c.out = append(c.out, val...)
	})
	if v != outUnknownTenant {
		s.svc.bmgetKeys.Add(uint64(count))
	}
	switch v {
	case outDone:
	case outShed:
		for range count {
			c.out = append(c.out, binStShed, 0, 0, 0, 0) // status, u32 vlen 0
		}
	case outDrop:
		c.out = c.out[:start]
		return errDropConn
	default:
		c.out = c.out[:start]
		s.binRespondErr(c, binOpBMGet, id, binErrMsg(v))
		return nil
	}
	binLE.PutUint32(c.out[start:], uint32(len(c.out)-start-4))
	if len(c.out) >= binFlushHi {
		s.binFlush(c)
	}
	return nil
}

// binRespond appends one response frame to c.out, flushing early past the
// high-water mark.
func (s *Server) binRespond(c *binConn, status, op uint8, id uint32, payload []byte) {
	c.out = appendBinResp(c.out, status, op, id, payload)
	if len(c.out) >= binFlushHi {
		s.binFlush(c)
	}
}

func (s *Server) binRespondErr(c *binConn, op uint8, id uint32, msg string) {
	s.binRespond(c, binStErr, op, id, []byte(msg))
}

// binFlush writes c's buffered responses under the write window. A failed
// write closes the connection and marks it dead.
func (s *Server) binFlush(c *binConn) {
	if len(c.out) == 0 || c.dead {
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
		c.dead = true
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
