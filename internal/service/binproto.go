// The node's binary codec. The protocol itself — negotiation, frame
// layout, BMGET, the cluster frames and the framing rules — is described
// in package binwire, which also owns its constants and its validator.
//
// # Concurrency model
//
// A binary connection is served like a text one: by its own goroutine,
// which decodes each data frame into a request and executes it at once
// through the admission path both codecs share (request.go: tenant, one
// fault draw, drop, in-flight reservation, delay, injected error, then the
// resolved fast path under the owning shard's mutex), with key and value
// read straight out of the connection's read buffer. This file only
// validates frames and renders verdicts; a TEXT frame's command runs
// through the text codec's own dispatch. Registry frames (TENANT_ADD/DEL,
// which replicate to peers synchronously) block only their own connection,
// so a frame pipelined behind a TENANT_ADD sees the tenant.
//
// Responses are appended to a per-connection output buffer and written when
// the connection would otherwise block on a read — the text path's "flush
// when the read buffer drains" — or when the buffer passes a high-water
// mark, so a pipelined batch of K frames costs one write syscall.
package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"time"

	"vantage/internal/binwire"
)

// binFlushHi flushes a connection's output buffer early when coalesced
// responses pass this size, bounding memory and syscall payload alike.
const binFlushHi = 64 << 10

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
	rwd   *watchdog   // per-frame idle window; nil without IdleTimeout
	wwd   *watchdog   // per-flush write window; nil without WriteTimeout
	armed bool        // rwd's window is running for the frame being read
	out   []byte      // coalesced, unflushed response frames
	req   binwire.Req // the frame being executed, aliasing the read buffer
	dead  bool        // a write failed: the connection is closed
}

// handleBinary completes the negotiation for a connection whose first byte
// was binwire.Magic and serves it on the calling goroutine. The pooled text
// reader becomes the frame reader, so bytes a client pipelined behind the
// preamble are already in it; handle tears the connection down after.
func (s *Server) handleBinary(conn net.Conn, r *bufio.Reader, rwd *watchdog) {
	if ok, err := binwire.Accept(r, conn); !ok {
		if isTimeout(err) {
			s.svc.deadlineCloses.Add(1)
		}
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
	if !binwire.ReqLen(n) {
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
	q := &c.req
	if !q.Parse(f) {
		return errBadFrame
	}
	op, id := q.Op, q.ID
	svc := s.svc
	svc.binFrames.Add(1)
	switch op {
	case binwire.OpPing:
		s.binRespond(c, binwire.StOK, op, id, nil)
		return nil
	case binwire.OpTenantAdd:
		part, err := svc.AddTenant(string(q.Tenant))
		if err != nil {
			s.binRespondErr(c, op, id, err.Error())
			return nil
		}
		s.binRespond(c, binwire.StOK, op, id, binLE.AppendUint32(make([]byte, 0, 4), uint32(part)))
		return nil
	case binwire.OpTenantDel:
		if err := svc.RemoveTenant(string(q.Tenant)); err != nil {
			s.binRespondErr(c, op, id, err.Error())
			return nil
		}
		s.binRespond(c, binwire.StOK, op, id, nil)
		return nil
	case binwire.OpRegOp:
		if len(q.Key) != 0 || len(q.Val) != 8 {
			s.binRespondErr(c, op, id, "bad registry frame")
			return nil
		}
		ver, err := svc.ApplyRegistryOp(binLE.Uint64(q.Val), q.Flags&binwire.FlagRegAdd != 0, string(q.Tenant))
		if err != nil {
			s.binRespondErr(c, op, id, err.Error())
			return nil
		}
		s.binRespond(c, binwire.StOK, op, id, binLE.AppendUint64(make([]byte, 0, 8), ver))
		return nil
	case binwire.OpRegPull:
		if len(q.Tenant) != 0 || len(q.Key) != 0 || len(q.Val) != 0 {
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
		s.binRespond(c, binwire.StOK, op, id, p)
		return nil
	case binwire.OpBMGet:
		return s.binBMGet(c)
	case binwire.OpText:
		return s.binText(c)
	}
	if len(q.Key) == 0 || len(q.Key) > binwire.MaxKey {
		s.binRespondErr(c, op, id, "bad key length")
		return nil
	}
	if op != binwire.OpPut && op != binwire.OpRehome && len(q.Val) != 0 {
		s.binRespondErr(c, op, id, "unexpected value payload")
		return nil
	}
	if len(q.Val) > binwire.MaxValue {
		s.binRespondErr(c, op, id, "value too long")
		return nil
	}
	fop, ttl, ttlSet := OpGet, time.Duration(0), false
	switch op {
	case binwire.OpPut, binwire.OpRehome:
		fop = OpPut
		if q.Flags&binwire.FlagTTL != 0 {
			ttl = time.Duration(q.TTLms) * time.Millisecond
		}
		// A re-homed key keeps exactly the TTL it had on the old owner: the
		// flag carries the remaining TTL, no flag means it never expired —
		// the receiver's DefaultTTL must not re-stamp it.
		ttlSet = q.Flags&binwire.FlagTTL != 0 || op == binwire.OpRehome
	case binwire.OpDel:
		fop = OpDelete
	case binwire.OpTouch:
		fop, ttl = OpTouch, time.Duration(q.TTLms)*time.Millisecond
	}
	// The record is built in place: assembling it in a variable first costs
	// a struct copy per frame, measurable on pipelined hot reads.
	v, payload := svc.serve(s, &request{op: fop, tenant: q.Tenant, key: q.Key, val: q.Val,
		ttl: ttl, ttlSet: ttlSet, rehome: op == binwire.OpRehome}, nil)
	switch v {
	case outDone:
		s.binRespond(c, binwire.StOK, op, id, payload)
	case outMiss:
		s.binRespond(c, binwire.StMiss, op, id, nil)
	case outShed:
		s.binRespond(c, binwire.StShed, op, id, nil)
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

// binBMGet hands a parsed BMGET's keys to the admission path as one batch
// (one reservation and one fault draw, as a text MGET), encoding the
// coalesced response straight into c.out as the keys execute.
func (s *Server) binBMGet(c *binConn) error {
	q := &c.req
	if q.BatchErr != "" {
		s.binRespondErr(c, binwire.OpBMGet, q.ID, q.BatchErr)
		return nil
	}
	start := len(c.out)
	c.out = binwire.AppendRespHdr(c.out, binwire.StOK, binwire.OpBMGet, q.ID, 0)
	c.out = binLE.AppendUint16(c.out, uint16(q.Count))
	v, _ := s.svc.serve(s, &request{op: OpMGet, tenant: q.Tenant, keys: q.Keys}, func(val []byte, hit bool) {
		st := uint8(binwire.StMiss)
		if hit {
			st = binwire.StOK
		}
		c.out = binwire.AppendEntry(c.out, st, val)
	})
	if v != outUnknownTenant {
		s.svc.bmgetKeys.Add(uint64(q.Count))
	}
	switch v {
	case outDone:
	case outShed:
		for range q.Count {
			c.out = binwire.AppendEntry(c.out, binwire.StShed, nil)
		}
	case outDrop:
		c.out = c.out[:start]
		return errDropConn
	default:
		c.out = c.out[:start]
		s.binRespondErr(c, binwire.OpBMGet, q.ID, binErrMsg(v))
		return nil
	}
	binwire.SetLen(c.out[start:])
	if len(c.out) >= binFlushHi {
		s.binFlush(c)
	}
	return nil
}

// binText runs a TEXT frame's line through the text dispatch, its block
// standing in for the stream, and answers OK with the bytes a text
// connection would have read. Parse refused every line that closes a text
// connection, so only a drop fault closes this one. A cold path: no pools.
func (s *Server) binText(c *binConn) error {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	if s.run(c.req.Key, bufio.NewReader(bytes.NewReader(c.req.Val)), w, &connState{}) {
		return errDropConn
	}
	w.Flush()
	s.binRespond(c, binwire.StOK, binwire.OpText, c.req.ID, out.Bytes())
	return nil
}

// binRespond appends one response frame to c.out, flushing early past the
// high-water mark.
func (s *Server) binRespond(c *binConn, status, op uint8, id uint32, payload []byte) {
	c.out = binwire.AppendResp(c.out, status, op, id, payload)
	if len(c.out) >= binFlushHi {
		s.binFlush(c)
	}
}

func (s *Server) binRespondErr(c *binConn, op uint8, id uint32, msg string) {
	s.binRespond(c, binwire.StErr, op, id, []byte(msg))
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
