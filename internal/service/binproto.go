// The node's binary codec. The protocol itself — negotiation, frame
// layout, BMGET, the cluster frames and the framing rules — is described
// in package binwire, which also owns its constants and its validator.
//
// # Concurrency model
//
// A binary connection is served like a text one, by the one loop (see
// handle in protocol.go) on its own goroutine: this file's edge reads a
// frame, which binwire.Req.Parse decodes in place, and a data frame then
// executes at once through the admission path both codecs share
// (request.go: tenant, one fault draw, drop, in-flight reservation, delay,
// injected error, then the resolved fast path under the owning shard's
// mutex), with key and value read straight out of the connection's read
// buffer. A TEXT frame's command decodes and executes in the text codec.
// Registry frames (TENANT_ADD/DEL, which replicate to peers synchronously)
// block only their own connection, so a frame pipelined behind a
// TENANT_ADD sees the tenant.
//
// Replies are appended to the connection's output buffer, which is written
// before any socket read (conn.Read) and when it passes a high-water mark:
// a pipelined batch of K frames costs one write syscall, and a reply never
// waits behind the first bytes of the next frame.
package service

import (
	"encoding/binary"
	"io"
	"time"

	"vantage/internal/binwire"
)

var binLE = binary.LittleEndian

// binRead reads the next request frame and parses it into c.req. It
// returns the count of buffered bytes the frame occupies, which step
// discards once it has executed, since c.req aliases them. A frame too
// large for the reader's buffer (only a PUT value over ~16 KiB) is read
// into a buffer of its own and occupies none. A framing violation closes
// the connection.
func (c *conn) binRead() (int, error) {
	hdr, err := c.r.Peek(4)
	if err != nil {
		return 0, err
	}
	n := int(binLE.Uint32(hdr))
	if !binwire.ReqLen(n) {
		return 0, errBadFrame
	}
	var f []byte
	peeked := 0
	if 4+n <= c.r.Size() {
		if f, err = c.r.Peek(4 + n); err != nil {
			return 0, err
		}
		f, peeked = f[4:], 4+n
	} else {
		c.r.Discard(4)
		f = make([]byte, n)
		if _, err = io.ReadFull(c.r, f); err != nil {
			return 0, err
		}
	}
	if !c.req.Parse(f) {
		return 0, errBadFrame
	}
	return peeked, nil
}

// binExec executes the frame in c.req, appending its response. A
// peer-only frame from a client, and a frame whose parse earned a
// frame-level ERR, are answered without executing. Only a drop fault
// closes the connection.
func (s *Server) binExec(c *conn) error {
	q := &c.req
	svc := s.svc
	svc.binFrames.Add(1)
	switch {
	case binwire.PeerOp(q.Op) && !c.peer:
		c.fail(binwire.PeerOpRefused)
		return nil
	case q.Err != "":
		c.fail(q.Err)
		return nil
	}
	switch q.Op {
	case binwire.OpPing:
		c.reply(binwire.StOK, nil)
	case binwire.OpTenantAdd:
		part, err := svc.AddTenant(string(q.Tenant))
		c.result(binLE.AppendUint32(nil, uint32(part)), err)
	case binwire.OpTenantDel:
		c.result(nil, svc.RemoveTenant(string(q.Tenant)))
	case binwire.OpRegOp:
		ver, err := svc.ApplyRegistryOp(binLE.Uint64(q.Val), q.Flags&binwire.FlagRegAdd != 0, string(q.Tenant))
		c.result(binLE.AppendUint64(nil, ver), err)
	case binwire.OpRegPull:
		ver, names := svc.RegistrySnapshot()
		p := make([]byte, 12, 12+16*len(names))
		binLE.PutUint64(p[0:8], ver)
		binLE.PutUint32(p[8:12], uint32(len(names)))
		for _, n := range names {
			p = append(p, byte(len(n)))
			p = append(p, n...)
		}
		c.reply(binwire.StOK, p)
	case binwire.OpText:
		return s.binText(c)
	default:
		return s.serveData(c)
	}
	return nil
}

// result answers an admin frame: OK with payload, or ERR with err's
// message.
func (c *conn) result(payload []byte, err error) {
	if err != nil {
		c.fail(err.Error())
	} else {
		c.reply(binwire.StOK, payload)
	}
}

// binText answers a TEXT frame, in one OK frame, with the bytes a text
// connection would read for its command: the line and its block decode as
// on a text connection and execute in the text codec. Parse refused every
// line that closes a text connection, so only a drop fault closes this
// one.
func (s *Server) binText(c *conn) error {
	start := len(c.out)
	c.out = binwire.AppendRespHdr(c.out, binwire.StOK, binwire.OpText, c.req.ID, 0)
	c.req.Err = c.req.DecodeText(c.req.Key, c.req.Val)
	c.text, c.frame = true, true
	err := s.textExec(c)
	c.text, c.frame = false, false
	if err != nil {
		c.out = c.out[:start]
		return err
	}
	binwire.SetLen(c.out[start:])
	return nil
}

// serveReq hands a data request either codec decoded to the admission path
// (request.go); a batch reports each key's result to emit.
func (s *Server) serveReq(q *binwire.Req, emit func(val []byte, hit bool)) (verdict, []byte) {
	if q.Op == binwire.OpBMGet {
		return s.svc.serve(s, &request{op: OpMGet, tenant: q.Tenant, keys: q.Keys}, emit)
	}
	fop, ttl, ttlSet := OpGet, time.Duration(0), false
	switch q.Op {
	case binwire.OpPut, binwire.OpRehome:
		fop = OpPut
		if q.Flags&binwire.FlagTTL != 0 {
			ttl = time.Duration(q.TTLms) * time.Millisecond
		}
		// A re-homed key keeps exactly the TTL it had on the old owner: the
		// flag carries the remaining TTL, no flag means it never expired —
		// the receiver's DefaultTTL must not re-stamp it.
		ttlSet = q.Flags&binwire.FlagTTL != 0 || q.Op == binwire.OpRehome
	case binwire.OpDel:
		fop = OpDelete
	case binwire.OpTouch:
		fop, ttl = OpTouch, time.Duration(q.TTLms)*time.Millisecond
	}
	// The record is built in place: assembling it in a variable first costs
	// a struct copy per frame, measurable on pipelined hot reads.
	return s.svc.serve(s, &request{op: fop, tenant: q.Tenant, key: q.Key, val: q.Val,
		ttl: ttl, ttlSet: ttlSet, rehome: q.Op == binwire.OpRehome}, emit)
}
