// The binary-protocol client: the same per-connection surface as the text
// client (see the proto interface in loadgen.go), speaking the
// length-prefixed frames of package binwire.
//
// The binary protocol has no MGET verb — a batch is simply Batch GET frames
// written before one flush, which the server answers with one coalesced
// write. Responses are matched back by the echoed request id, which the
// protocol requires even though this server answers in request order.
// mget and putPipelined therefore always drain every response of a batch,
// even after a shed or fault reply: each frame gets exactly one response, so
// the stream can never desync the way an aborted text MGET would without its
// END sentinel.
package loadgen

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"vantage/internal/binwire"
)

// binClient is a blocking binary-protocol client over one TCP connection.
type binClient struct {
	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	id    uint32 // request id counter; responses echo it back in order
	out   []byte // request frame scratch
	rbuf  []byte // response frame scratch, grown as needed
	bmget bool   // batch reads as one BMGET frame instead of pipelined GETs
}

// dialBin connects, negotiates the binary protocol, and registers the
// tenant. A server at its connection cap writes its text "BUSY" reject and
// closes before any negotiation; that surfaces as a first ack byte that is
// not the magic (0x83 can never start a text line), or as a transport error
// — both mean ErrBusy here, matching the text client's dial semantics.
func dialBin(addr, tenant string, bmget bool) (*binClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &binClient{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), bmget: bmget}
	if err := binwire.Handshake(conn, c.r); err != nil {
		conn.Close()
		if errors.Is(err, binwire.ErrNotBinary) || isConnErr(err) {
			return nil, fmt.Errorf("%w (%v)", ErrBusy, err)
		}
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	id := c.nextID()
	c.writeFrame(binwire.OpTenantAdd, 0, id, 0, tenant, "", nil)
	if err := c.w.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	status, payload, err := c.readRespFor(id)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if status != binwire.StOK {
		conn.Close()
		return nil, fmt.Errorf("loadgen: binary TENANT_ADD: %s", payload)
	}
	return c, nil
}

func (c *binClient) close() { c.conn.Close() }

func (c *binClient) nextID() uint32 { return atomic.AddUint32(&c.id, 1) }

// writeFrame appends one request frame to the buffered writer.
func (c *binClient) writeFrame(op, flags uint8, id, ttlMS uint32, tenant, key string, val []byte) {
	c.out = binwire.AppendReq(c.out[:0], op, flags, id, ttlMS, tenant, key, val)
	c.w.Write(c.out)
}

// readRespFor reads the next response and requires it to answer wantID —
// for callers with exactly one frame outstanding. The protocol does not
// promise responses in request order, so callers with a batch outstanding
// match each echoed id against their window instead (matchBatchID). A
// payload aliases c.rbuf and is only valid until the next read.
func (c *binClient) readRespFor(wantID uint32) (status uint8, payload []byte, err error) {
	resp, err := binwire.ReadResp(c.r, &c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	if resp.ID != wantID {
		return 0, nil, fmt.Errorf("loadgen: binary response id %d, want %d (stream desynced)", resp.ID, wantID)
	}
	return resp.Status, resp.Payload, nil
}

// classifyBinErr maps a status byte to the overload sentinels the chaos
// counters understand. ERR payloads from the fault injector start with
// "FAULT" (the text protocol prefixes the same message with "ERR ").
func classifyBinErr(ctx string, status uint8, payload []byte) error {
	if status == binwire.StShed {
		return ErrShed
	}
	if len(payload) >= 5 && string(payload[:5]) == "FAULT" {
		return ErrInjected
	}
	return fmt.Errorf("loadgen: binary %s: %s", ctx, payload)
}

// get returns whether key hit. The value payload is read and discarded.
func (c *binClient) get(tenant, key string) (bool, error) {
	id := c.nextID()
	c.writeFrame(binwire.OpGet, 0, id, 0, tenant, key, nil)
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	status, payload, err := c.readRespFor(id)
	if err != nil {
		return false, err
	}
	switch status {
	case binwire.StOK:
		return true, nil
	case binwire.StMiss:
		return false, nil
	default:
		return false, classifyBinErr("GET", status, payload)
	}
}

// matchBatchID maps an echoed response id back to its index in a batch of
// n frames whose ids were base+1..base+n, rejecting out-of-window ids and
// duplicates via the got bitmap.
func matchBatchID(id, base uint32, got []bool) (int, error) {
	idx := int(id - base - 1)
	if idx < 0 || idx >= len(got) {
		return 0, fmt.Errorf("loadgen: binary response id %d outside batch window [%d,%d] (stream desynced)", id, base+1, base+uint32(len(got)))
	}
	if got[idx] {
		return 0, fmt.Errorf("loadgen: duplicate binary response id %d", id)
	}
	got[idx] = true
	return idx, nil
}

// mgetSend writes the batch's read frames — one BMGET frame in bmget mode,
// Batch pipelined GETs otherwise — and flushes. The returned token is the
// base id mgetRecv matches responses against.
func (c *binClient) mgetSend(tenant string, keys []string) (uint32, error) {
	base := c.id
	if c.bmget {
		c.out = binwire.AppendBMGet(c.out[:0], c.nextID(), tenant, keys)
		c.w.Write(c.out)
	} else {
		for _, k := range keys {
			c.writeFrame(binwire.OpGet, 0, c.nextID(), 0, tenant, k, nil)
		}
	}
	return base, c.w.Flush()
}

// mgetRecv reads the batch's responses. Pipelined GET frames are matched
// back to their keys by the echoed id, which is all the protocol promises;
// every frame gets one response, so unlike a text MGET the batch is
// answered key by key, and the first shed or fault reply is returned as
// the error with the answered GETs still counted. In bmget mode the answer
// is one coalesced frame whose payload carries per-key statuses in request
// order; a per-key SHED surfaces as ErrShed just like a shed GET frame
// would, with the rest of the batch still counted.
func (c *binClient) mgetRecv(base uint32, tenant string, keys []string, missBuf []string) (hits, seen int, _ []string, _ error) {
	if c.bmget {
		return c.bmgetRecv(base, keys, missBuf)
	}
	got := make([]bool, len(keys))
	var firstErr error
	for range keys {
		resp, err := binwire.ReadResp(c.r, &c.rbuf)
		if err != nil {
			return hits, seen, missBuf, err // transport loss: stream is gone
		}
		idx, err := matchBatchID(resp.ID, base, got)
		if err != nil {
			return hits, seen, missBuf, err
		}
		switch resp.Status {
		case binwire.StOK:
			hits++
			seen++
		case binwire.StMiss:
			missBuf = append(missBuf, keys[idx])
			seen++
		default:
			if firstErr == nil {
				firstErr = classifyBinErr("GET", resp.Status, resp.Payload)
			}
		}
	}
	return hits, seen, missBuf, firstErr
}

// bmgetRecv reads and decodes the single BMGET response frame. The frame
// answers id base+1; a frame-level ERR (unknown tenant, injected fault)
// fails the whole batch with seen = 0, mirroring a refused text MGET.
func (c *binClient) bmgetRecv(base uint32, keys []string, missBuf []string) (hits, seen int, _ []string, _ error) {
	status, payload, err := c.readRespFor(base + 1)
	if err != nil {
		return 0, 0, missBuf, err
	}
	if status != binwire.StOK {
		return 0, 0, missBuf, classifyBinErr("BMGET", status, payload)
	}
	b, err := binwire.CheckReply(payload, len(keys))
	if err != nil {
		return 0, 0, missBuf, fmt.Errorf("loadgen: %w", err)
	}
	var firstErr error
	for i := range keys {
		var st uint8
		st, _, b = binwire.NextEntry(b)
		switch st {
		case binwire.StOK:
			hits++
			seen++
		case binwire.StMiss:
			missBuf = append(missBuf, keys[i])
			seen++
		default:
			if firstErr == nil {
				firstErr = classifyBinErr("BMGET", st, nil)
			}
		}
	}
	return hits, seen, missBuf, firstErr
}

// putSend writes the batch's PUT frames and flushes (the send phase of the
// batchProto split); the returned token is the base id for putRecv.
func (c *binClient) putSend(tenant string, keys []string, val []byte, ttlMS int) (uint32, error) {
	base := c.id
	flags, ttl := binwire.TTL(int64(ttlMS))
	for _, key := range keys {
		c.writeFrame(binwire.OpPut, flags, c.nextID(), ttl, tenant, key, val)
	}
	return base, c.w.Flush()
}

// putRecv drains the batch's n responses, matching ids against the window.
func (c *binClient) putRecv(base uint32, n int, chaos bool, tr *TenantResult) (stored uint64, _ error) {
	got := make([]bool, n)
	var firstErr error
	for i := 0; i < n; i++ {
		resp, err := binwire.ReadResp(c.r, &c.rbuf)
		if err != nil {
			return stored, err
		}
		if _, err := matchBatchID(resp.ID, base, got); err != nil {
			return stored, err
		}
		if resp.Status == binwire.StOK {
			stored++
			continue
		}
		err = classifyBinErr("PUT", resp.Status, resp.Payload)
		if !chaos {
			if firstErr == nil {
				firstErr = err
			}
			continue // keep draining: every frame has a response in flight
		}
		switch err {
		case ErrShed:
			atomic.AddUint64(&tr.Shed, 1)
		case ErrInjected:
			atomic.AddUint64(&tr.Injected, 1)
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return stored, firstErr
}
