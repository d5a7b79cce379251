// The binary-protocol client: the same per-connection surface as the text
// client (see the proto interface in loadgen.go), speaking the
// length-prefixed frames of internal/service/binproto.go.
//
// The wire constants below mirror the server's (which are unexported on
// purpose: the frame layout is the contract, not a shared Go package). The
// binary protocol has no MGET verb — a batch is simply Batch GET frames
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
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
)

// Wire constants, mirrored from internal/service/binproto.go.
const (
	binMagic   = 0x83
	binVersion = 1
	binReqHdr  = 16
	binRespHdr = 8

	binOpGet       = 1
	binOpPut       = 2
	binOpDel       = 3
	binOpTouch     = 4
	binOpPing      = 5
	binOpTenantAdd = 6
	binOpBMGet     = 11

	binStOK   = 0
	binStMiss = 1
	binStErr  = 2
	binStShed = 3

	binFlagTTL = 1 << 0
)

// binClient is a blocking binary-protocol client over one TCP connection.
type binClient struct {
	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	id    uint32 // request id counter; responses echo it back in order
	rbuf  []byte // response body scratch, grown as needed
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
	if _, err := conn.Write([]byte{binMagic, 'V', 'B', binVersion}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w (%v)", ErrBusy, err)
	}
	var ack [4]byte
	if _, err := readFullBuf(c.r, ack[:]); err != nil {
		conn.Close()
		if isConnErr(err) {
			return nil, fmt.Errorf("%w (%v)", ErrBusy, err)
		}
		return nil, err
	}
	if ack[0] != binMagic {
		conn.Close()
		return nil, ErrBusy
	}
	if ack[3] != binVersion {
		conn.Close()
		return nil, fmt.Errorf("loadgen: binary version mismatch: server speaks v%d, client v%d", ack[3], binVersion)
	}
	id := c.nextID()
	c.writeFrame(binOpTenantAdd, 0, id, 0, tenant, "", nil)
	if err := c.w.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	status, payload, err := c.readRespFor(id)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if status != binStOK {
		conn.Close()
		return nil, fmt.Errorf("loadgen: binary TENANT_ADD: %s", payload)
	}
	return c, nil
}

func (c *binClient) close() { c.conn.Close() }

func (c *binClient) nextID() uint32 { return atomic.AddUint32(&c.id, 1) }

// writeFrame appends one request frame to the buffered writer.
func (c *binClient) writeFrame(op, flags uint8, id, ttlMS uint32, tenant, key string, val []byte) {
	var hdr [4 + binReqHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(binReqHdr+len(tenant)+len(key)+len(val)))
	hdr[4] = op
	hdr[5] = flags
	hdr[6] = uint8(len(tenant))
	binary.LittleEndian.PutUint32(hdr[8:], id)
	binary.LittleEndian.PutUint32(hdr[12:], ttlMS)
	binary.LittleEndian.PutUint16(hdr[16:], uint16(len(key)))
	c.w.Write(hdr[:])
	c.w.WriteString(tenant)
	c.w.WriteString(key)
	c.w.Write(val)
}

// readFullBuf is io.ReadFull without the import dance around the text
// client's helpers.
func readFullBuf(r *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// readResp reads one response frame. The protocol does not promise
// responses in request order, so callers match the echoed id against their
// outstanding window rather than assuming FIFO. The returned payload aliases the
// client's scratch buffer and is only valid until the next readResp.
func (c *binClient) readResp() (status, op uint8, id uint32, payload []byte, err error) {
	var lenb [4]byte
	if _, err := readFullBuf(c.r, lenb[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n < binRespHdr || n > 1<<21 {
		return 0, 0, 0, nil, fmt.Errorf("loadgen: bad binary response length %d", n)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	body := c.rbuf[:n]
	if _, err := readFullBuf(c.r, body); err != nil {
		return 0, 0, 0, nil, err
	}
	return body[0], body[1], binary.LittleEndian.Uint32(body[4:]), body[binRespHdr:], nil
}

// readRespFor reads the next response and requires it to answer wantID —
// for callers with exactly one frame outstanding.
func (c *binClient) readRespFor(wantID uint32) (status uint8, payload []byte, err error) {
	status, _, id, payload, err := c.readResp()
	if err != nil {
		return 0, nil, err
	}
	if id != wantID {
		return 0, nil, fmt.Errorf("loadgen: binary response id %d, want %d (stream desynced)", id, wantID)
	}
	return status, payload, nil
}

// classifyBinErr maps a status byte to the overload sentinels the chaos
// counters understand. ERR payloads from the fault injector start with
// "FAULT" (the text protocol prefixes the same message with "ERR ").
func classifyBinErr(ctx string, status uint8, payload []byte) error {
	if status == binStShed {
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
	c.writeFrame(binOpGet, 0, id, 0, tenant, key, nil)
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	status, payload, err := c.readRespFor(id)
	if err != nil {
		return false, err
	}
	switch status {
	case binStOK:
		return true, nil
	case binStMiss:
		return false, nil
	default:
		return false, classifyBinErr("GET", status, payload)
	}
}

// put stores val under key; ttlMS >= 0 sets the TTL flag and deadline.
func (c *binClient) put(tenant, key string, val []byte, ttlMS int) error {
	id := c.nextID()
	var flags uint8
	var ttl uint32
	if ttlMS >= 0 {
		flags = binFlagTTL
		ttl = uint32(ttlMS)
	}
	c.writeFrame(binOpPut, flags, id, ttl, tenant, key, val)
	if err := c.w.Flush(); err != nil {
		return err
	}
	status, payload, err := c.readRespFor(id)
	if err != nil {
		return err
	}
	if status != binStOK {
		return classifyBinErr("PUT", status, payload)
	}
	return nil
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

// mget pipelines one GET frame per key before a single flush — the binary
// batch. A node answers a connection's frames in request order, but the
// protocol only promises the echoed id, so each response is matched back
// to its key by id. Every frame gets
// exactly one response, so unlike a text MGET (refused as a whole with one
// ERR line) the batch is answered key by key; the first shed or fault reply
// is returned as the error with the successfully-answered GETs still
// counted in hits/seen.
func (c *binClient) mget(tenant string, keys []string, missBuf []string) (hits, seen int, _ []string, _ error) {
	tok, err := c.mgetSend(tenant, keys)
	if err != nil {
		return 0, 0, missBuf, err
	}
	return c.mgetRecv(tok, tenant, keys, missBuf)
}

// writeBMGetFrame appends one BMGET request frame: the header's klen field
// carries the key count and the body is tenant then count x (u16 len, key).
func (c *binClient) writeBMGetFrame(id uint32, tenant string, keys []string) {
	n := binReqHdr + len(tenant)
	for _, k := range keys {
		n += 2 + len(k)
	}
	var hdr [4 + binReqHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	hdr[4] = binOpBMGet
	hdr[6] = uint8(len(tenant))
	binary.LittleEndian.PutUint32(hdr[8:], id)
	binary.LittleEndian.PutUint16(hdr[16:], uint16(len(keys)))
	c.w.Write(hdr[:])
	c.w.WriteString(tenant)
	var kl [2]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint16(kl[:], uint16(len(k)))
		c.w.Write(kl[:])
		c.w.WriteString(k)
	}
}

// mgetSend writes the batch's read frames — one BMGET frame in bmget mode,
// Batch pipelined GETs otherwise — and flushes. The returned token is the
// base id mgetRecv matches responses against.
func (c *binClient) mgetSend(tenant string, keys []string) (uint32, error) {
	base := c.id
	if c.bmget {
		c.writeBMGetFrame(c.nextID(), tenant, keys)
	} else {
		for _, k := range keys {
			c.writeFrame(binOpGet, 0, c.nextID(), 0, tenant, k, nil)
		}
	}
	return base, c.w.Flush()
}

// mgetRecv reads the batch's responses. In bmget mode that is one
// coalesced frame whose payload carries per-key statuses in request order;
// a per-key SHED surfaces as ErrShed just like a shed GET frame would,
// with the rest of the batch still counted.
func (c *binClient) mgetRecv(base uint32, tenant string, keys []string, missBuf []string) (hits, seen int, _ []string, _ error) {
	if c.bmget {
		return c.bmgetRecv(base, keys, missBuf)
	}
	got := make([]bool, len(keys))
	var firstErr error
	for range keys {
		status, _, id, payload, err := c.readResp()
		if err != nil {
			return hits, seen, missBuf, err // transport loss: stream is gone
		}
		idx, err := matchBatchID(id, base, got)
		if err != nil {
			return hits, seen, missBuf, err
		}
		switch status {
		case binStOK:
			hits++
			seen++
		case binStMiss:
			missBuf = append(missBuf, keys[idx])
			seen++
		default:
			if firstErr == nil {
				firstErr = classifyBinErr("GET", status, payload)
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
	if status != binStOK {
		return 0, 0, missBuf, classifyBinErr("BMGET", status, payload)
	}
	if len(payload) < 2 {
		return 0, 0, missBuf, fmt.Errorf("loadgen: short BMGET payload (%d bytes)", len(payload))
	}
	count := int(binary.LittleEndian.Uint16(payload))
	if count != len(keys) {
		return 0, 0, missBuf, fmt.Errorf("loadgen: BMGET answered %d keys, want %d", count, len(keys))
	}
	p := payload[2:]
	var firstErr error
	for i := 0; i < count; i++ {
		if len(p) < 5 {
			return hits, seen, missBuf, fmt.Errorf("loadgen: truncated BMGET entry %d", i)
		}
		st := p[0]
		vl := int(binary.LittleEndian.Uint32(p[1:5]))
		p = p[5:]
		if len(p) < vl {
			return hits, seen, missBuf, fmt.Errorf("loadgen: truncated BMGET value %d", i)
		}
		p = p[vl:]
		switch st {
		case binStOK:
			hits++
			seen++
		case binStMiss:
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

// putPipelined writes one PUT frame per key before a single flush and then
// drains the batch's responses. ttlMS is every key's TTL in milliseconds,
// -1 meaning none. In chaos mode, shed and fault replies are folded
// into tr and the batch continues; otherwise the first such reply is
// returned after the drain completes.
func (c *binClient) putPipelined(tenant string, keys []string, val []byte, ttlMS int, chaos bool, tr *TenantResult) (stored uint64, _ error) {
	tok, err := c.putSend(tenant, keys, val, ttlMS)
	if err != nil {
		return 0, err
	}
	return c.putRecv(tok, len(keys), chaos, tr)
}

// putSend writes the batch's PUT frames and flushes (the send phase of the
// batchProto split); the returned token is the base id for putRecv.
func (c *binClient) putSend(tenant string, keys []string, val []byte, ttlMS int) (uint32, error) {
	base := c.id
	var flags uint8
	var ttl uint32
	if ttlMS >= 0 {
		flags = binFlagTTL
		ttl = uint32(ttlMS)
	}
	for _, key := range keys {
		c.writeFrame(binOpPut, flags, c.nextID(), ttl, tenant, key, val)
	}
	return base, c.w.Flush()
}

// putRecv drains the batch's n responses, matching ids against the window.
func (c *binClient) putRecv(base uint32, n int, chaos bool, tr *TenantResult) (stored uint64, _ error) {
	got := make([]bool, n)
	var firstErr error
	for i := 0; i < n; i++ {
		status, _, id, payload, err := c.readResp()
		if err != nil {
			return stored, err
		}
		if _, err := matchBatchID(id, base, got); err != nil {
			return stored, err
		}
		if status == binStOK {
			stored++
			continue
		}
		err = classifyBinErr("PUT", status, payload)
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
