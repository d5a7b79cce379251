package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Peer is a binary-protocol client for node-to-node traffic: registry
// replication (REG_OP/REG_PULL) and key re-homing (REHOME). The wire
// constants are mirrored from internal/service — the frame layout is the
// contract, not a shared Go package — the same stance the loadgen's binary
// client takes. A Peer is safe for concurrent use; calls serialize on one
// mutex because peer traffic is control-plane (broadcasts, drains), not
// the data path.
type Peer struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	rbuf []byte
}

// Mirrored binary wire constants (see internal/service/binproto.go).
const (
	peerMagic   = 0x83
	peerVersion = 1
	peerReqHdr  = 16
	peerRespHdr = 8

	peerOpGet       = 1
	peerOpPut       = 2
	peerOpDel       = 3
	peerOpTouch     = 4
	peerOpPing      = 5
	peerOpTenantAdd = 6
	peerOpTenantDel = 7
	peerOpRegOp     = 8
	peerOpRegPull   = 9
	peerOpRehome    = 10
	peerOpBMGet     = 11

	peerStOK   = 0
	peerStMiss = 1
	peerStErr  = 2
	peerStShed = 3

	peerFlagTTL    = 1 << 0
	peerFlagRegAdd = 1 << 0

	// peerDialTimeout bounds connect+negotiate; peerIOTimeout bounds each
	// request/response exchange. Control-plane traffic, so generous.
	peerDialTimeout = 5 * time.Second
	peerIOTimeout   = 10 * time.Second
)

var peerLE = binary.LittleEndian

// NewPeer returns an unconnected peer client; the first call dials.
func NewPeer(addr string) *Peer { return &Peer{addr: addr} }

// Addr returns the peer's address.
func (p *Peer) Addr() string { return p.addr }

// connLocked returns the live connection, dialing and negotiating if
// needed. Caller holds p.mu.
func (p *Peer) connLocked() (net.Conn, error) {
	if p.conn != nil {
		return p.conn, nil
	}
	conn, err := net.DialTimeout("tcp", p.addr, peerDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial peer %s: %w", p.addr, err)
	}
	conn.SetDeadline(time.Now().Add(peerDialTimeout))
	if _, err := conn.Write([]byte{peerMagic, 'V', 'B', peerVersion}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: negotiate with %s: %w", p.addr, err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: negotiate with %s: %w", p.addr, err)
	}
	if ack[0] != peerMagic {
		conn.Close()
		return nil, fmt.Errorf("cluster: peer %s is busy or not speaking binary", p.addr)
	}
	if ack[3] != peerVersion {
		conn.Close()
		return nil, fmt.Errorf("cluster: peer %s speaks binary v%d, want v%d", p.addr, ack[3], peerVersion)
	}
	conn.SetDeadline(time.Time{})
	p.conn = conn
	return conn, nil
}

// dropLocked discards the connection after an I/O error so the next call
// redials. Caller holds p.mu.
func (p *Peer) dropLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// Close releases the connection.
func (p *Peer) Close() {
	p.mu.Lock()
	p.dropLocked()
	p.mu.Unlock()
}

// appendFrame encodes one request frame (length prefix included) onto dst.
func appendFrame[S ~string | ~[]byte](dst []byte, op, flags uint8, id, ttlMS uint32, tenant, key S, val []byte) []byte {
	n := peerReqHdr + len(tenant) + len(key) + len(val)
	var h [4 + peerReqHdr]byte
	peerLE.PutUint32(h[0:4], uint32(n))
	h[4] = op
	h[5] = flags
	h[6] = uint8(len(tenant))
	peerLE.PutUint32(h[8:12], id)
	peerLE.PutUint32(h[12:16], ttlMS)
	peerLE.PutUint16(h[16:18], uint16(len(key)))
	dst = append(dst, h[:]...)
	dst = append(dst, tenant...)
	dst = append(dst, key...)
	return append(dst, val...)
}

// readRespLocked reads one response frame, returning status and payload.
// The payload aliases p.rbuf and is only valid until the next call. Caller
// holds p.mu.
func (p *Peer) readRespLocked(conn net.Conn) (status uint8, id uint32, payload []byte, err error) {
	var lb [4]byte
	if _, err := io.ReadFull(conn, lb[:]); err != nil {
		return 0, 0, nil, err
	}
	n := int(peerLE.Uint32(lb[:]))
	if n < peerRespHdr || n > 64<<20 {
		return 0, 0, nil, fmt.Errorf("cluster: peer %s sent frame length %d", p.addr, n)
	}
	if cap(p.rbuf) < n {
		p.rbuf = make([]byte, n)
	}
	b := p.rbuf[:n]
	if _, err := io.ReadFull(conn, b); err != nil {
		return 0, 0, nil, err
	}
	return b[0], peerLE.Uint32(b[4:8]), b[peerRespHdr:], nil
}

// roundTrip sends one frame and awaits its response under the mutex.
func (p *Peer) roundTrip(op, flags uint8, ttlMS uint32, tenant, key string, val []byte) (uint8, []byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	conn, err := p.connLocked()
	if err != nil {
		return 0, nil, err
	}
	conn.SetDeadline(time.Now().Add(peerIOTimeout))
	frame := appendFrame(nil, op, flags, 1, ttlMS, tenant, key, val)
	if _, err := conn.Write(frame); err != nil {
		p.dropLocked()
		return 0, nil, fmt.Errorf("cluster: write to %s: %w", p.addr, err)
	}
	st, _, payload, err := p.readRespLocked(conn)
	if err != nil {
		p.dropLocked()
		return 0, nil, fmt.Errorf("cluster: read from %s: %w", p.addr, err)
	}
	conn.SetDeadline(time.Time{})
	// payload aliases p.rbuf, which the next call (possibly from another
	// goroutine, once the mutex drops) overwrites; copy before returning.
	return st, append([]byte(nil), payload...), nil
}

// Ping round-trips a PING frame.
func (p *Peer) Ping() error {
	st, payload, err := p.roundTrip(peerOpPing, 0, 0, "", "", nil)
	if err != nil {
		return err
	}
	if st != peerStOK {
		return fmt.Errorf("cluster: peer %s ping: %s", p.addr, payload)
	}
	return nil
}

// RegOp replicates one registry mutation (add when add is true, else
// remove) stamped with the origin's version, returning the peer's registry
// version after the merge.
func (p *Peer) RegOp(version uint64, add bool, tenant string) (uint64, error) {
	var flags uint8
	if add {
		flags = peerFlagRegAdd
	}
	var vb [8]byte
	peerLE.PutUint64(vb[:], version)
	st, payload, err := p.roundTrip(peerOpRegOp, flags, 0, tenant, "", vb[:])
	if err != nil {
		return 0, err
	}
	if st != peerStOK {
		return 0, fmt.Errorf("cluster: peer %s rejected registry op: %s", p.addr, payload)
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("cluster: peer %s registry op payload %d bytes", p.addr, len(payload))
	}
	return peerLE.Uint64(payload), nil
}

// RegPull fetches the peer's registry snapshot: version and tenant names.
func (p *Peer) RegPull() (uint64, []string, error) {
	st, payload, err := p.roundTrip(peerOpRegPull, 0, 0, "", "", nil)
	if err != nil {
		return 0, nil, err
	}
	if st != peerStOK {
		return 0, nil, fmt.Errorf("cluster: peer %s rejected registry pull: %s", p.addr, payload)
	}
	if len(payload) < 12 {
		return 0, nil, fmt.Errorf("cluster: peer %s registry pull payload %d bytes", p.addr, len(payload))
	}
	version := peerLE.Uint64(payload[0:8])
	count := int(peerLE.Uint32(payload[8:12]))
	names := make([]string, 0, count)
	b := payload[12:]
	for i := 0; i < count; i++ {
		if len(b) < 1 || len(b) < 1+int(b[0]) {
			return 0, nil, fmt.Errorf("cluster: peer %s registry pull truncated", p.addr)
		}
		names = append(names, string(b[1:1+int(b[0])]))
		b = b[1+int(b[0]):]
	}
	return version, names, nil
}

// RehomeEntry is one key in flight to its new owner. TTLMS is the
// remaining TTL in milliseconds; -1 means the entry never expires.
type RehomeEntry struct {
	Tenant string
	Key    string
	Val    []byte
	TTLMS  int64
}

// RehomeBatch streams entries as pipelined REHOME frames and drains the
// responses, returning which entries the peer acknowledged OK (frames
// carry the entry index as their id, and responses are matched on it, as
// the protocol requires of every client). A transport
// error fails the batch; a non-OK status on one entry skips it without
// failing the rest, so one oversized or raced key cannot wedge a drain.
func (p *Peer) RehomeBatch(entries []RehomeEntry) ([]bool, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	conn, err := p.connLocked()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(peerIOTimeout))
	buf := make([]byte, 0, 64<<10)
	for i, e := range entries {
		var flags uint8
		var ttlMS uint32
		if e.TTLMS >= 0 {
			flags = peerFlagTTL
			if e.TTLMS > int64(^uint32(0)) {
				ttlMS = ^uint32(0)
			} else {
				ttlMS = uint32(e.TTLMS)
			}
			if ttlMS == 0 {
				ttlMS = 1 // TTL 0 with the flag means "never"; keep it expiring
			}
		}
		buf = appendFrame(buf, peerOpRehome, flags, uint32(i), ttlMS, e.Tenant, e.Key, e.Val)
		if len(buf) >= 256<<10 {
			if _, err := conn.Write(buf); err != nil {
				p.dropLocked()
				return nil, fmt.Errorf("cluster: rehome write to %s: %w", p.addr, err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := conn.Write(buf); err != nil {
			p.dropLocked()
			return nil, fmt.Errorf("cluster: rehome write to %s: %w", p.addr, err)
		}
	}
	acked := make([]bool, len(entries))
	for range entries {
		st, id, _, err := p.readRespLocked(conn)
		if err != nil {
			p.dropLocked()
			return nil, fmt.Errorf("cluster: rehome read from %s: %w", p.addr, err)
		}
		if st == peerStOK && int(id) < len(acked) {
			acked[id] = true
		}
	}
	conn.SetDeadline(time.Time{})
	return acked, nil
}

// appendBMGetFrame encodes one BMGET request frame onto dst: the header's
// key-length field carries the key COUNT and the body is the tenant name
// followed by count (u16 length, key bytes) entries.
func appendBMGetFrame(dst []byte, id uint32, tenant string, keys []string) []byte {
	n := peerReqHdr + len(tenant)
	for _, k := range keys {
		n += 2 + len(k)
	}
	var h [4 + peerReqHdr]byte
	peerLE.PutUint32(h[0:4], uint32(n))
	h[4] = peerOpBMGet
	h[6] = uint8(len(tenant))
	peerLE.PutUint32(h[8:12], id)
	peerLE.PutUint16(h[16:18], uint16(len(keys)))
	dst = append(dst, h[:]...)
	dst = append(dst, tenant...)
	var kl [2]byte
	for _, k := range keys {
		peerLE.PutUint16(kl[:], uint16(len(k)))
		dst = append(dst, kl[:]...)
		dst = append(dst, k...)
	}
	return dst
}

// BMGetEntry is one key's outcome from a BMGet: a hit with its value, a
// miss, or Shed when the owner refused that key's shard under overload.
type BMGetEntry struct {
	Hit  bool
	Shed bool
	Val  []byte
}

// BMGet fetches a batch of keys from one tenant in a single multi-key
// frame. The response carries one entry per key in request order; a
// frame-level ERR (unknown tenant, malformed batch, injected fault) fails
// the whole call.
func (p *Peer) BMGet(tenant string, keys []string) ([]BMGetEntry, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	conn, err := p.connLocked()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(peerIOTimeout))
	if _, err := conn.Write(appendBMGetFrame(nil, 1, tenant, keys)); err != nil {
		p.dropLocked()
		return nil, fmt.Errorf("cluster: bmget write to %s: %w", p.addr, err)
	}
	st, _, payload, err := p.readRespLocked(conn)
	if err != nil {
		p.dropLocked()
		return nil, fmt.Errorf("cluster: bmget read from %s: %w", p.addr, err)
	}
	conn.SetDeadline(time.Time{})
	if st != peerStOK {
		return nil, fmt.Errorf("cluster: peer %s rejected bmget: %s", p.addr, payload)
	}
	entries, err := parseBMGetPayload(payload, len(keys))
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s bmget: %w", p.addr, err)
	}
	return entries, nil
}

// parseBMGetPayload decodes a coalesced BMGET response body — u16 count,
// then count (u8 status, u32 value length, value bytes) entries — copying
// values out of the shared read buffer.
func parseBMGetPayload(payload []byte, want int) ([]BMGetEntry, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("bmget payload %d bytes", len(payload))
	}
	count := int(peerLE.Uint16(payload[0:2]))
	if count != want {
		return nil, fmt.Errorf("bmget answered %d keys, want %d", count, want)
	}
	entries := make([]BMGetEntry, 0, count)
	b := payload[2:]
	for i := 0; i < count; i++ {
		if len(b) < 5 {
			return nil, fmt.Errorf("bmget payload truncated at entry %d", i)
		}
		st := b[0]
		vlen := int(peerLE.Uint32(b[1:5]))
		b = b[5:]
		if len(b) < vlen {
			return nil, fmt.Errorf("bmget payload truncated at entry %d value", i)
		}
		e := BMGetEntry{}
		switch st {
		case peerStOK:
			e.Hit = true
			e.Val = append([]byte(nil), b[:vlen]...)
		case peerStMiss:
		case peerStShed:
			e.Shed = true
		default:
			return nil, fmt.Errorf("bmget entry %d status %d", i, st)
		}
		b = b[vlen:]
		entries = append(entries, e)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("bmget payload has %d trailing bytes", len(b))
	}
	return entries, nil
}
