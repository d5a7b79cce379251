package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"vantage/internal/binwire"
)

// Peer is a binary-protocol client (package binwire) for node-to-node
// traffic: registry replication (REG_OP/REG_PULL) and key re-homing
// (REHOME). A Peer is safe for concurrent use; calls serialize on one
// mutex because peer traffic is control-plane (broadcasts, drains), not
// the data path.
type Peer struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	rbuf []byte
}

const (
	// peerDialTimeout bounds connect+negotiate; peerIOTimeout bounds each
	// request/response exchange. Control-plane traffic, so generous.
	peerDialTimeout = 5 * time.Second
	peerIOTimeout   = 10 * time.Second
)

var le = binary.LittleEndian

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
	if err := binwire.Handshake(conn, conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: negotiate with %s: %w", p.addr, err)
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

// roundTrip sends one request frame and awaits its response under the
// mutex. A status other than OK fails the call, naming what was asked.
func (p *Peer) roundTrip(frame []byte, what string) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	conn, err := p.connLocked()
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(peerIOTimeout))
	if _, err := conn.Write(frame); err != nil {
		p.dropLocked()
		return nil, fmt.Errorf("cluster: write to %s: %w", p.addr, err)
	}
	resp, err := binwire.ReadResp(conn, &p.rbuf)
	if err != nil {
		p.dropLocked()
		return nil, fmt.Errorf("cluster: read from %s: %w", p.addr, err)
	}
	conn.SetDeadline(time.Time{})
	if resp.Status != binwire.StOK {
		return nil, fmt.Errorf("cluster: peer %s rejected %s: %s", p.addr, what, resp.Payload)
	}
	// The payload aliases p.rbuf, which the next call (possibly from another
	// goroutine, once the mutex drops) overwrites; copy before returning.
	return append([]byte(nil), resp.Payload...), nil
}

// Ping round-trips a PING frame.
func (p *Peer) Ping() error {
	_, err := p.roundTrip(binwire.AppendReq(nil, binwire.OpPing, 0, 1, 0, "", "", nil), "ping")
	return err
}

// RegOp replicates one registry mutation (add when add is true, else
// remove) stamped with the origin's version, returning the peer's registry
// version after the merge.
func (p *Peer) RegOp(version uint64, add bool, tenant string) (uint64, error) {
	var flags uint8
	if add {
		flags = binwire.FlagRegAdd
	}
	var vb [8]byte
	le.PutUint64(vb[:], version)
	payload, err := p.roundTrip(binwire.AppendReq(nil, binwire.OpRegOp, flags, 1, 0, tenant, "", vb[:]), "registry op")
	if err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("cluster: peer %s registry op payload %d bytes", p.addr, len(payload))
	}
	return le.Uint64(payload), nil
}

// RegPull fetches the peer's registry snapshot: version and tenant names.
func (p *Peer) RegPull() (uint64, []string, error) {
	payload, err := p.roundTrip(binwire.AppendReq(nil, binwire.OpRegPull, 0, 1, 0, "", "", nil), "registry pull")
	if err != nil {
		return 0, nil, err
	}
	if len(payload) < 12 {
		return 0, nil, fmt.Errorf("cluster: peer %s registry pull payload %d bytes", p.addr, len(payload))
	}
	version := le.Uint64(payload[0:8])
	count := int(le.Uint32(payload[8:12]))
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
		flags, ttlMS := binwire.TTL(e.TTLMS)
		if flags != 0 && ttlMS == 0 {
			ttlMS = 1 // TTL 0 with the flag means "never"; keep it expiring
		}
		buf = binwire.AppendReq(buf, binwire.OpRehome, flags, uint32(i), ttlMS, e.Tenant, e.Key, e.Val)
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
		resp, err := binwire.ReadResp(conn, &p.rbuf)
		if err != nil {
			p.dropLocked()
			return nil, fmt.Errorf("cluster: rehome read from %s: %w", p.addr, err)
		}
		if resp.Status == binwire.StOK && int(resp.ID) < len(acked) {
			acked[resp.ID] = true
		}
	}
	conn.SetDeadline(time.Time{})
	return acked, nil
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
	payload, err := p.roundTrip(binwire.AppendBMGet(nil, 1, tenant, keys), "bmget")
	if err != nil {
		return nil, err
	}
	b, err := binwire.CheckReply(payload, len(keys))
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s bmget: %w", p.addr, err)
	}
	// Values alias roundTrip's copy of the payload.
	entries := make([]BMGetEntry, len(keys))
	for i := range entries {
		var st uint8
		var val []byte
		st, val, b = binwire.NextEntry(b)
		switch st {
		case binwire.StOK:
			entries[i] = BMGetEntry{Hit: true, Val: val}
		case binwire.StMiss:
		case binwire.StShed:
			entries[i].Shed = true
		default:
			return nil, fmt.Errorf("cluster: peer %s bmget: entry %d status %d", p.addr, i, st)
		}
	}
	return entries, nil
}
