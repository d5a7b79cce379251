package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
)

// The harness's own clients for the two documented wire protocols (see
// internal/service/protocol.go and binproto.go). They are written against
// the protocol text, not the repository's client code, so the servers are
// measured from outside; and they allocate nothing per request, so
// allocs_per_op counts the program's allocations only.

// Binary protocol constants.
const (
	binMagic   = 0x83
	binVersion = 1
	binReqHdr  = 16
	binRespHdr = 8

	opGet   = 1
	opPut   = 2
	opBMGet = 11

	stOK   = 0
	stMiss = 1

	flagTTL = 1
)

var errProtocol = errors.New("protocol violation")

// conn is a TCP connection with a write buffer the caller fills with whole
// requests and a read buffer the caller parses whole responses out of.
type conn struct {
	c    net.Conn
	wbuf []byte
	rbuf []byte
	r, w int // rbuf[r:w] is unread
	tr   *tracer
}

// Span names of the client tracers, in tracer index order.
const (
	spRTT = iota
	spEncode
	spWrite
	spRead
	spFill
)

var clientSpanNames = []string{"round_trip", "encode", "write", "read", "fill_round_trip"}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, wbuf: make([]byte, 0, 64<<10), rbuf: make([]byte, 64<<10)}, nil
}

// dialProto connects for the text protocol, or for the binary one.
func dialProto(addr string, bin bool) (*conn, error) {
	if bin {
		return dialBinary(addr)
	}
	return dial(addr)
}

// dialBinary connects and negotiates the binary framing.
func dialBinary(addr string) (*conn, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c.wbuf = append(c.wbuf, binMagic, 'V', 'B', binVersion)
	if err := c.flush(); err != nil {
		c.close()
		return nil, err
	}
	ack, err := c.next(4)
	if err != nil {
		c.close()
		return nil, err
	}
	if !bytes.Equal(ack, []byte{binMagic, 'V', 'B', binVersion}) {
		c.close()
		return nil, fmt.Errorf("binary negotiation answered %q", ack)
	}
	return c, nil
}

func (c *conn) close() { _ = c.c.Close() } // the peer sees EOF either way

// flush writes the buffered requests in one write.
func (c *conn) flush() error {
	c.tr.begin(spWrite, 0)
	_, err := c.c.Write(c.wbuf)
	c.tr.end()
	c.wbuf = c.wbuf[:0]
	return err
}

// fill reads more bytes, compacting the buffer first when it has run out of
// room at the end.
func (c *conn) fill() error {
	if c.r == c.w {
		c.r, c.w = 0, 0
	} else if c.w == len(c.rbuf) {
		if c.r == 0 {
			return fmt.Errorf("%w: response larger than the read buffer", errProtocol)
		}
		c.w = copy(c.rbuf, c.rbuf[c.r:c.w])
		c.r = 0
	}
	c.tr.begin(spRead, 0)
	n, err := c.c.Read(c.rbuf[c.w:])
	c.tr.end()
	c.w += n
	return err
}

// next returns the next n unread bytes; they stay valid until the next call.
func (c *conn) next(n int) ([]byte, error) {
	for c.w-c.r < n {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	b := c.rbuf[c.r : c.r+n]
	c.r += n
	return b, nil
}

// line returns the next CRLF-terminated line without its terminator.
func (c *conn) line() ([]byte, error) {
	scanned := 0
	for {
		if i := bytes.IndexByte(c.rbuf[c.r+scanned:c.w], '\n'); i >= 0 {
			end := c.r + scanned + i
			b := c.rbuf[c.r:end]
			c.r = end + 1
			return bytes.TrimSuffix(b, []byte{'\r'}), nil
		}
		scanned = c.w - c.r
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
}

// ---- binary requests -------------------------------------------------------

// binHeader appends a request frame's length prefix and fixed header.
func (c *conn) binHeader(op, flags byte, id, ttlMS uint32, klen, bodyLen int, tenant []byte) {
	b := c.wbuf
	b = binary.LittleEndian.AppendUint32(b, uint32(binReqHdr+len(tenant)+bodyLen))
	b = append(b, op, flags, byte(len(tenant)), 0)
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.LittleEndian.AppendUint32(b, ttlMS)
	b = binary.LittleEndian.AppendUint16(b, uint16(klen))
	b = append(b, 0, 0)
	c.wbuf = append(b, tenant...)
}

func (c *conn) binGet(tenant, key []byte, id uint32) {
	c.binHeader(opGet, 0, id, 0, len(key), len(key), tenant)
	c.wbuf = append(c.wbuf, key...)
}

// binPut appends a PUT; ttlMS 0 means the service's default TTL.
func (c *conn) binPut(tenant, key, val []byte, id, ttlMS uint32) {
	flags := byte(0)
	if ttlMS > 0 {
		flags = flagTTL
	}
	c.binHeader(opPut, flags, id, ttlMS, len(key), len(key)+len(val), tenant)
	c.wbuf = append(append(c.wbuf, key...), val...)
}

// binBMGet appends one BMGET frame for keys, each keyLen bytes.
func (c *conn) binBMGet(tenant []byte, keys [][keyLen]byte, id uint32) {
	c.binHeader(opBMGet, 0, id, 0, len(keys), len(keys)*(2+keyLen), tenant)
	for i := range keys {
		c.wbuf = binary.LittleEndian.AppendUint16(c.wbuf, keyLen)
		c.wbuf = append(c.wbuf, keys[i][:]...)
	}
}

// binResponse reads one response frame. The payload stays valid until the
// next read.
func (c *conn) binResponse() (status, op byte, id uint32, payload []byte, err error) {
	hdr, err := c.next(4)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < binRespHdr || n > len(c.rbuf)-4 {
		return 0, 0, 0, nil, fmt.Errorf("%w: response frame of %d bytes", errProtocol, n)
	}
	f, err := c.next(n)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return f[0], f[1], binary.LittleEndian.Uint32(f[4:]), f[binRespHdr:], nil
}

// bmgetEntry decodes the next per-key entry of a BMGET payload and returns
// the rest.
func bmgetEntry(p []byte) (status byte, val, rest []byte, err error) {
	if len(p) < 5 {
		return 0, nil, nil, fmt.Errorf("%w: short BMGET entry", errProtocol)
	}
	n := int(binary.LittleEndian.Uint32(p[1:]))
	if len(p) < 5+n {
		return 0, nil, nil, fmt.Errorf("%w: BMGET value overruns the frame", errProtocol)
	}
	return p[0], p[5 : 5+n], p[5+n:], nil
}

// ---- text requests ---------------------------------------------------------

func (c *conn) textGet(tenant, key []byte) {
	c.wbuf = append(append(append(append(append(c.wbuf, "GET "...), tenant...), ' '), key...), "\r\n"...)
}

// textPut appends a PUT; ttlMS 0 sends no EXPIRE clause.
func (c *conn) textPut(tenant, key, val []byte, ttlMS int) {
	b := append(append(append(append(append(c.wbuf, "PUT "...), tenant...), ' '), key...), ' ')
	b = strconv.AppendInt(b, int64(len(val)), 10)
	if ttlMS > 0 {
		b = strconv.AppendInt(append(b, " EXPIRE "...), int64(ttlMS), 10)
	}
	c.wbuf = append(append(append(b, "\r\n"...), val...), "\r\n"...)
}

func (c *conn) textMGet(tenant []byte, keys [][keyLen]byte) {
	b := append(append(append(c.wbuf, "MGET "...), tenant...), ' ')
	b = strconv.AppendInt(b, int64(len(keys)), 10)
	for i := range keys {
		b = append(append(b, ' '), keys[i][:]...)
	}
	c.wbuf = append(b, "\r\n"...)
}

// textValue reads one "VALUE <n>" block or "MISS". The value stays valid
// until the next read.
func (c *conn) textValue() (val []byte, hit bool, err error) {
	l, err := c.line()
	if err != nil {
		return nil, false, err
	}
	if bytes.Equal(l, []byte("MISS")) {
		return nil, false, nil
	}
	rest, ok := bytes.CutPrefix(l, []byte("VALUE "))
	if !ok {
		return nil, false, fmt.Errorf("%w: %q where a VALUE block was due", errProtocol, l)
	}
	n := 0
	for _, d := range rest {
		if d < '0' || d > '9' || n > len(c.rbuf) {
			return nil, false, fmt.Errorf("%w: bad VALUE length %q", errProtocol, rest)
		}
		n = n*10 + int(d-'0')
	}
	b, err := c.next(n + 2)
	if err != nil {
		return nil, false, err
	}
	return b[:n], true, nil
}

// textExpect reads one line and reports whether it is want.
func (c *conn) textExpect(want string) (bool, error) {
	l, err := c.line()
	return string(l) == want, err
}
