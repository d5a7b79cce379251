package loadgen

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"

	"vantage/internal/binwire"
	"vantage/internal/textwire"
)

// codec is the encoding a connection speaks.
type codec uint8

const (
	codecText   codec = iota
	codecBinary       // a read batch is one GET frame per key
	codecBMGet        // binary, and a read batch is one BMGET frame
)

// answer is one key's reply as a binwire status (StOK, StMiss, StShed or
// StErr), with an ERR's message.
type answer struct {
	st  uint8
	msg string
}

// pending marks a key no reply has answered yet.
const pending = 0xff

// dialTCP opens a connection to a node.
var dialTCP = net.Dial

// conn is one connection to one node in one codec. A worker writes a batch
// of requests with send and reads their answers with recv, one per key.
type conn struct {
	nc    net.Conn
	r     *bufio.Reader
	codec codec
	id    uint32   // the last binary request id sent
	base  uint32   // id before the batch in flight: its frames are base+1...
	out   []byte   // the batch being written
	rbuf  []byte   // binary response frame scratch
	ans   []answer // the batch's answers, in key order
}

func newConn(nc net.Conn, cd codec) *conn {
	return &conn{nc: nc, r: bufio.NewReader(nc), codec: cd}
}

// dial connects to addr in codec cd and registers tenant: a text TENANT
// ADD, or the preamble and a TENANT_ADD frame. A server at its connection
// cap answers BUSY and closes before reading either; whatever the timing
// makes of that (the BUSY line, an ack without the magic byte, EOF or a
// reset), dial returns ErrBusy.
func dial(addr string, cd codec, tenant string) (*conn, error) {
	nc, err := dialTCP("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newConn(nc, cd)
	if err := c.register(tenant); err != nil {
		nc.Close()
		if errors.Is(err, binwire.ErrNotBinary) || isConnErr(err) {
			return nil, fmt.Errorf("%w (%v)", ErrBusy, err)
		}
		return nil, err
	}
	return c, nil
}

func (c *conn) register(tenant string) error {
	if c.codec == codecText {
		resp, err := c.roundTrip("TENANT ADD " + tenant)
		switch {
		case err != nil:
			return err
		case resp == "BUSY":
			return ErrBusy
		case !strings.HasPrefix(resp, "OK"):
			return fmt.Errorf("loadgen: TENANT ADD: %s", resp)
		}
		return nil
	}
	if err := binwire.Handshake(c.nc, c.r, binwire.RoleClient); err != nil {
		return err
	}
	if err := c.send(binwire.OpTenantAdd, tenant, []string{""}, nil, 0, 0); err != nil {
		return err
	}
	ans, err := c.recv(binwire.OpTenantAdd, 1)
	if err == nil && ans[0].st != binwire.StOK {
		err = fmt.Errorf("loadgen: binary TENANT_ADD: %s", ans[0].msg)
	}
	return err
}

func (c *conn) close() { c.nc.Close() }

// roundTrip sends one text command line and reads its one-line reply.
func (c *conn) roundTrip(line string) (string, error) {
	if _, err := c.nc.Write([]byte(line + "\r\n")); err != nil {
		return "", err
	}
	resp, err := c.readLine()
	return string(resp), err
}

// readLine reads one text reply line without its CRLF; it aliases the
// reader's buffer until the next read.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	return bytes.TrimRight(line, "\r\n"), err
}

// send writes one batch of op for tenant: a PUT of val (with flags and ttl
// from binwire.TTL) or a GET per key, or with op BMGET one read of every
// key, which is one MGET line, one BMGET frame, or in codecBinary a GET
// frame per key. Binary frames take consecutive ids; dial sends its
// TENANT_ADD frame here too.
func (c *conn) send(op uint8, tenant string, keys []string, val []byte, flags uint8, ttl uint32) error {
	c.base, c.out = c.id, c.out[:0]
	switch {
	case op == binwire.OpBMGet && c.codec == codecText:
		c.out = binwire.AppendTextMGet(c.out, tenant, keys)
	case op == binwire.OpBMGet && c.codec == codecBMGet:
		c.id++
		c.out = binwire.AppendBMGet(c.out, c.id, tenant, keys)
	default:
		if op == binwire.OpBMGet {
			op = binwire.OpGet
		}
		for _, k := range keys {
			if c.codec == codecText {
				c.out = binwire.AppendTextReq(c.out, op, flags, ttl, tenant, k, val)
			} else {
				c.id++
				c.out = binwire.AppendReq(c.out, op, flags, c.id, ttl, tenant, k, val)
			}
		}
	}
	_, err := c.nc.Write(c.out)
	return err
}

// recv reads the answers to the n keys of the batch send wrote, in key
// order. Every key is answered even when some are refused, so the stream
// stays in step; an error means it cannot be, and keys it left unread stay
// pending.
func (c *conn) recv(op uint8, n int) ([]answer, error) {
	c.ans = c.ans[:0]
	for range n {
		c.ans = append(c.ans, answer{st: pending})
	}
	if c.codec == codecText {
		return c.ans, c.recvText(op)
	}
	return c.ans, c.recvBin(op)
}

// recvText reads one reply line per key, and an MGET's END. An ERR line in
// an MGET answers the rest of the batch, with no END: a refused batch gets
// that one line.
func (c *conn) recvText(op uint8) error {
	for i := range c.ans {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		a, skip, err := textAnswer(op, line)
		if err != nil {
			return err
		}
		if _, err := c.r.Discard(skip); err != nil {
			return err
		}
		if c.ans[i] = a; op == binwire.OpBMGet && a.st >= binwire.StErr {
			for j := i + 1; j < len(c.ans); j++ {
				c.ans[j] = a
			}
			return nil
		}
	}
	if op != binwire.OpBMGet {
		return nil
	}
	line, err := c.readLine()
	if err == nil && string(line) != "END" {
		err = fmt.Errorf("loadgen: MGET missing END, got %q", line)
	}
	return err
}

// textAnswer maps one text reply line to its status, the one place text
// replies are read: STORED to a PUT, VALUE or MISS to a read, ERR SHED,
// and any other line as an ERR. skip is the length of the value block and
// CRLF that follow a VALUE line.
func textAnswer(op uint8, line []byte) (a answer, skip int, err error) {
	switch {
	case op == binwire.OpPut && string(line) == "STORED":
		return answer{st: binwire.StOK}, 0, nil
	case op != binwire.OpPut && string(line) == "MISS":
		return answer{st: binwire.StMiss}, 0, nil
	case op != binwire.OpPut && bytes.HasPrefix(line, []byte("VALUE ")):
		n, ok := textwire.ParseUint(line[len("VALUE "):])
		if !ok {
			return a, 0, fmt.Errorf("loadgen: bad VALUE header %q", line)
		}
		return answer{st: binwire.StOK}, n + 2, nil
	case bytes.HasPrefix(line, []byte("ERR SHED")):
		return answer{st: binwire.StShed}, 0, nil
	}
	return answer{st: binwire.StErr, msg: string(bytes.TrimPrefix(line, []byte("ERR ")))}, 0, nil
}

// recvBin reads the batch's response frames, matching each by its echoed
// id, which is all the protocol promises about order. A BMGET's one frame
// carries every key's status, or one ERR for the whole batch.
func (c *conn) recvBin(op uint8) error {
	bm, frames := op == binwire.OpBMGet && c.codec == codecBMGet, len(c.ans)
	if bm {
		frames = 1
	}
	for range frames {
		resp, err := binwire.ReadResp(c.r, &c.rbuf)
		if err != nil {
			return err
		}
		i := int(resp.ID - c.base - 1)
		if i < 0 || i >= frames || c.ans[i].st != pending {
			return fmt.Errorf("loadgen: binary response id %d outside batch window [%d,%d] or repeated (stream desynced)", resp.ID, c.base+1, c.base+uint32(frames))
		}
		a := answer{st: resp.Status}
		if a.st == binwire.StErr {
			a.msg = string(resp.Payload)
		}
		switch {
		case !bm:
			c.ans[i] = a
		case a.st != binwire.StOK:
			for j := range c.ans {
				c.ans[j] = a
			}
		default:
			b, err := binwire.CheckReply(resp.Payload, len(c.ans))
			if err != nil {
				return fmt.Errorf("loadgen: %w", err)
			}
			for j := range c.ans {
				c.ans[j].st, _, b = binwire.NextEntry(b)
			}
		}
	}
	return nil
}
