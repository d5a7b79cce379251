package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/clock"
	"vantage/internal/textwire"
)

// Native Go fuzz targets for the memcached-style wire protocol. Two layers:
//
//   - FuzzParseRequest drives the parse+dispatch path directly (no sockets):
//     the input's first line is the command, the remainder is the payload
//     stream a PUT would consume. The hard invariant is "no panic, no
//     unbounded allocation"; a soft invariant checks that whatever the
//     dispatcher wrote is newline-terminated, since a partial line would
//     desync every later response on a real connection.
//
//   - FuzzServeConn feeds the raw byte stream to a live server over TCP and
//     drains the responses, with deadlines on both sides so a hang (server
//     neither replying nor closing after input EOF) fails the target rather
//     than wedging it.
//
//   - FuzzBinFrames is FuzzServeConn for the binary protocol: the harness
//     completes the negotiation, then the fuzzed bytes are the frame
//     stream. Framing violations must close, semantic errors must answer
//     ERR, and nothing may hang or panic.
//
//   - FuzzCodecsAgree is differential: the fuzzed bytes are a sequence of
//     data ops played over a text and a binary connection to two identical
//     services, and both codecs must answer and account every op alike.
//
// Regression inputs for anything these find live under
// testdata/fuzz/<FuzzName>/ and run as ordinary test cases forever after.

func fuzzService(f *testing.F) *Service {
	f.Helper()
	svc, err := New(Config{Shards: 1, LinesPerShard: 256, MaxTenants: 4, Seed: 77})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	if _, err := svc.AddTenant("t"); err != nil {
		f.Fatal(err)
	}
	svc.Put("t", "k", []byte("seed-value"))
	return svc
}

func FuzzParseRequest(f *testing.F) {
	svc := fuzzService(f)
	srv := &Server{svc: svc, conns: make(map[net.Conn]struct{})}

	for _, seed := range [][]byte{
		[]byte("GET t k\r\n"),
		[]byte("PUT t k 5\r\nhello\r\n"),
		[]byte("DEL t k\r\n"),
		[]byte("MGET t 3 k a b\r\n"),
		[]byte("PING\r\n"),
		[]byte("STATS\r\n"),
		[]byte("STATS t\r\n"),
		[]byte("TENANT ADD u\r\n"),
		[]byte("TENANT DEL u\r\n"),
		[]byte("TENANT LIST\r\n"),
		[]byte("QUIT\r\n"),
		[]byte("PUT t k 0\r\n\r\n"),
		[]byte("PUT t k 99999999999\r\n"),
		[]byte("MGET t 1024 k\r\n"),
		[]byte("get T K\n"),
		[]byte(" \t \r\n"),
		[]byte("PUT t " + string(bytes.Repeat([]byte("K"), 300)) + " 4\r\nxxxx\r\n"),
		// TTL grammar: the EXPIRE clause and the TOUCH/EXPIRE verb.
		[]byte("PUT t k 5 EXPIRE 100\r\nhello\r\n"),
		[]byte("PUT t k 5 EXPIRE 0\r\nhello\r\n"),
		[]byte("PUT t k 2 EXPIRE nope\r\nhi\r\n"), // malformed clause, payload must drain
		[]byte("PUT t k 2 EXPIRE -1\r\nhi\r\n"),
		[]byte("PUT t k 2 EXPIRE 99999999999999999999\r\nhi\r\n"),
		[]byte("PUT t k 2 EXPIRES 5\r\nhi\r\n"),             // wrong keyword
		[]byte("PUT t k 2 EXPIRE\r\nhi\r\nPING\r\n"),        // arity 5: usage error, payload must drain
		[]byte("PUT t k 2 EXPIRE 5 junk\r\nhi\r\nPING\r\n"), // arity 7: same
		[]byte("TOUCH t k 100\r\n"),
		[]byte("TOUCH t k 0\r\n"),
		[]byte("EXPIRE t k 100\r\n"),
		[]byte("TOUCH t k\r\n"),
		[]byte("TOUCH t k -5\r\n"),
		[]byte("EXPIRE t k 100 extra\r\n"),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(data), 1<<10)
		line, err := textwire.ReadLine(r, maxLineLen)
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		cs := &connState{}
		srv.dispatch(line, r, w, cs)
		w.Flush()
		if out.Len() > 0 && out.Bytes()[out.Len()-1] != '\n' {
			t.Fatalf("dispatch wrote a partial line: %q", out.Bytes())
		}
	})
}

func FuzzServeConn(f *testing.F) {
	svc := fuzzService(f)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	srv := ServeWith(svc, lis, ServerConfig{
		// Deadlines keep a stalled exec bounded and exercise the reaper
		// under fuzzed input; the client-side deadline below is longer, so
		// a hang is always attributed to the server.
		IdleTimeout:  2 * time.Second,
		ReadTimeout:  time.Second,
		WriteTimeout: time.Second,
	})
	f.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	for _, seed := range [][]byte{
		[]byte("PING\r\nGET t k\r\nQUIT\r\n"),
		[]byte("PUT t k 5\r\nhello\r\nGET t k\r\nDEL t k\r\n"),
		[]byte("MGET t 2 k nosuch\r\nSTATS\r\n"),
		[]byte("TENANT ADD u\r\nPUT u x 2\r\nhi\r\nTENANT DEL u\r\n"),
		[]byte("PUT t k 100\r\nshort"),                  // truncated payload
		[]byte("PUT t k 1048577\r\n"),                   // over the value cap
		[]byte("GET t\r\nFROB\r\n\r\nPING\r\n"),         // malformed run
		[]byte{0x00, 0xff, 0xfe, '\r', '\n', 'P', 'I'},  // binary garbage
		bytes.Repeat([]byte("MGET t 1 k\r\n"), 64),      // pipelined batch
		[]byte("PUT t k 10\r\nab\r\nGET t k\r\nxx\r\n"), // payload shorter than declared
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial failed") // transient resource exhaustion, not a finding
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		tc := conn.(*net.TCPConn)
		if _, err := tc.Write(data); err != nil {
			// The server may legitimately close mid-write (oversized PUT,
			// deadline); drain whatever it sent.
			io.Copy(io.Discard, conn)
			return
		}
		tc.CloseWrite()
		if _, err := io.Copy(io.Discard, conn); err != nil && isTimeout(err) {
			t.Fatalf("server hung on input %q", data)
		}
	})
}

func FuzzBinFrames(f *testing.F) {
	svc := fuzzService(f)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	srv := ServeWith(svc, lis, ServerConfig{
		IdleTimeout:  2 * time.Second,
		WriteTimeout: time.Second,
	})
	f.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	seeds := [][]byte{
		binFrame(binwire.OpPing, 0, 1, 0, "", "", ""),
		binFrame(binwire.OpTenantAdd, 0, 2, 0, "u", "", ""),
		binFrame(binwire.OpPut, 0, 3, 0, "t", "k", "hello"),
		binFrame(binwire.OpGet, 0, 4, 0, "t", "k", ""),
		binFrame(binwire.OpDel, 0, 5, 0, "t", "k", ""),
		binFrame(binwire.OpTouch, 0, 6, 250, "t", "k", ""),
		binFrame(binwire.OpPut, binwire.FlagTTL, 7, 100, "t", "k", "v"),
		binFrame(binwire.OpGet, 0, 8, 0, "ghost", "k", ""),   // unknown tenant: ERR
		binFrame(binwire.OpGet, 0, 9, 0, "t", "", ""),        // zero-length key: ERR
		binFrame(binwire.OpGet, 0, 10, 0, "t", "k", "extra"), // value on a GET: ERR
		binFrame(99, 0, 11, 0, "", "", ""),                   // unknown opcode: close
		{4, 0, 0, 0, 1, 0},                                   // truncated frame
		{255, 255, 255, 255},                                 // absurd length: close
		append(binFrame(binwire.OpPing, 0, 12, 0, "", "", ""), binFrame(binwire.OpPing, 0, 13, 0, "", "", "")...),
		// BMGET: valid multi-key, empty list (semantic ERR), truncated key
		// list and trailing bytes (framing: close), oversized count, and two
		// pipelined frames sharing an id.
		bmFrame(14, "t", "k", "nosuch"),
		bmFrame(15, "t"),
		bmFrameN(0, 16, 0, "t", 3, []string{"k"}, ""),
		bmFrameN(0, 17, 0, "t", 1, []string{"k"}, "junk"),
		bmFrameN(0, 18, 0, "t", maxBatchKeys+1, []string{"k"}, ""),
		bmFrameN(binwire.FlagTTL, 19, 250, "t", 1, []string{"k"}, ""),
		append(bmFrame(20, "t", "k"), bmFrame(20, "t", "k", "k2")...),
	}
	for _, seed := range seeds {
		f.Add(seed)
	}

	preamble := []byte{binwire.Magic, 'V', 'B', binwire.Version}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial failed")
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		tc := conn.(*net.TCPConn)
		if _, err := tc.Write(preamble); err != nil {
			return
		}
		var ack [4]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			return // server at cap or closing; not a finding
		}
		if _, err := tc.Write(data); err != nil {
			io.Copy(io.Discard, conn)
			return
		}
		tc.CloseWrite()
		if _, err := io.Copy(io.Discard, conn); err != nil && isTimeout(err) {
			t.Fatalf("binary server hung on input %q", data)
		}
	})
}

// pipeListener is a net.Listener over in-memory pipes: dial hands the
// server end of a fresh net.Pipe to Accept.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

// codecOp is one FuzzCodecsAgree operation, decoded from four fuzz bytes.
type codecOp struct {
	kind    int // 0 GET, 1 PUT, 2 DEL, 3 TOUCH, 4 MGET (BMGET on binary)
	tenant  string
	keys    []string      // one key, or an MGET's one to four
	val     string        // PUT
	ttlMS   int           // PUT: -1 for the default TTL; TOUCH: the new TTL
	advance time.Duration // clock advance before the op
}

// decodeCodecOp decodes op number i from b: two tenants and an unknown
// one, 32 keys per tenant (the rig holds 64 lines, so keys get evicted),
// values of 0 to 21 bytes and TTLs of 0 to 70 ms against clock steps of 0
// to 60 ms and a 30 ms default TTL, so entries expire mid-sequence.
func decodeCodecOp(b []byte, i int) codecOp {
	o := codecOp{kind: int(b[0] % 5), tenant: "a", advance: time.Duration(b[3]%16) * 4 * time.Millisecond}
	switch {
	case b[0]>>5 == 7:
		o.tenant = "ghost"
	case b[0]&0x10 != 0:
		o.tenant = "b"
	}
	n := 1
	if o.kind == 4 {
		n += int(b[1] >> 6)
	}
	for j := 0; j < n; j++ {
		o.keys = append(o.keys, "k"+strconv.Itoa((int(b[1])+7*j)%32))
	}
	o.ttlMS = int(b[2]>>3&7) * 10
	if o.kind == 1 {
		o.val = strings.Repeat(string(rune('a'+i%26)), int(b[2]%8)*3)
		if b[2]>>6 == 0 {
			o.ttlMS = -1
		}
	}
	return o
}

// codecRig is one side of FuzzCodecsAgree: a fresh Service on its own fake
// clock, served over an in-memory pipe to one client connection that speaks
// the text or the binary codec.
type codecRig struct {
	svc  *Service
	clk  *clock.Fake
	lis  *pipeListener
	conn net.Conn
	r    *bufio.Reader
	bin  bool
}

func newCodecRig(t *testing.T, bin bool) *codecRig {
	t.Helper()
	clk := clock.NewFake(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	svc, err := New(Config{Shards: 2, LinesPerShard: 32, MaxTenants: 4, Seed: 28,
		Clock: clk, DefaultTTL: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := svc.AddTenant(name); err != nil {
			t.Fatal(err)
		}
	}
	lis := newPipeListener()
	srv := Serve(svc, lis)
	conn := lis.dial()
	t.Cleanup(func() {
		conn.Close()
		srv.Close()
		svc.Close()
	})
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	x := &codecRig{svc: svc, clk: clk, lis: lis, conn: conn, r: bufio.NewReader(conn), bin: bin}
	if bin {
		negotiate(t, conn, x.r)
	}
	return x
}

// negotiate completes a binary client's preamble exchange on conn.
func negotiate(t *testing.T, conn net.Conn, r io.Reader) {
	t.Helper()
	pre := []byte{binwire.Magic, 'V', 'B', binwire.Version}
	if _, err := conn.Write(pre); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(r, pre); err != nil {
		t.Fatal(err)
	}
}

// play sends o and returns its outcome in a form both codecs share:
// "done", "miss", "err", or "hit:<value>" — comma-joined per key for a
// batch.
func (x *codecRig) play(t *testing.T, o codecOp, id uint32) string {
	t.Helper()
	x.clk.Advance(o.advance)
	var msg []byte
	if x.bin {
		if o.kind == 4 {
			msg = bmFrame(id, o.tenant, o.keys...)
		} else {
			var flags uint8
			ttl := uint32(max(o.ttlMS, 0))
			if o.kind == 1 && o.ttlMS >= 0 {
				flags = binwire.FlagTTL
			}
			op := []uint8{binwire.OpGet, binwire.OpPut, binwire.OpDel, binwire.OpTouch}[o.kind]
			msg = binFrame(op, flags, id, ttl, o.tenant, o.keys[0], o.val)
		}
	} else {
		switch o.kind {
		case 0:
			msg = fmt.Appendf(nil, "GET %s %s\r\n", o.tenant, o.keys[0])
		case 1:
			msg = fmt.Appendf(nil, "PUT %s %s %d", o.tenant, o.keys[0], len(o.val))
			if o.ttlMS >= 0 {
				msg = fmt.Appendf(msg, " EXPIRE %d", o.ttlMS)
			}
			msg = fmt.Appendf(msg, "\r\n%s\r\n", o.val)
		case 2:
			msg = fmt.Appendf(nil, "DEL %s %s\r\n", o.tenant, o.keys[0])
		case 3:
			msg = fmt.Appendf(nil, "TOUCH %s %s %d\r\n", o.tenant, o.keys[0], o.ttlMS)
		case 4:
			msg = fmt.Appendf(nil, "MGET %s %d %s\r\n", o.tenant, len(o.keys), strings.Join(o.keys, " "))
		}
	}
	if _, err := x.conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	if x.bin {
		return x.binOutcome(t, o, id)
	}
	return x.textOutcome(t, o)
}

func (x *codecRig) textOutcome(t *testing.T, o codecOp) string {
	t.Helper()
	line := func() string {
		l, err := x.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(l, "\r\n")
	}
	value := func(l string) string {
		n, err := strconv.Atoi(strings.TrimPrefix(l, "VALUE "))
		if !strings.HasPrefix(l, "VALUE ") || err != nil {
			return textReply(l)
		}
		body := make([]byte, n+2)
		if _, err := io.ReadFull(x.r, body); err != nil {
			t.Fatal(err)
		}
		return "hit:" + string(body[:n])
	}
	if o.kind != 4 {
		return value(line())
	}
	var keys []string
	for l := line(); l != "END"; l = line() {
		if strings.HasPrefix(l, "ERR") {
			return "err"
		}
		keys = append(keys, value(l))
	}
	return strings.Join(keys, ",")
}

// textReply maps a single-line text reply to its shared outcome.
func textReply(l string) string {
	switch {
	case l == "STORED" || l == "DELETED" || l == "TOUCHED":
		return "done"
	case l == "MISS":
		return "miss"
	case strings.HasPrefix(l, "ERR"):
		return "err"
	}
	return "unexpected " + l
}

func (x *codecRig) binOutcome(t *testing.T, o codecOp, id uint32) string {
	t.Helper()
	var lb [4]byte
	if _, err := io.ReadFull(x.r, lb[:]); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, binary.LittleEndian.Uint32(lb[:]))
	if _, err := io.ReadFull(x.r, b); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(b[4:8]) != id {
		t.Fatalf("binary reply id %d, want %d", binary.LittleEndian.Uint32(b[4:8]), id)
	}
	status, payload := b[0], b[binwire.RespHdr:]
	switch {
	case status == binwire.StErr:
		return "err"
	case status == binwire.StMiss:
		return "miss"
	case status != binwire.StOK:
		return "unexpected status " + strconv.Itoa(int(status))
	case o.kind == 0:
		return "hit:" + string(payload)
	case o.kind != 4:
		return "done"
	}
	var keys []string
	for _, e := range parseBMGet(t, payload) {
		if e.status == binwire.StMiss {
			keys = append(keys, "miss")
		} else {
			keys = append(keys, "hit:"+e.val)
		}
	}
	return strings.Join(keys, ",")
}

// FuzzCodecsAgree plays one op sequence over a text and a binary
// connection, each to its own fresh Service with the same Config and a fake
// clock advanced identically between ops (MGET is BMGET on the binary
// side), and requires the same outcome and value for every op and the same
// per-tenant Stats at the end.
func FuzzCodecsAgree(f *testing.F) {
	// An op is four bytes: kind and tenant, key (and batch size), value
	// length and TTL, clock step; see decodeCodecOp.
	for _, seed := range [][]byte{
		{1, 3, 0x02, 0, 0, 3, 0, 0},                   // PUT, GET: a hit
		{1, 5, 0x02, 0, 0, 5, 0, 15},                  // PUT under the default TTL, GET 60 ms later: expired
		{1, 5, 0x42, 0, 3, 5, 0x08, 0, 0, 5, 0, 3},    // PUT that never expires, TOUCH to 10 ms, GET 12 ms later
		{1, 0xc1, 0x5a, 0, 4, 0xc1, 0, 0, 2, 1, 0, 0}, // PUT, MGET of four keys, DEL
		{0xe2, 2, 0x02, 0, 0xe0, 0xc2, 0, 0},          // the unknown tenant: PUT, MGET
		{0x10, 9, 0, 0, 0x14, 9, 0, 0, 0, 9, 0, 0},    // an empty value in tenant b, read from b and from a
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			t.Skip("oversized input")
		}
		tx, bx := newCodecRig(t, false), newCodecRig(t, true)
		for i := 0; len(data) >= 4; i++ {
			o := decodeCodecOp(data[:4], i)
			data = data[4:]
			if got, want := bx.play(t, o, uint32(i)), tx.play(t, o, uint32(i)); got != want {
				t.Fatalf("op %d %+v: binary %q, text %q", i, o, got, want)
			}
		}
		ts, bs := tx.svc.Stats(), bx.svc.Stats()
		if !slices.Equal(ts.Tenants, bs.Tenants) {
			t.Fatalf("tenant stats differ:\ntext   %+v\nbinary %+v", ts.Tenants, bs.Tenants)
		}
	})
}
