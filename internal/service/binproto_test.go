package service

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/clock"
)

// stepConn is a connection in the text or the binary codec that reads its
// requests from in: tests drive the one loop's step on it without a
// socket, and read its replies from out.
func stepConn(srv *Server, text bool, in string) *conn {
	return &conn{s: srv, text: text, r: bufio.NewReaderSize(strings.NewReader(in), 16<<10)}
}

// binFrame encodes one binary request frame (length prefix included).
func binFrame(op, flags uint8, id, ttlMS uint32, tenant, key, val string) []byte {
	n := binwire.ReqHdr + len(tenant) + len(key) + len(val)
	b := make([]byte, 4+n)
	binary.LittleEndian.PutUint32(b[0:4], uint32(n))
	b[4] = op
	b[5] = flags
	b[6] = uint8(len(tenant))
	binary.LittleEndian.PutUint32(b[8:12], id)
	binary.LittleEndian.PutUint32(b[12:16], ttlMS)
	binary.LittleEndian.PutUint16(b[16:18], uint16(len(key)))
	p := b[4+binwire.ReqHdr:]
	copy(p, tenant)
	copy(p[len(tenant):], key)
	copy(p[len(tenant)+len(key):], val)
	return b
}

// binResp is one decoded response frame.
type binResp struct {
	status, op uint8
	id         uint32
	payload    []byte
}

// binTestClient speaks the binary protocol for tests.
type binTestClient struct {
	t    *testing.T
	conn net.Conn
}

// dialBin connects and completes the binary negotiation as a client.
func dialBin(t *testing.T, addr string) *binTestClient {
	t.Helper()
	return dialAs(t, addr, binwire.RoleClient)
}

// dialPeer connects and negotiates as a peer node, which alone may send
// REG_OP, REG_PULL and REHOME.
func dialPeer(t *testing.T, addr string) *binTestClient {
	t.Helper()
	return dialAs(t, addr, binwire.RolePeer)
}

func dialAs(t *testing.T, addr string, role binwire.Role) *binTestClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	pre := [4]byte{binwire.Magic, 'V', byte(role), binwire.Version}
	if _, err := conn.Write(pre[:]); err != nil {
		t.Fatal(err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatalf("negotiation ack: %v", err)
	}
	if ack != pre {
		t.Fatalf("negotiation ack = %v, want %v", ack, pre)
	}
	return &binTestClient{t: t, conn: conn}
}

func (c *binTestClient) send(op, flags uint8, id, ttlMS uint32, tenant, key, val string) {
	c.t.Helper()
	if _, err := c.conn.Write(binFrame(op, flags, id, ttlMS, tenant, key, val)); err != nil {
		c.t.Fatal(err)
	}
}

func (c *binTestClient) resp() binResp {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var lb [4]byte
	if _, err := io.ReadFull(c.conn, lb[:]); err != nil {
		c.t.Fatalf("response length: %v", err)
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n < binwire.RespHdr || n > binwire.MaxFrame {
		c.t.Fatalf("response frame length %d out of range", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c.conn, b); err != nil {
		c.t.Fatalf("response body: %v", err)
	}
	return binResp{
		status:  b[0],
		op:      b[1],
		id:      binary.LittleEndian.Uint32(b[4:8]),
		payload: b[binwire.RespHdr:],
	}
}

// expect sends one request and asserts the response status/id/payload.
func (c *binTestClient) expect(op, flags uint8, id, ttlMS uint32, tenant, key, val string, wantStatus uint8, wantPayload string) {
	c.t.Helper()
	c.send(op, flags, id, ttlMS, tenant, key, val)
	r := c.resp()
	if r.status != wantStatus || r.op != op || r.id != id || string(r.payload) != wantPayload {
		c.t.Fatalf("op %d id %d: got status=%d op=%d id=%d payload=%q, want status=%d payload=%q",
			op, id, r.status, r.op, r.id, r.payload, wantStatus, wantPayload)
	}
}

// closedSoon asserts the server closes the connection (EOF/reset, not a
// client-side timeout).
func (c *binTestClient) closedSoon() {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		c.t.Fatalf("connection not closed by server: read err %v", err)
	}
}

// TestBinaryRoundTrip covers every opcode over one negotiated connection,
// with a text client interleaved on the same listener to pin down that the
// protocols coexist per-connection.
func TestBinaryRoundTrip(t *testing.T) {
	svc, srv := newTestServer(t)
	c := dialBin(t, srv.Addr().String())

	c.expect(binwire.OpPing, 0, 1, 0, "", "", "", binwire.StOK, "")
	c.expect(binwire.OpTenantAdd, 0, 2, 0, "alice", "", "", binwire.StOK, "\x00\x00\x00\x00")
	c.expect(binwire.OpTenantAdd, 0, 3, 0, "alice", "", "", binwire.StOK, "\x00\x00\x00\x00") // idempotent

	c.expect(binwire.OpPut, 0, 4, 0, "alice", "greeting", "hello", binwire.StOK, "")
	c.expect(binwire.OpGet, 0, 5, 0, "alice", "greeting", "", binwire.StOK, "hello")
	c.expect(binwire.OpGet, 0, 6, 0, "alice", "nosuch", "", binwire.StMiss, "")
	c.expect(binwire.OpTouch, 0, 7, 60000, "alice", "greeting", "", binwire.StOK, "")
	c.expect(binwire.OpTouch, 0, 8, 60000, "alice", "nosuch", "", binwire.StMiss, "")
	c.expect(binwire.OpDel, 0, 9, 0, "alice", "greeting", "", binwire.StOK, "")
	c.expect(binwire.OpDel, 0, 10, 0, "alice", "greeting", "", binwire.StMiss, "")

	// Explicit-TTL PUT (flag set): stored and readable; ttl_ms=0 with the
	// flag means "never expire" and must not round-trip through the default.
	c.expect(binwire.OpPut, binwire.FlagTTL, 11, 0, "alice", "pinned", "v", binwire.StOK, "")
	c.expect(binwire.OpGet, 0, 12, 0, "alice", "pinned", "", binwire.StOK, "v")

	// A text client on the same listener is untouched by the binary traffic.
	tc := dialTest(t, srv.Addr().String())
	tc.expect("PING", "PONG")
	tc.expect("GET alice pinned", "VALUE 1")
	if got := tc.line(); got != "v" {
		t.Fatalf("text GET body: %q", got)
	}

	// And the binary connection still works after the text exchange.
	c.expect(binwire.OpGet, 0, 13, 0, "alice", "pinned", "", binwire.StOK, "v")

	st := svc.Stats()
	if st.BinConns != 1 || st.BinConnsActive != 1 || st.BinFrames == 0 {
		t.Fatalf("binary counters: conns=%d active=%d frames=%d", st.BinConns, st.BinConnsActive, st.BinFrames)
	}

	// STATS over text exposes the binary counters.
	tc.send("STATS")
	var sawBin bool
	for _, l := range tc.linesUntilEND() {
		if strings.HasPrefix(l, "STAT bin_frames ") {
			sawBin = true
		}
	}
	if !sawBin {
		t.Fatal("STATS missing bin_frames")
	}
}

// TestBinaryVersionMismatch: the server answers with its own version before
// closing, so the client learns what to downgrade to.
func TestBinaryVersionMismatch(t *testing.T) {
	_, srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{binwire.Magic, 'V', 'B', binwire.Version + 9}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatalf("no ack on version mismatch: %v", err)
	}
	if ack[3] != binwire.Version {
		t.Fatalf("ack version = %d, want %d", ack[3], binwire.Version)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection left open after version mismatch")
	}
}

// TestBinaryBadPreamble: a magic byte followed by a broken preamble closes
// without an ack.
func TestBinaryBadPreamble(t *testing.T) {
	_, srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{binwire.Magic, 'X', 'B', binwire.Version}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("bad preamble not closed: %v", err)
	}
}

// TestBinaryPipelined: a batch written as one TCP segment answers every
// frame, ids echoed in order (single shard preserves FIFO), coalesced or
// not.
func TestBinaryPipelined(t *testing.T) {
	_, srv := newTestServer(t)
	c := dialBin(t, srv.Addr().String())
	c.expect(binwire.OpTenantAdd, 0, 0, 0, "t", "", "", binwire.StOK, "\x00\x00\x00\x00")

	const k = 64
	var batch []byte
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			batch = append(batch, binFrame(binwire.OpPut, 0, uint32(100+i), 0, "t", "key", "value")...)
		} else {
			batch = append(batch, binFrame(binwire.OpGet, 0, uint32(100+i), 0, "t", "key", "")...)
		}
	}
	if _, err := c.conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		r := c.resp()
		if r.id != uint32(100+i) {
			t.Fatalf("response %d: id=%d, want %d", i, r.id, 100+i)
		}
		if r.status != binwire.StOK {
			t.Fatalf("response %d: status=%d", i, r.status)
		}
		if i%2 == 1 && string(r.payload) != "value" {
			t.Fatalf("GET %d payload %q", i, r.payload)
		}
	}
}

// TestBinaryPipelinedAfterTenantAdd: data frames written in the same
// segment as an unacknowledged TENANT_ADD see the new tenant, because each
// frame executes before the next one is decoded.
func TestBinaryPipelinedAfterTenantAdd(t *testing.T) {
	_, srv := newTestServer(t)
	c := dialBin(t, srv.Addr().String())
	batch := binFrame(binwire.OpTenantAdd, 0, 1, 0, "t", "", "")
	batch = append(batch, binFrame(binwire.OpPut, 0, 2, 0, "t", "k", "v")...)
	batch = append(batch, binFrame(binwire.OpGet, 0, 3, 0, "t", "k", "")...)
	if _, err := c.conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	for _, want := range []binResp{
		{binwire.StOK, binwire.OpTenantAdd, 1, []byte("\x00\x00\x00\x00")},
		{binwire.StOK, binwire.OpPut, 2, nil},
		{binwire.StOK, binwire.OpGet, 3, []byte("v")},
	} {
		r := c.resp()
		if r.status != want.status || r.op != want.op || r.id != want.id || string(r.payload) != string(want.payload) {
			t.Fatalf("got status=%d op=%d id=%d payload=%q, want %d/%d/%d/%q",
				r.status, r.op, r.id, r.payload, want.status, want.op, want.id, want.payload)
		}
	}
}

// TestBinaryFramingViolationCloses: corrupting the framing itself (reserved
// bytes, unknown opcode, absurd length) closes the connection — the stream
// can no longer be trusted.
func TestBinaryFramingViolationCloses(t *testing.T) {
	_, srv := newTestServer(t)
	addr := srv.Addr().String()

	t.Run("reserved-byte", func(t *testing.T) {
		c := dialBin(t, addr)
		f := binFrame(binwire.OpPing, 0, 1, 0, "", "", "")
		f[4+3] = 1 // rsvd u8
		c.conn.Write(f)
		c.closedSoon()
	})
	t.Run("unknown-opcode", func(t *testing.T) {
		c := dialBin(t, addr)
		c.conn.Write(binFrame(99, 0, 1, 0, "", "", ""))
		c.closedSoon()
	})
	t.Run("oversized-length", func(t *testing.T) {
		c := dialBin(t, addr)
		var lb [4]byte
		binary.LittleEndian.PutUint32(lb[:], uint32(binwire.MaxFrame+1))
		c.conn.Write(lb[:])
		c.closedSoon()
	})
	t.Run("undersized-length", func(t *testing.T) {
		c := dialBin(t, addr)
		var lb [4]byte
		binary.LittleEndian.PutUint32(lb[:], 4)
		c.conn.Write(lb[:])
		c.closedSoon()
	})
	t.Run("header-overruns-frame", func(t *testing.T) {
		c := dialBin(t, addr)
		f := binFrame(binwire.OpGet, 0, 1, 0, "t", "k", "")
		f[4+2] = 200 // tlen says 200, frame holds 2 bytes of body
		c.conn.Write(f)
		c.closedSoon()
	})
}

// TestBinarySemanticErrorContinues: semantic failures answer ERR on the
// offending id and the stream keeps going — the length prefix makes desync
// structurally impossible, which is the property under test.
func TestBinarySemanticErrorContinues(t *testing.T) {
	_, srv := newTestServer(t)
	c := dialBin(t, srv.Addr().String())

	c.expect(binwire.OpGet, 0, 1, 0, "ghost", "k", "", binwire.StErr, "unknown tenant")
	c.expect(binwire.OpPing, 0, 2, 0, "", "", "", binwire.StOK, "")

	c.expect(binwire.OpTenantAdd, 0, 3, 0, "t", "", "", binwire.StOK, "\x00\x00\x00\x00")
	longKey := strings.Repeat("k", maxKeyLen+1)
	c.expect(binwire.OpGet, 0, 4, 0, "t", longKey, "", binwire.StErr, "bad key length")
	c.expect(binwire.OpGet, 0, 5, 0, "t", "k", "value-on-a-get", binwire.StErr, "unexpected value payload")
	c.expect(binwire.OpPing, 0, 6, 0, "", "", "", binwire.StOK, "")
}

// TestBinaryShed: the binary path honors the same global in-flight gate as
// the text path — a request that cannot reserve a slot within InflightWait
// answers SHED and the connection survives.
func TestBinaryShed(t *testing.T) {
	svc, srv := newOverloadServer(t,
		Config{Shards: 1, LinesPerShard: 512, MaxTenants: 4, Seed: 31},
		ServerConfig{MaxInflight: 1, InflightWait: 10 * time.Millisecond})
	svc.SetFaultInjector(injectorFunc(func(op Op, tenant string) Fault {
		if tenant == "slow" {
			return Fault{Delay: 400 * time.Millisecond}
		}
		return Fault{}
	}))
	svc.AddTenant("slow")
	svc.AddTenant("fast")

	tc := dialTest(t, srv.Addr().String())
	bc := dialBin(t, srv.Addr().String())

	tc.send("GET slow k") // text conn holds the single in-flight slot
	time.Sleep(100 * time.Millisecond)
	bc.expect(binwire.OpGet, 0, 1, 0, "fast", "k", "", binwire.StShed, "")
	bc.expect(binwire.OpPing, 0, 2, 0, "", "", "", binwire.StOK, "") // conn survives

	if got := tc.line(); got != "MISS" {
		t.Fatalf("slow GET: %q", got)
	}
	if got := svc.Stats().RequestsShed; got == 0 {
		t.Fatal("RequestsShed not incremented")
	}
	// Slot free again: the same request succeeds.
	bc.expect(binwire.OpGet, 0, 3, 0, "fast", "k", "", binwire.StMiss, "")
}

// waitBinaryReaped drives a parked binary connection against a fake clock:
// each round advances past the idle window (once the connection's watchdog
// is armed) and probes the socket. Passes when the server closes the
// connection.
func waitBinaryReaped(t *testing.T, conn net.Conn, fc *clock.Fake) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fc.Advance(300 * time.Millisecond)
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		_, err := conn.Read(make([]byte, 1))
		if err != nil && !isTimeout(err) {
			return // server closed it
		}
		if err == nil {
			t.Fatal("unexpected bytes from a parked connection")
		}
		if time.Now().After(deadline) {
			t.Fatal("parked binary connection never reaped")
		}
	}
}

// TestBinaryIdleReapFakeClockNoPoll: a negotiated binary connection whose
// client never writes again is reaped by its idle watchdog on the injected
// clock — no real 250ms waits, the clock is advanced. Nothing arrives for
// the connection's goroutine to read, so only the watchdog can close it.
func TestBinaryIdleReapFakeClockNoPoll(t *testing.T) {
	fc := clock.NewFake(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	svc, srv := newOverloadServer(t,
		Config{Shards: 1, LinesPerShard: 512, MaxTenants: 4, Seed: 32, Clock: fc},
		ServerConfig{IdleTimeout: 250 * time.Millisecond})

	c := dialBin(t, srv.Addr().String())
	waitBinaryReaped(t, c.conn, fc)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().DeadlineCloses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("DeadlineCloses not incremented")
		}
		time.Sleep(time.Millisecond)
	}
	// The server keeps serving.
	tc := dialTest(t, srv.Addr().String())
	tc.expect("PING", "PONG")
}

// TestBinaryIdleReapFakeClock is the same reap contract for a connection
// holding a partial frame, which must not count as progress: the reaper
// fires on frames, not bytes (slow-loris hardening, binary edition).
func TestBinaryIdleReapFakeClock(t *testing.T) {
	fc := clock.NewFake(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	svc, srv := newOverloadServer(t,
		Config{Shards: 1, LinesPerShard: 512, MaxTenants: 4, Seed: 33, Clock: fc},
		ServerConfig{IdleTimeout: 250 * time.Millisecond})

	c := dialBin(t, srv.Addr().String())
	c.conn.Write([]byte{10, 0})
	waitBinaryReaped(t, c.conn, fc)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().DeadlineCloses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("DeadlineCloses not incremented")
		}
		time.Sleep(time.Millisecond)
	}
	tc := dialTest(t, srv.Addr().String())
	tc.expect("PING", "PONG")
}

// TestBinaryIdleConnFootprint: a parked binary connection costs no more
// than a parked text connection — one goroutine and its buffers — measured
// as the growth of HeapInuse+StackInuse over 200 connections of each kind
// that have answered one PING. Both clients are raw sockets, so the
// client side of the process weighs the same for either.
func TestBinaryIdleConnFootprint(t *testing.T) {
	_, srv := newTestServer(t)
	addr := srv.Addr().String()
	const n = 200
	footprint := func(open func() net.Conn) uint64 {
		inuse := func() uint64 {
			runtime.GC()
			runtime.GC() // the second cycle empties the pools' victim caches
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapInuse + ms.StackInuse
		}
		before := inuse()
		conns := make([]net.Conn, n)
		for i := range conns {
			conns[i] = open()
		}
		after := inuse()
		for _, c := range conns {
			c.Close()
		}
		// The next measurement starts once every handler has let go.
		deadline := time.Now().Add(5 * time.Second)
		for {
			srv.mu.Lock()
			open := len(srv.conns)
			srv.mu.Unlock()
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d connections still open after close", open)
			}
			time.Sleep(time.Millisecond)
		}
		if after < before {
			return 0
		}
		return (after - before) / n
	}
	dial := func(hello []byte, reply int) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hello); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, make([]byte, reply)); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	text := footprint(func() net.Conn { return dial([]byte("PING\r\n"), len("PONG\r\n")) })
	binHello := append([]byte{binwire.Magic, 'V', 'B', binwire.Version}, binFrame(binwire.OpPing, 0, 1, 0, "", "", "")...)
	bin := footprint(func() net.Conn { return dial(binHello, 4+4+binwire.RespHdr) })
	t.Logf("bytes per parked connection: text %d, binary %d", text, bin)
	if bin > text {
		t.Fatalf("a parked binary connection holds %d bytes, a text one %d", bin, text)
	}
}

// TestBinaryLeftoverAfterPreamble: frames pipelined in the same segment as
// the negotiation preamble are not lost in the transport handoff.
func TestBinaryLeftoverAfterPreamble(t *testing.T) {
	_, srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	buf := []byte{binwire.Magic, 'V', 'B', binwire.Version}
	buf = append(buf, binFrame(binwire.OpPing, 0, 77, 0, "", "", "")...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	c := &binTestClient{t: t, conn: conn}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatal(err)
	}
	r := c.resp()
	if r.status != binwire.StOK || r.id != 77 {
		t.Fatalf("pipelined-with-preamble PING: %+v", r)
	}
}

// TestBinaryWriteBackpressure: a client that pipelines GETs for large
// values while reading nothing forces the server's socket to stop
// accepting bytes — the connection's goroutine blocks in write and resumes
// when the client drains. Every response must arrive intact, in id order,
// and the connection must keep working afterwards.
func TestBinaryWriteBackpressure(t *testing.T) {
	_, srv := newTestServer(t)
	c := dialBin(t, srv.Addr().String())
	if tc, ok := c.conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(32 << 10) // shrink the client's window to force EAGAIN sooner
	}
	c.expect(binwire.OpTenantAdd, 0, 0, 0, "t", "", "", binwire.StOK, "\x00\x00\x00\x00")

	val := strings.Repeat("v", 512<<10)
	c.expect(binwire.OpPut, 0, 1, 0, "t", "big", val, binwire.StOK, "")

	// 64 GETs x 512 KiB = 32 MiB of responses, far beyond what the kernel
	// will buffer on either end, so the server must hit a short write and
	// re-arm while the client sits on the unsent batch below.
	const k = 64
	var batch []byte
	for i := 0; i < k; i++ {
		batch = append(batch, binFrame(binwire.OpGet, 0, uint32(10+i), 0, "t", "big", "")...)
	}
	if _, err := c.conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the server wedge against full buffers
	for i := 0; i < k; i++ {
		r := c.resp()
		if r.status != binwire.StOK || r.id != uint32(10+i) || len(r.payload) != len(val) {
			t.Fatalf("response %d: status=%d id=%d payload=%d bytes", i, r.status, r.id, len(r.payload))
		}
	}
	c.expect(binwire.OpPing, 0, 999, 0, "", "", "", binwire.StOK, "")
}

// TestBinaryDropFaultAborts: a dispatcher drop fault on a binary data op
// closes the connection without a reply, matching the text dispatcher.
func TestBinaryDropFaultAborts(t *testing.T) {
	svc, srv := newTestServer(t)
	c := dialBin(t, srv.Addr().String())
	c.expect(binwire.OpTenantAdd, 0, 1, 0, "t", "", "", binwire.StOK, "\x00\x00\x00\x00")

	svc.SetFaultInjector(injectorFunc(func(op Op, tenant string) Fault {
		return Fault{Drop: true}
	}))
	c.send(binwire.OpGet, 0, 2, 0, "t", "k", "")
	c.closedSoon()

	// The server survives the abort and keeps serving new connections.
	svc.SetFaultInjector(nil)
	c2 := dialBin(t, srv.Addr().String())
	c2.expect(binwire.OpPing, 0, 3, 0, "", "", "", binwire.StOK, "")
}

// TestTextFrameMatchesTextConn: a TEXT frame is answered with exactly the
// bytes a text connection reads for the same command. Twin services take
// the control and malformed lines a proxy relays, one over a text
// connection and one as TEXT frames. The text twin also holds a binary
// connection that sends one PING per line, so both twins have counted the
// same binary connections and frames when STATS reports them.
func TestTextFrameMatchesTextConn(t *testing.T) {
	long := strings.Repeat("k", maxKeyLen+1)
	cases := []struct{ line, block, eol string }{
		{"TENANT ADD x", "", ""},
		{"TENANT LIST", "", ""},
		{"STATS", "", ""},
		{"STATS a", "", ""},
		{"STATS ghost", "", ""},
		{"FROB x y", "", ""},
		{"GET a", "", ""},
		{"PUT a k", "", ""},
		{"MGET a", "", ""},
		{"MGET a two k", "", ""},
		{"PUT a k notanumber", "", ""},
		{"PUT a " + long + " 3", "abc", "\r\n"},
		{"PUT a " + long + " 3", "xyz", "\n"},
		{"TENANT DEL x", "", ""},
		{"TENANT LIST", "", ""},
		{"PING", "", ""},
	}
	txt, bin := newCodecRig(t, false), newCodecRig(t, true)
	ping := txt.lis.dial()
	defer ping.Close()
	ping.SetDeadline(time.Now().Add(10 * time.Second))
	pr := bufio.NewReader(ping)
	negotiate(t, ping, pr)
	for i, c := range cases {
		if _, err := ping.Write(binFrame(binwire.OpPing, 0, uint32(i), 0, "", "", "")); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Discard(4 + binwire.RespHdr); err != nil {
			t.Fatal(err)
		}
		if _, err := txt.conn.Write([]byte(c.line + "\r\n" + c.block + c.eol)); err != nil {
			t.Fatal(err)
		}
		if _, err := bin.conn.Write(binwire.AppendText(nil, uint32(i), []byte(c.line), []byte(c.block))); err != nil {
			t.Fatal(err)
		}
		var resp []byte
		r, err := binwire.ReadResp(bin.r, &resp)
		if err != nil || r.Status != binwire.StOK || r.Op != binwire.OpText || r.ID != uint32(i) {
			t.Fatalf("%q: TEXT frame answered %+v, %v", c.line, r, err)
		}
		want := make([]byte, len(r.Payload))
		if _, err := io.ReadFull(txt.r, want); err != nil {
			t.Fatal(err)
		}
		if string(r.Payload) != string(want) {
			t.Fatalf("%q: TEXT frame answered %q, the text connection %q", c.line, r.Payload, want)
		}
	}
	// The text connection holds nothing past the last reply.
	if n := txt.r.Buffered(); n != 0 {
		t.Fatalf("the text connection read %d bytes more than the TEXT frames", n)
	}
}
