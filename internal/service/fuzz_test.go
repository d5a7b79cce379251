package service

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

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
		srv.dispatch(nil, line, r, w, cs)
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
		binFrame(binOpPing, 0, 1, 0, "", "", ""),
		binFrame(binOpTenantAdd, 0, 2, 0, "u", "", ""),
		binFrame(binOpPut, 0, 3, 0, "t", "k", "hello"),
		binFrame(binOpGet, 0, 4, 0, "t", "k", ""),
		binFrame(binOpDel, 0, 5, 0, "t", "k", ""),
		binFrame(binOpTouch, 0, 6, 250, "t", "k", ""),
		binFrame(binOpPut, binFlagTTL, 7, 100, "t", "k", "v"),
		binFrame(binOpGet, 0, 8, 0, "ghost", "k", ""),   // unknown tenant: ERR
		binFrame(binOpGet, 0, 9, 0, "t", "", ""),        // zero-length key: ERR
		binFrame(binOpGet, 0, 10, 0, "t", "k", "extra"), // value on a GET: ERR
		binFrame(99, 0, 11, 0, "", "", ""),              // unknown opcode: close
		{4, 0, 0, 0, 1, 0},                              // truncated frame
		{255, 255, 255, 255},                            // absurd length: close
		append(binFrame(binOpPing, 0, 12, 0, "", "", ""), binFrame(binOpPing, 0, 13, 0, "", "", "")...),
		// BMGET: valid multi-key, empty list (semantic ERR), truncated key
		// list and trailing bytes (framing: close), oversized count, and two
		// pipelined frames sharing an id.
		bmFrame(14, "t", "k", "nosuch"),
		bmFrame(15, "t"),
		bmFrameN(0, 16, 0, "t", 3, []string{"k"}, ""),
		bmFrameN(0, 17, 0, "t", 1, []string{"k"}, "junk"),
		bmFrameN(0, 18, 0, "t", maxBatchKeys+1, []string{"k"}, ""),
		bmFrameN(binFlagTTL, 19, 250, "t", 1, []string{"k"}, ""),
		append(bmFrame(20, "t", "k"), bmFrame(20, "t", "k", "k2")...),
	}
	for _, seed := range seeds {
		f.Add(seed)
	}

	preamble := []byte{binMagic, 'V', 'B', binVersion}
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
