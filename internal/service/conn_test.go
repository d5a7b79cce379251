package service

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/clock"
)

// codecName names a subtest by codec.
func codecName(bin bool) string {
	if bin {
		return "binary"
	}
	return "text"
}

// TestWriteWindowBothCodecs: a client that pipelines GETs of a 1 MiB value
// and never reads is reaped at WriteTimeout on either codec. Every write of
// replies runs under the write window, including the ones a high-water
// mark forces while the batch is still being read. Runs on the fake clock:
// each round waits until a window is armed, then advances past it.
func TestWriteWindowBothCodecs(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(codecName(bin), func(t *testing.T) {
			fc := clock.NewFake(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
			svc, srv := newOverloadServer(t,
				Config{Shards: 1, LinesPerShard: 512, MaxTenants: 4, Seed: 29, Clock: fc},
				ServerConfig{WriteTimeout: 300 * time.Millisecond})
			if _, err := svc.AddTenant("alice"); err != nil {
				t.Fatal(err)
			}
			if err := svc.Put("alice", "big", make([]byte, maxValueLen)); err != nil {
				t.Fatal(err)
			}
			var req []byte
			if bin {
				req = []byte{binwire.Magic, 'V', 'B', binwire.Version}
			}
			for i := range 200 {
				if bin {
					req = binwire.AppendReq(req, binwire.OpGet, 0, uint32(i), 0, "alice", "big", nil)
				} else {
					req = binwire.AppendTextReq(req, binwire.OpGet, 0, 0, "alice", "big", nil)
				}
			}
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			// The reaped connection's failed write can return after the check
			// below, so the wait for the next window ends on a reap too.
			deadline := time.Now().Add(5 * time.Second)
			for svc.Stats().DeadlineCloses == 0 {
				for fc.Pending() == 0 && svc.Stats().DeadlineCloses == 0 {
					if time.Now().After(deadline) {
						t.Fatal("no write window armed while the client does not read")
					}
					time.Sleep(time.Millisecond)
				}
				fc.Advance(400 * time.Millisecond)
				time.Sleep(time.Millisecond)
				if time.Now().After(deadline) {
					t.Fatal("connection not reaped at WriteTimeout")
				}
			}
			if got := svc.Stats().DeadlineCloses; got != 1 {
				t.Fatalf("DeadlineCloses = %d, want 1", got)
			}
		})
	}
}

// TestReplyNotWithheld: a reply leaves before the server waits for the
// rest of a partial next request, on either codec. A PING followed by the
// first bytes of the next command gets its PONG within a second.
func TestReplyNotWithheld(t *testing.T) {
	for _, bin := range []bool{false, true} {
		t.Run(codecName(bin), func(t *testing.T) {
			_, srv := newTestServer(t)
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			req, want := []byte("PING\r\nPI"), []byte("PONG\r\n")
			if bin {
				ping := binwire.AppendReq(nil, binwire.OpPing, 0, 7, 0, "", "", nil)
				req = append(append([]byte{binwire.Magic, 'V', 'B', binwire.Version}, ping...), ping[:3]...)
				want = binwire.AppendResp([]byte{binwire.Magic, 'V', 'B', binwire.Version}, binwire.StOK, binwire.OpPing, 7, "")
			}
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(time.Second))
			got := make([]byte, len(want))
			if _, err := io.ReadFull(conn, got); err != nil || string(got) != string(want) {
				t.Fatalf("read %q, %v; want %q", got, err, want)
			}
		})
	}
}

// TestReqReusedAcrossCodecs: a connection's request record outlives the
// connection in the pool, so a line split and never decoded (a PUT whose
// declared value is over the cap closes the connection before its block is
// read) must not leak into the next connection's decode. The record moves
// from a text connection, cut at such a PUT, to a binary one whose TEXT
// frame must answer exactly as a text connection does.
func TestReqReusedAcrossCodecs(t *testing.T) {
	svc := newTestService(t, Config{Shards: 1, LinesPerShard: 512, MaxTenants: 4, Seed: 9})
	if _, err := svc.AddTenant("alice"); err != nil {
		t.Fatal(err)
	}
	srv := &Server{svc: svc}
	ref := stepConn(srv, true, "TENANT LIST\r\n")
	if !srv.step(ref) {
		t.Fatal("TENANT LIST closed the text connection")
	}
	c := stepConn(srv, true, strings.Repeat("PING\r\n", 10)+"PUT alice k 99999999\r\n")
	for srv.step(c) {
	}
	if !bytes.HasSuffix(c.out, []byte("ERR value length 99999999 exceeds maximum 1048576\r\n")) {
		t.Fatalf("oversized PUT answered %q", c.out)
	}
	c.text, c.out = false, nil
	c.r = bufio.NewReaderSize(bytes.NewReader(binwire.AppendText(nil, 3, []byte("TENANT LIST"), nil)), 16<<10)
	if !srv.step(c) {
		t.Fatal("TEXT frame closed the binary connection")
	}
	if want := binwire.AppendResp(nil, binwire.StOK, binwire.OpText, 3, ref.out); !bytes.Equal(c.out, want) {
		t.Fatalf("TEXT frame answered %q, want %q", c.out, want)
	}
}

// writeSizes records the largest single write to its connection.
type writeSizes struct {
	net.Conn
	max atomic.Int64
}

func (w *writeSizes) Write(p []byte) (int, error) {
	if n := int64(len(p)); n > w.max.Load() {
		w.max.Store(n)
	}
	return w.Conn.Write(p)
}

// TestTextMGetWrittenInPieces: a text MGET's replies leave at the
// high-water mark while the batch executes, so a connection never holds a
// whole batch of large values: 16 hits on a 256 KiB value arrive intact,
// and no single write carries more than the mark and one more value.
func TestTextMGetWrittenInPieces(t *testing.T) {
	svc, srv := newTestServer(t)
	if _, err := svc.AddTenant("alice"); err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 256<<10)
	if err := svc.Put("alice", "big", val); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	nc := &writeSizes{Conn: server}
	srv.wg.Add(1)
	go srv.handle(nc)
	var want []byte
	for range 16 {
		want = binwire.AppendTextValue(want, val)
	}
	want = append(want, "END\r\n"...)
	client.SetDeadline(time.Now().Add(5 * time.Second))
	go client.Write([]byte("MGET alice 16" + strings.Repeat(" big", 16) + "\r\n"))
	got := make([]byte, len(want))
	if _, err := io.ReadFull(client, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MGET reply: %v, %d of %d bytes match", err, len(got), len(want))
	}
	if max := nc.max.Load(); max > flushHi+int64(len(val))+64 {
		t.Fatalf("largest write %d bytes, want at most %d", max, flushHi+len(val)+64)
	}
}
