package service

import (
	"encoding/binary"
	"net"
	"strconv"
	"strings"
	"testing"

	"vantage/internal/binwire"
)

// bmFrameN encodes a BMGET request frame with full control over the
// declared key count (which may lie about the list for framing tests) and
// optional trailing garbage.
func bmFrameN(flags uint8, id, ttlMS uint32, tenant string, count int, keys []string, extra string) []byte {
	body := make([]byte, 0, 64)
	for _, k := range keys {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(k)))
		body = append(body, l[:]...)
		body = append(body, k...)
	}
	body = append(body, extra...)
	n := binwire.ReqHdr + len(tenant) + len(body)
	b := make([]byte, 4+binwire.ReqHdr, 4+n)
	binary.LittleEndian.PutUint32(b[0:4], uint32(n))
	b[4] = binwire.OpBMGet
	b[5] = flags
	b[6] = uint8(len(tenant))
	binary.LittleEndian.PutUint32(b[8:12], id)
	binary.LittleEndian.PutUint32(b[12:16], ttlMS)
	binary.LittleEndian.PutUint16(b[16:18], uint16(count))
	b = append(b, tenant...)
	return append(b, body...)
}

func bmFrame(id uint32, tenant string, keys ...string) []byte {
	return bmFrameN(0, id, 0, tenant, len(keys), keys, "")
}

type bmEntry struct {
	status uint8
	val    string
}

// parseBMGet decodes an OK response payload.
func parseBMGet(t *testing.T, payload []byte) []bmEntry {
	t.Helper()
	if len(payload) < 2 {
		t.Fatalf("BMGET payload too short: %d bytes", len(payload))
	}
	count := int(binary.LittleEndian.Uint16(payload))
	p := payload[2:]
	out := make([]bmEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 5 {
			t.Fatalf("BMGET entry %d truncated", i)
		}
		st := p[0]
		vl := int(binary.LittleEndian.Uint32(p[1:5]))
		p = p[5:]
		if len(p) < vl {
			t.Fatalf("BMGET entry %d value truncated", i)
		}
		out = append(out, bmEntry{status: st, val: string(p[:vl])})
		p = p[vl:]
	}
	if len(p) != 0 {
		t.Fatalf("BMGET payload has %d trailing bytes", len(p))
	}
	return out
}

func newBMGetServer(t *testing.T, shards int) (*Service, *Server) {
	t.Helper()
	svc := newTestService(t, Config{Shards: shards, LinesPerShard: 512, MaxTenants: 4, Seed: 41})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(svc, lis)
	t.Cleanup(func() { srv.Close() })
	return svc, srv
}

// TestBMGetRoundTrip: one frame carrying N keys answers one coalesced
// frame with per-key results in request order, across shards. In
// "default" the client reads each setup reply before sending the next
// frame; in "nopoll" it writes the tenant, every PUT and the BMGET in one
// segment without reading in between, so the BMGET must see every write
// executed ahead of it in the same read.
func TestBMGetRoundTrip(t *testing.T) {
	for _, tr := range []struct {
		name      string
		pipelined bool
	}{{"default", false}, {"nopoll", true}} {
		t.Run(tr.name, func(t *testing.T) {
			testBMGetRoundTrip(t, tr.pipelined)
		})
	}
}

func testBMGetRoundTrip(t *testing.T, pipelined bool) {
	svc, srv := newBMGetServer(t, 4)
	c := dialBin(t, srv.Addr().String())

	// Enough keys to land on several shards.
	var keys []string
	var batch []byte
	var ids []uint32
	setup := func(op uint8, id uint32, tenant, key, val, wantPayload string) {
		if pipelined {
			batch = append(batch, binFrame(op, 0, id, 0, tenant, key, val)...)
			ids = append(ids, id)
		} else {
			c.expect(op, 0, id, 0, tenant, key, val, binwire.StOK, wantPayload)
		}
	}
	setup(binwire.OpTenantAdd, 1, "alice", "", "", "\x00\x00\x00\x00")
	for i := 0; i < 20; i++ {
		k := "key-" + strconv.Itoa(i)
		keys = append(keys, k)
		if i%3 != 2 { // every third key stays missing
			setup(binwire.OpPut, uint32(10+i), "alice", k, "v"+strconv.Itoa(i), "")
		}
	}
	if pipelined {
		batch = append(batch, bmFrame(99, "alice", keys...)...)
		if _, err := c.conn.Write(batch); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if r := c.resp(); r.status != binwire.StOK || r.id != id {
				t.Fatalf("pipelined setup reply: status=%d id=%d, want OK id=%d", r.status, r.id, id)
			}
		}
	} else if _, err := c.conn.Write(bmFrame(99, "alice", keys...)); err != nil {
		t.Fatal(err)
	}
	r := c.resp()
	if r.status != binwire.StOK || r.op != binwire.OpBMGet || r.id != 99 {
		t.Fatalf("BMGET response: status=%d op=%d id=%d", r.status, r.op, r.id)
	}
	ents := parseBMGet(t, r.payload)
	if len(ents) != len(keys) {
		t.Fatalf("BMGET entries = %d, want %d", len(ents), len(keys))
	}
	for i, e := range ents {
		if i%3 == 2 {
			if e.status != binwire.StMiss || e.val != "" {
				t.Fatalf("key %d: got status=%d val=%q, want MISS", i, e.status, e.val)
			}
		} else if e.status != binwire.StOK || e.val != "v"+strconv.Itoa(i) {
			t.Fatalf("key %d: got status=%d val=%q, want OK v%d", i, e.status, e.val, i)
		}
	}

	// Pipelined BMGETs with duplicate ids both answer (the id is
	// echoed verbatim; cross-shard order is unspecified).
	c.conn.Write(bmFrame(7, "alice", "key-0"))
	c.conn.Write(bmFrame(7, "alice", "key-2"))
	r1, r2 := c.resp(), c.resp()
	if r1.id != 7 || r2.id != 7 {
		t.Fatalf("dup-id responses: ids %d %d", r1.id, r2.id)
	}
	got1, got2 := parseBMGet(t, r1.payload), parseBMGet(t, r2.payload)
	hits, misses := 0, 0
	for _, e := range []bmEntry{got1[0], got2[0]} {
		switch {
		case e.status == binwire.StOK && e.val == "v0":
			hits++
		case e.status == binwire.StMiss:
			misses++
		}
	}
	if hits != 1 || misses != 1 {
		t.Fatalf("dup-id payloads: %+v %+v", got1, got2)
	}

	if n := svc.Stats().BmgetKeys; n != uint64(len(keys)+2) {
		t.Fatalf("BmgetKeys = %d, want %d", n, len(keys)+2)
	}
	tc := dialTest(t, srv.Addr().String())
	tc.send("STATS")
	var saw bool
	for _, l := range tc.linesUntilEND() {
		if strings.HasPrefix(l, "STAT bmget_keys ") {
			saw = true
		}
	}
	if !saw {
		t.Fatal("STATS missing bmget_keys")
	}
}

// TestBMGetSemanticErrors: validation failures answer a frame-level ERR
// and the stream continues.
func TestBMGetSemanticErrors(t *testing.T) {
	_, srv := newBMGetServer(t, 2)
	c := dialBin(t, srv.Addr().String())
	c.expect(binwire.OpTenantAdd, 0, 1, 0, "alice", "", "", binwire.StOK, "\x00\x00\x00\x00")

	cases := []struct {
		name  string
		frame []byte
		msg   string
	}{
		{"zero keys", bmFrame(2, "alice"), "empty key list"},
		{"unknown tenant", bmFrame(3, "ghost", "k"), "unknown tenant"},
		{"empty key", bmFrameN(0, 4, 0, "alice", 2, []string{"ok", ""}, ""), "bad key length"},
		{"oversized key", bmFrame(5, "alice", strings.Repeat("k", maxKeyLen+1)), "bad key length"},
		{"too many keys", bmFrameN(0, 6, 0, "alice", maxBatchKeys+1, manyKeys(maxBatchKeys+1), ""), "too many keys"},
	}
	for _, tcase := range cases {
		if _, err := c.conn.Write(tcase.frame); err != nil {
			t.Fatal(err)
		}
		r := c.resp()
		if r.status != binwire.StErr || r.op != binwire.OpBMGet || string(r.payload) != tcase.msg {
			t.Fatalf("%s: got status=%d payload=%q, want ERR %q", tcase.name, r.status, r.payload, tcase.msg)
		}
	}
	// The stream survives every semantic error.
	c.expect(binwire.OpPing, 0, 9, 0, "", "", "", binwire.StOK, "")
}

func manyKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "k" + strconv.Itoa(i)
	}
	return out
}

// TestBMGetFramingViolations: a key list that does not tile the body, or
// reserved header fields in use, close the connection.
func TestBMGetFramingViolations(t *testing.T) {
	frames := map[string][]byte{
		"truncated list": bmFrameN(0, 1, 0, "alice", 3, []string{"a", "b"}, ""),
		"trailing bytes": bmFrameN(0, 2, 0, "alice", 1, []string{"a"}, "junk"),
		"nonzero flags":  bmFrameN(1, 3, 0, "alice", 1, []string{"a"}, ""),
		"nonzero ttl":    bmFrameN(0, 4, 7, "alice", 1, []string{"a"}, ""),
		"cut entry len":  append(bmFrameN(0, 5, 0, "alice", 2, []string{"a"}, "x"), nil...),
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			_, srv := newBMGetServer(t, 1)
			c := dialBin(t, srv.Addr().String())
			c.expect(binwire.OpTenantAdd, 0, 1, 0, "alice", "", "", binwire.StOK, "\x00\x00\x00\x00")
			if _, err := c.conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			c.closedSoon()
		})
	}
}
