package service

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"vantage/internal/binwire"
)

// leU64 encodes v as the 8-byte little-endian value payload a REG_OP frame
// carries.
func leU64(v uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return string(b[:])
}

// TestBinaryClusterFrames pins the semantics of the cluster opcodes over a
// live connection: TENANT_DEL, REG_OP add/remove with version max-merge,
// REG_PULL snapshots, and REHOME's TTL-preserving PUT, plus the
// framing-vs-semantic error split for each.
func TestBinaryClusterFrames(t *testing.T) {
	svc, srv := newTestServer(t)
	if _, err := svc.AddTenant("t"); err != nil {
		t.Fatal(err)
	}
	c := dialPeer(t, srv.Addr().String())

	// REG_OP add at version 5: local version max-merges to 5.
	c.expect(binwire.OpRegOp, binwire.FlagRegAdd, 1, 0, "bob", "", leU64(5), binwire.StOK, leU64(5))
	if v := svc.ClusterVersion(); v != 5 {
		t.Fatalf("version = %d, want 5", v)
	}
	// Stale replay at version 3: applied idempotently, version stays 5.
	c.expect(binwire.OpRegOp, binwire.FlagRegAdd, 2, 0, "bob", "", leU64(3), binwire.StOK, leU64(5))
	// Remove of an unknown tenant converges silently (still OK).
	c.expect(binwire.OpRegOp, 0, 3, 0, "ghost", "", leU64(6), binwire.StOK, leU64(6))
	// Remove of bob at version 7.
	c.expect(binwire.OpRegOp, 0, 4, 0, "bob", "", leU64(7), binwire.StOK, leU64(7))
	if _, err := svc.tenant("bob"); err == nil {
		t.Fatal("bob still registered after replicated remove")
	}

	// Semantic violations answer ERR and the stream continues.
	c.expect(binwire.OpRegOp, binwire.FlagRegAdd, 5, 0, "x", "", "short", binwire.StErr, "bad registry frame")
	c.expect(binwire.OpRegOp, binwire.FlagRegAdd, 6, 0, "x", "k", leU64(1), binwire.StErr, "bad registry frame")
	c.expect(binwire.OpRegOp, binwire.FlagRegAdd, 7, 0, "bad name\x01", "", leU64(8), binwire.StErr, `service: invalid tenant name "bad name\x01"`)
	c.expect(binwire.OpPing, 0, 8, 0, "", "", "", binwire.StOK, "")

	// REG_PULL returns version + names. "t" holds slot 0; bob's freed slot 1
	// goes to carol.
	c.expect(binwire.OpTenantAdd, 0, 9, 0, "carol", "", "", binwire.StOK, "\x01\x00\x00\x00")
	c.send(binwire.OpRegPull, 0, 10, 0, "", "", "")
	r := c.resp()
	if r.status != binwire.StOK || len(r.payload) < 12 {
		t.Fatalf("REG_PULL: status=%d payload=%q", r.status, r.payload)
	}
	ver := binary.LittleEndian.Uint64(r.payload[0:8])
	count := binary.LittleEndian.Uint32(r.payload[8:12])
	names := map[string]bool{}
	p := r.payload[12:]
	for i := uint32(0); i < count; i++ {
		n := int(p[0])
		names[string(p[1:1+n])] = true
		p = p[1+n:]
	}
	if ver != 7 || !names["carol"] || names["bob"] {
		t.Fatalf("REG_PULL: ver=%d names=%v", ver, names)
	}
	// Non-empty tenant/key/value on REG_PULL: semantic error.
	c.expect(binwire.OpRegPull, 0, 11, 0, "t", "", "", binwire.StErr, "bad registry pull")

	// TENANT_DEL (operator op, not replication): removes and answers OK;
	// removing again is a semantic error.
	c.expect(binwire.OpTenantDel, 0, 12, 0, "carol", "", "", binwire.StOK, "")
	c.expect(binwire.OpTenantDel, 0, 13, 0, "carol", "", "", binwire.StErr, `service: unknown tenant "carol"`)

	// REHOME: PUT-shaped, counted separately, TTL semantics preserved.
	out0, in0 := svc.RehomedCounts()
	c.expect(binwire.OpRehome, 0, 14, 0, "t", "moved", "payload", binwire.StOK, "")
	c.expect(binwire.OpRehome, binwire.FlagTTL, 15, 60000, "t", "moved-ttl", "payload", binwire.StOK, "")
	c.expect(binwire.OpGet, 0, 16, 0, "t", "moved", "", binwire.StOK, "payload")
	out1, in1 := svc.RehomedCounts()
	if out1 != out0 || in1 != in0+2 {
		t.Fatalf("rehomed counts: out %d->%d in %d->%d", out0, out1, in0, in1)
	}
	// Unknown tenant on REHOME is semantic, like PUT.
	c.expect(binwire.OpRehome, 0, 17, 0, "ghost", "k", "v", binwire.StErr, "unknown tenant")
}

// TestBinaryClusterFramingViolations: reserved-flag bits on the cluster
// opcodes are framing violations and must close the connection.
func TestBinaryClusterFramingViolations(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"TENANT_DEL with flags", binFrame(binwire.OpTenantDel, 0x02, 1, 0, "t", "", "")},
		{"REG_OP with reserved flag", binFrame(binwire.OpRegOp, 0x82, 1, 0, "t", "", leU64(1))},
		{"REG_PULL with flags", binFrame(binwire.OpRegPull, 0x01, 1, 0, "", "", "")},
		{"REHOME with reserved flag", binFrame(binwire.OpRehome, 0x04, 1, 0, "t", "k", "v")},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newTestServer(t)
			c := dialPeer(t, srv.Addr().String())
			if _, err := c.conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			c.closedSoon()
		})
	}
}

// FuzzClusterFrames is FuzzBinFrames pointed at the cluster opcodes: the
// registry-replication (REG_OP/REG_PULL), tenant-admin (TENANT_DEL) and
// re-homing (REHOME) frames, mixed with data frames the way a draining
// peer's stream interleaves them. Framing violations must close, semantic
// errors must answer ERR and continue, and nothing may hang or panic.
func FuzzClusterFrames(f *testing.F) {
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
		binFrame(binwire.OpRegOp, binwire.FlagRegAdd, 1, 0, "u", "", leU64(1)),
		binFrame(binwire.OpRegOp, 0, 2, 0, "u", "", leU64(2)),
		binFrame(binwire.OpRegOp, 0, 3, 0, "ghost", "", leU64(3)),                 // unknown removal: OK, converges
		binFrame(binwire.OpRegOp, binwire.FlagRegAdd, 4, 0, "u", "", "short"),     // bad version payload: ERR
		binFrame(binwire.OpRegOp, binwire.FlagRegAdd, 5, 0, "u", "key", leU64(1)), // key present: ERR
		binFrame(binwire.OpRegOp, binwire.FlagRegAdd, 6, 0, "", "", leU64(1)),     // empty name: ERR
		binFrame(binwire.OpRegOp, 0x80, 7, 0, "u", "", leU64(1)),                  // reserved flag: close
		binFrame(binwire.OpRegPull, 0, 8, 0, "", "", ""),
		binFrame(binwire.OpRegPull, 0, 9, 0, "t", "", ""), // tenant present: ERR
		binFrame(binwire.OpRegPull, 1, 10, 0, "", "", ""), // flags: close
		binFrame(binwire.OpTenantDel, 0, 11, 0, "t", "", ""),
		binFrame(binwire.OpTenantDel, 0, 12, 0, "nosuch", "", ""), // unknown: ERR
		binFrame(binwire.OpTenantDel, 1, 13, 0, "t", "", ""),      // flags: close
		binFrame(binwire.OpRehome, 0, 14, 0, "t", "k", "moved-value"),
		binFrame(binwire.OpRehome, binwire.FlagTTL, 15, 5000, "t", "k", "v"),
		binFrame(binwire.OpRehome, 0, 16, 0, "ghost", "k", "v"), // unknown tenant: ERR
		binFrame(binwire.OpRehome, 0, 17, 0, "t", "", "v"),      // zero-length key: ERR
		// A drain-shaped stream: register, rehome a few, pull, delete.
		append(append(append(
			binFrame(binwire.OpRegOp, binwire.FlagRegAdd, 18, 0, "w", "", leU64(9)),
			binFrame(binwire.OpRehome, 0, 19, 0, "w", "a", "1")...),
			binFrame(binwire.OpRehome, binwire.FlagTTL, 20, 100, "w", "b", "2")...),
			binFrame(binwire.OpRegPull, 0, 21, 0, "", "", "")...),
		{4, 0, 0, 0, binwire.OpRegOp, 0}, // truncated frame
		// BMGET interleaved with cluster traffic, the way a proxy's pooled
		// connection shares a peer's stream: valid multi-key, zero keys
		// (semantic ERR), truncated key list (framing: close), duplicate
		// request ids back to back (legal — responses echo both).
		bmFrame(22, "t", "k", "nosuch"),
		bmFrameN(0, 23, 0, "t", 0, nil, ""),
		bmFrameN(0, 24, 0, "t", 3, []string{"k"}, ""),
		append(bmFrame(25, "t", "k"), bmFrame(25, "t", "k", "b")...),
		// BMGET sandwiched between a rehome and a registry pull.
		append(append(
			binFrame(binwire.OpRehome, 0, 26, 0, "t", "bm", "v"),
			bmFrame(27, "t", "bm", "k")...),
			binFrame(binwire.OpRegPull, 0, 28, 0, "", "", "")...),
	}
	for _, seed := range seeds {
		f.Add(seed)
	}

	preamble := []byte{binwire.Magic, 'V', 'P', binwire.Version}
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
			return
		}
		if _, err := tc.Write(data); err != nil {
			io.Copy(io.Discard, conn)
			return
		}
		tc.CloseWrite()
		if _, err := io.Copy(io.Discard, conn); err != nil && isTimeout(err) {
			t.Fatalf("cluster frame stream hung the server on input %q", data)
		}
	})
}
