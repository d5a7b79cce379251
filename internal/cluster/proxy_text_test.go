package cluster_test

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/cluster"
)

// TestProxyTextMatchesNode: a text client gets the same bytes through the
// proxy as straight from a node. Twin 3-node clusters take one table of
// lines, one through its proxy and one on a direct connection to the node
// the proxy routes every key of the table to (member 0 of both rings, which
// also answers the control lines). Each reply is read up to the PONG of a
// PING sent after its line. STATS differs by design: the proxy adds its
// proxy_* lines, and the global counters of connections by codec count the
// proxy's pooled binary connections on one side and a text one on the other.
func TestProxyTextMatchesNode(t *testing.T) {
	nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
	twins, _ := bootPoolCluster(t, cluster.ProxyConfig{})
	rings := [2]*cluster.Ring{ringOf(t, nodes), ringOf(t, twins)}
	var keys []string // owned by member 0 in both rings
	for i := 0; len(keys) < 2; i++ {
		if k := "K" + itoa(i); rings[0].Owner("alice", k) == rings[0].Members()[0] && rings[1].Owner("alice", k) == rings[1].Members()[0] {
			keys = append(keys, k)
		}
	}
	k, k2 := keys[0], keys[1]
	long, batch := strings.Repeat("k", 251), strings.Repeat(" "+k, 1025)
	lines := []string{
		"TENANT ADD alice",
		"PUT alice " + k + " 5\r\nhello", "GET alice " + k, "MGET alice 2 " + k + " " + k2,
		"TOUCH alice " + k + " 60000", "EXPIRE alice " + k + " 60000", "DEL alice " + k, "GET alice " + k,
		"PUT alice " + k2 + " 2 EXPIRE 60000\r\nhi", "get ALICE " + k2, "mget alice 1 " + k2,
		// Wrong arity.
		"GET alice", "GET alice " + k + " x", "DEL alice", "TOUCH alice " + k, "PUT alice " + k,
		"MGET alice", "MGET alice 2 " + k,
		// A key over the limit.
		"GET alice " + long, "DEL alice " + long, "TOUCH alice " + long + " 5", "MGET alice 2 " + k + " " + long,
		"PUT alice " + long + " 1\r\nv",
		// A TTL over the u32 field.
		"TOUCH alice " + k2 + " 4294967296", "PUT alice " + k2 + " 1 EXPIRE 4294967296\r\nv",
		// An unknown tenant.
		"GET ghost " + k, "PUT ghost " + k + " 1\r\nv", "DEL ghost " + k, "TOUCH ghost " + k + " 5",
		"MGET ghost 2 " + k + " " + k2,
		// Over the batch cap.
		"MGET alice 1025" + batch, "MGET alice 0",
		// Malformed PUTs: the first declares a block, which must be drained.
		"PUT alice " + k + " 3 junk\r\nabc", "PUT alice " + k + " notanumber",
		"TENANT LIST", "STATS alice", "STATS ghost", "STATS", "FROB x", "PING", "",
	}
	direct, err := net.Dial("tcp", rings[1].Members()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	proxied, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxied.Close()
	node, proxy := bufio.NewReader(direct), bufio.NewReader(proxied)
	for _, line := range lines {
		global := line == "STATS"
		want, got := dropStats(exchange(t, direct, node, line), global), dropStats(exchange(t, proxied, proxy, line), global)
		if got != want {
			t.Errorf("%.60q: the proxy answered %q, the node %q", line, got, want)
		}
	}
}

// ringOf is the ring over the nodes' addresses.
func ringOf(t *testing.T, nodes []*poolNode) *cluster.Ring {
	addrs := make([]string, len(nodes))
	for i, pn := range nodes {
		addrs[i] = pn.addr
	}
	ring, err := cluster.NewRing(addrs, scaleVNodes)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// exchange sends line and a PING and returns what c answered before PONG.
func exchange(t *testing.T, c net.Conn, r *bufio.Reader, line string) string {
	t.Helper()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write([]byte(line + "\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for {
		l, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%.60q: %v after %q", line, err, out.String())
		}
		if l == "PONG\r\n" {
			return out.String()
		}
		out.WriteString(l)
	}
}

// dropStats drops the proxy's STAT lines from reply and, from a global
// STATS, those that count connections by codec and the uptime.
func dropStats(reply string, global bool) string {
	var kept []string
	for _, l := range strings.SplitAfter(reply, "\n") {
		name, _, _ := strings.Cut(strings.TrimPrefix(l, "STAT "), " ")
		switch {
		case strings.HasPrefix(l, "STAT proxy_"):
		case global && strings.Contains(" mgets bin_conns bin_conns_active bin_frames bmget_keys uptime_seconds ", " "+name+" "):
		default:
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}

// TestProxyRefusesPeerFrames: the peers' REG_OP, REG_PULL and REHOME
// frames are refused at the proxy and never reach a node. A REG_OP add
// through the proxy once registered its tenant, at the version it named,
// on one node only: REG_OP is never re-broadcast, so the registry forked.
func TestProxyRefusesPeerFrames(t *testing.T) {
	nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
	f := dialFront(t, p.Addr().String(), true)
	refusePeerProbes(t, nodes, f)
}

// TestNodeRefusesClientPeerFrames: a node refuses the same probes from a
// client connected straight to it, where it once applied them: the REG_OP
// add registered "sneak" at version 99 on that node alone.
func TestNodeRefusesClientPeerFrames(t *testing.T) {
	nodes, _ := bootPoolCluster(t, cluster.ProxyConfig{})
	refusePeerProbes(t, nodes, dialFront(t, nodes[1].addr, true))
}

// refusePeerProbes adds tenant t through f, then sends REG_OP add "sneak"
// at version 99, a REG_OP remove of t, a REG_PULL and a REHOME, and
// requires each to be refused with the peer-only ERR, a data frame behind
// them to be served, and no node's registry version, tenant list or
// rehomed_in count to move.
func refusePeerProbes(t *testing.T, nodes []*poolNode, f *rawFront) {
	t.Helper()
	f.binHeader(6, 1, 0, 0, "t") // TENANT_ADD
	f.flush()
	if st, _, payload := f.binFrame(); st != 0 {
		t.Fatalf("TENANT_ADD: status %d %q", st, payload)
	}
	type view struct {
		version uint64
		tenants string
		in      uint64
	}
	look := func() (v []view) {
		for _, pn := range nodes {
			ver, names := pn.svc.RegistrySnapshot()
			_, in := pn.svc.RehomedCounts()
			v = append(v, view{ver, strings.Join(names, ","), in})
		}
		return v
	}
	before := look()
	for i, c := range []struct {
		op, flags uint8
		tenant    string
		key, val  string
	}{
		{8, 1, "sneak", "", "\x63\x00\x00\x00\x00\x00\x00\x00"}, // REG_OP add at version 99
		{8, 0, "t", "", "\x63\x00\x00\x00\x00\x00\x00\x00"},     // REG_OP remove
		{9, 0, "", "", ""},     // REG_PULL
		{10, 0, "t", "k", "v"}, // REHOME
	} {
		id := uint32(10 + i)
		f.binHeader(c.op, id, len(c.key), len(c.key)+len(c.val), c.tenant)
		f.out[5] = c.flags
		f.out = append(append(f.out, c.key...), c.val...)
		f.flush()
		if st, rid, payload := f.binFrame(); st != 2 || rid != id || !strings.Contains(string(payload), "not through the proxy") {
			t.Fatalf("op %d: status %d id %d %q, want the peer-only ERR", c.op, st, rid, payload)
		}
	}
	// A frame behind the refusals is still served.
	f.binHeader(1, 20, 1, 1, "t")
	f.out = append(f.out, 'k')
	f.flush()
	if st, id, _ := f.binFrame(); st != 1 || id != 20 {
		t.Fatalf("GET after the refusals: status %d id %d, want MISS", st, id)
	}
	for i, v := range look() {
		if v != before[i] {
			t.Errorf("node %d: registry and re-homing went from %+v to %+v", i, before[i], v)
		}
	}
}

// TestProxyAnswersFrameErrs: a well-framed binary frame that breaks a
// limit gets from the proxy the node's own ERR bytes, which the proxy
// answers itself: no node's bin_frames moves. Such frames once rode the
// pool for the node to refuse.
func TestProxyAnswersFrameErrs(t *testing.T) {
	nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
	direct, front := dialFront(t, nodes[0].addr, true), dialFront(t, p.Addr().String(), true)
	answer := func(f *rawFront, fr []byte) string {
		f.out = append(f.out, fr...)
		f.flush()
		st, id, payload := f.binFrame()
		return fmt.Sprintf("%d %d %q", st, id, payload)
	}
	frames := func() (n uint64) {
		for _, pn := range nodes {
			n += pn.svc.Stats().BinFrames
		}
		return n
	}
	for _, fr := range [][]byte{
		binwire.AppendReq(nil, binwire.OpGet, 0, 7, 0, "t", "", nil),
		binwire.AppendReq(nil, binwire.OpGet, 0, 8, 0, "t", strings.Repeat("k", binwire.MaxKey+1), nil),
		binwire.AppendReq(nil, binwire.OpDel, 0, 9, 0, "t", "k", []byte("v")),
		binwire.AppendReq(nil, binwire.OpTouch, binwire.FlagTTL, 10, 5, "t", "k", []byte("v")),
		binwire.AppendReq(nil, binwire.OpPut, 0, 11, 0, "t", "k", make([]byte, binwire.MaxValue+1)),
		binwire.AppendBMGet(nil, 12, "t", []string{}),
	} {
		want := answer(direct, fr)
		if !strings.HasPrefix(want, "2 ") {
			t.Fatalf("the node answered %s", want)
		}
		before := frames()
		if got := answer(front, fr); got != want {
			t.Errorf("the proxy answered %s, the node %s", got, want)
		}
		if after := frames(); after != before {
			t.Errorf("frame %d reached a node: bin_frames %d -> %d", binary.LittleEndian.Uint32(fr[8:]), before, after)
		}
	}
}

// TestProxyBlankLineFlushes: a blank line that ends a pipelined batch still
// lets the commands ahead of it leave for their nodes. The text front once
// skipped its batch-boundary flush after a blank line, so a client whose
// batch ended "GET t k\r\n\r\n" waited for a reply that was never sent.
func TestProxyBlankLineFlushes(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{})
	c, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	for _, step := range []struct{ send, want string }{
		{"TENANT ADD t\r\n", "OK "},
		{"GET t k\r\n\r\n", "MISS"},
	} {
		if _, err := c.Write([]byte(step.send)); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if l, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(l, step.want) {
			t.Fatalf("%q: read %q, %v; want %q", step.send, l, err, step.want)
		}
	}
}

// TestProxyReplyNotWithheld: a request is answered before the proxy waits
// for the rest of a partial next one, on both fronts. The fronts once
// flushed their pooled frames only when the client's bytes were all
// consumed, so a GET followed by the first bytes of the next request never
// left for its node.
func TestProxyReplyNotWithheld(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{})
	c, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	for _, step := range []struct{ send, want string }{
		{"TENANT ADD t\r\n", "OK "},
		{"GET t k\r\nGE", "MISS"},
	} {
		if _, err := c.Write([]byte(step.send)); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
		if l, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(l, step.want) {
			t.Fatalf("%q: read %q, %v; want %q", step.send, l, err, step.want)
		}
	}

	rb := dialRawBin(t, p.Addr().String())
	get := binwire.AppendReq(nil, binwire.OpGet, 0, 9, 0, "t", "k", nil)
	if _, err := rb.c.Write(append(get, get[:3]...)); err != nil {
		t.Fatal(err)
	}
	rb.c.SetReadDeadline(time.Now().Add(time.Second))
	resp, err := binwire.ReadResp(rb.c, new([]byte))
	if err != nil || resp.Status != binwire.StMiss || resp.ID != 9 {
		t.Fatalf("GET frame before 3 bytes of the next: %+v, %v; want a MISS", resp, err)
	}
}

// TestProxyHalfCloseAnswered: a client that half-closes right after its
// last request still gets every reply, then the close, as from a node.
// The proxy once closed the session at the EOF and dropped the replies in
// flight.
func TestProxyHalfCloseAnswered(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{})
	c, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("TENANT ADD t\r\nGET t k\r\nGET t j\r\n")); err != nil {
		t.Fatal(err)
	}
	c.(*net.TCPConn).CloseWrite()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(c)
	if err != nil || !strings.HasPrefix(string(got), "OK ") || !strings.HasSuffix(string(got), "\r\nMISS\r\nMISS\r\n") {
		t.Fatalf("read %q, %v; want the TENANT ADD's OK, two MISSes and the close", got, err)
	}
}
