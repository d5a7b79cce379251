package cluster_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/cluster"
	"vantage/internal/service"
)

// FuzzProxyAgrees is the proxy's differential fuzz target, the cluster twin
// of service's FuzzCodecsAgree. Twin 3-node clusters take one fuzzed
// sequence of data commands, control lines, malformed requests and peer
// frames, each op over the text or the binary codec: one cluster through
// its proxy, the other straight to the node the proxy would route the op
// to. Every reply must be byte for byte the same, except the proxy's own
// STAT proxy_* lines and the global STATS rows that count connections and
// frames by codec. At the end every node must hold the same registry
// version and the same per-tenant counters as its twin.
//
// The twins listen on different ports, so their rings differ. Every data
// key is one that member 0 of both rings owns, so the data of both twins
// lands on member 0 alike; a batch still takes the proxy's scatter and
// merge path, with one owner.
func FuzzProxyAgrees(f *testing.F) {
	// An op is four bytes: kind, codec and tenant; key and batch size; value
	// length, TTL and variant; choice of control line, malformed request or
	// peer frame. See decodeAgreeOp.
	for _, seed := range [][]byte{
		{1, 3, 0x02, 0, 0, 3, 0, 0, 4, 0xc3, 0, 0},             // text PUT, GET, MGET of four keys
		{9, 3, 0x03, 0, 8, 3, 0, 0, 12, 0xc3, 0, 0},            // the same in binary, the PUT with a TTL
		{5, 0, 0, 5, 9, 0, 0, 0, 1, 0x10, 0x04, 0},             // TENANT ADD b, text and binary; PUT b
		{5, 0, 0, 0, 5, 0, 0, 1, 5, 0, 0, 2, 5, 0, 0, 4},       // PING, TENANT LIST, STATS a, STATS
		{13, 0, 0, 3, 13, 0, 0, 4, 13, 0, 1, 5},                // STATS and TENANT ADD b as binary frames
		{0x20, 1, 0, 0, 0x24, 1, 0, 0, 0x28, 1, 0, 0},          // the unknown tenant: GET, MGET, binary GET
		{6, 0, 0, 0, 6, 0, 0, 7, 6, 0, 0, 14, 6, 0, 0, 12},     // malformed text lines
		{14, 0, 0, 0, 14, 0, 0, 3, 14, 0, 0, 6, 14, 0, 0, 9},   // malformed frames
		{15, 0, 0, 0, 15, 0, 0, 1, 15, 0, 0, 2},                // peer frames
		{1, 2, 0x05, 0, 3, 2, 0x01, 0, 2, 2, 0, 0, 0, 2, 0, 0}, // PUT, TOUCH, DEL, GET
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("oversized input")
		}
		nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
		twins, _ := bootPoolCluster(t, cluster.ProxyConfig{})
		via := newAgreeSide(t, ringOf(t, nodes), p.Addr().String())
		direct := newAgreeSide(t, ringOf(t, twins), "")
		keys := agreeKeys(via.ring, direct.ring)
		ops := []agreeOp{{kind: agreeControl, choice: 5}} // TENANT ADD a
		for i := 0; len(data) >= 4; i++ {
			ops = append(ops, decodeAgreeOp(data[:4]))
			data = data[4:]
		}
		for i, o := range ops {
			if got, want := via.play(o, uint32(i), &keys), direct.play(o, uint32(i), &keys); got != want {
				t.Fatalf("op %d %+v: the proxy answered %q, the node %q", i, o, got, want)
			}
		}
		for i, addr := range via.ring.Members() {
			a, b := nodeAt(nodes, addr).svc, nodeAt(twins, direct.ring.Members()[i]).svc
			if a.ClusterVersion() != b.ClusterVersion() {
				t.Fatalf("member %d: registry version %d through the proxy, %d direct", i, a.ClusterVersion(), b.ClusterVersion())
			}
			if got, want := tenantCounts(a.Stats().Tenants), tenantCounts(b.Stats().Tenants); got != want {
				t.Fatalf("member %d: tenants %s through the proxy, %s direct", i, got, want)
			}
		}
	})
}

// The kinds of op FuzzProxyAgrees plays.
const (
	agreeGet = iota
	agreePut
	agreeDel
	agreeTouch
	agreeMGet
	agreeControl
	agreeMalformed
	agreePeer // a peer frame on the binary codec; a malformed line on text
)

// agreeOp is one op of FuzzProxyAgrees.
type agreeOp struct {
	kind   int
	bin    bool
	tenant int // 0 a, 1 b, 2 ghost, which is never added
	key    int // index into the tenant's keys; an MGET reads n from there
	n      int
	arg    uint8 // value length and TTL, or a variant
	choice int   // which control line, malformed request or peer frame
}

// decodeAgreeOp decodes one op from four bytes: b[0] holds the kind (low
// three bits), the codec (0x08) and the tenant; b[1] the key (low three
// bits) and an MGET's extra keys (top two); b[2] the value length and TTL;
// b[3] the choice of control line, malformed request or peer frame.
func decodeAgreeOp(b []byte) agreeOp {
	return agreeOp{
		kind: int(b[0] & 7), bin: b[0]&8 != 0, tenant: int(b[0]>>4) % 3,
		key: int(b[1] & 7), n: 1 + int(b[1]>>6), arg: b[2], choice: int(b[3]),
	}
}

var (
	agreeTenants  = [...]string{"a", "b", "ghost"}
	agreeControls = [...]string{"PING", "TENANT LIST", "STATS a", "STATS b", "STATS", "TENANT ADD a", "TENANT ADD b", "TENANT DEL b", "FROB x y"}
	longKey       = strings.Repeat("k", binwire.MaxKey+1)
	// agreeBadLines are lines either front refuses, each with the block
	// that follows it on a text connection.
	agreeBadLines = [...]struct{ line, block string }{
		{"GET a", ""}, {"GET a k x", ""}, {"DEL a", ""}, {"TOUCH a k", ""}, {"TOUCH a k nope", ""},
		{"TOUCH a k 4294967296", ""}, {"PUT a k", ""}, {"PUT a k notanumber", ""},
		{"PUT a k 3 junk", "abc"}, {"PUT a k 1 EXPIRE", "v"}, {"PUT a " + longKey + " 1", "v"},
		{"MGET a", ""}, {"MGET a 2 k", ""}, {"MGET a 0", ""}, {"MGET a two k", ""},
		{"GET a " + longKey, ""}, {"MGET a 1025" + strings.Repeat(" k", 1025), ""}, {"", ""},
	}
)

// agreeKeys finds, for each tenant, eight keys that member 0 of both rings
// owns.
func agreeKeys(r1, r2 *cluster.Ring) (keys [3][8]string) {
	for t, tenant := range agreeTenants {
		for i, n := 0, 0; n < len(keys[t]); i++ {
			k := "K" + itoa(i)
			if r1.Owner(tenant, k) == r1.Members()[0] && r2.Owner(tenant, k) == r2.Members()[0] {
				keys[t][n] = k
				n++
			}
		}
	}
	return keys
}

// agreeSide is one twin of FuzzProxyAgrees: its clients reach the nodes
// through the proxy at proxy, or straight when proxy is "".
type agreeSide struct {
	t     *testing.T
	ring  *cluster.Ring
	proxy string
	conns map[string]*bufio.ReadWriter
}

func newAgreeSide(t *testing.T, ring *cluster.Ring, proxy string) *agreeSide {
	return &agreeSide{t: t, ring: ring, proxy: proxy, conns: map[string]*bufio.ReadWriter{}}
}

// conn is the side's connection in codec bin to member addr, or to its
// proxy, dialed on first use.
func (s *agreeSide) conn(addr string, bin bool) *bufio.ReadWriter {
	if s.proxy != "" {
		addr = s.proxy
	}
	id := fmt.Sprint(addr, bin)
	if c := s.conns[id]; c != nil {
		return c
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	rw := bufio.NewReadWriter(bufio.NewReader(c), bufio.NewWriter(c))
	if bin {
		rw.Write([]byte{binwire.Magic, 'V', 'B', binwire.Version})
		rw.Flush()
		if _, err := rw.Discard(4); err != nil {
			s.t.Fatal(err)
		}
	}
	s.conns[id] = rw
	return rw
}

// play sends o, numbered id, to the member that owns it and returns its
// reply, with the rows that differ by design dropped from a STATS reply.
func (s *agreeSide) play(o agreeOp, id uint32, keys *[3][8]string) string {
	tenant, key, member := agreeTenants[o.tenant], keys[o.tenant][o.key], s.ring.Members()[0]
	val := strings.Repeat(string(rune('a'+id%26)), int(o.arg%8)*3)
	flags, ttl := uint8(0), uint32(0)
	if o.arg&0x08 != 0 {
		flags, ttl = binwire.FlagTTL, 60000
	}
	var line, block string // a text command or a TEXT frame
	var frame []byte       // any other binary frame
	switch o.kind {
	case agreeGet, agreePut, agreeDel, agreeTouch:
		op := [...]uint8{binwire.OpGet, binwire.OpPut, binwire.OpDel, binwire.OpTouch}[o.kind]
		if !o.bin {
			return s.text(member, string(binwire.AppendTextReq(nil, op, flags, ttl, tenant, key, []byte(val))))
		}
		if op != binwire.OpPut {
			val = ""
		}
		frame = binwire.AppendReq(nil, op, flags, id, ttl, tenant, key, []byte(val))
	case agreeMGet:
		batch := make([]string, o.n)
		for i := range batch {
			batch[i] = keys[o.tenant][(o.key+i)%8]
		}
		if !o.bin {
			return s.text(member, string(binwire.AppendTextMGet(nil, tenant, batch)))
		}
		frame = binwire.AppendBMGet(nil, id, tenant, batch)
	case agreeControl:
		line = agreeControls[o.choice%len(agreeControls)]
		if f := strings.Fields(line); len(f) == 3 && f[0] == "TENANT" {
			member = s.ring.Owner(f[2], "")
			if o.bin && o.arg&1 != 0 {
				op := uint8(binwire.OpTenantAdd)
				if f[1] == "DEL" {
					op = binwire.OpTenantDel
				}
				frame = binwire.AppendReq(nil, op, 0, id, 0, f[2], "", nil)
			}
		} else if o.bin && line == "PING" {
			frame = binwire.AppendReq(nil, binwire.OpPing, 0, id, 0, "", "", nil)
		}
	case agreePeer:
		if o.bin {
			frame = peerFrame(o.choice, id, key)
			break
		}
		fallthrough
	case agreeMalformed:
		if o.bin && o.choice%2 == 0 {
			frame = malformedFrame(o.choice/2, id, key)
			break
		}
		m := agreeBadLines[o.choice%len(agreeBadLines)]
		line, block = m.line, m.block
	}
	switch {
	case frame != nil:
		return s.frame(member, frame)
	case o.bin:
		return s.frame(member, binwire.AppendText(nil, id, []byte(line), []byte(block)))
	case line == "PING":
		return s.text(member, "PING\r\n")
	case block != "":
		block += "\r\n"
	}
	return dropStats(s.text(member, line+"\r\n"+block), line == "STATS")
}

// text sends cmd and then a PING on the text connection to member, and
// returns what came back before the PING's reply. A PING alone is its own
// reply.
func (s *agreeSide) text(member, cmd string) string {
	rw := s.conn(member, false)
	if cmd != "PING\r\n" {
		cmd += "PING\r\n"
	}
	rw.WriteString(cmd)
	if err := rw.Flush(); err != nil {
		s.t.Fatal(err)
	}
	var out strings.Builder
	for {
		l, err := rw.ReadString('\n')
		if err != nil {
			s.t.Fatalf("%.60q: %v after %q", cmd, err, out.String())
		}
		if l == "PONG\r\n" {
			if cmd == "PING\r\n" {
				return l
			}
			return out.String()
		}
		out.WriteString(l)
	}
}

// frame sends frame on the binary connection to member and returns its
// response: status, opcode, id and payload, a TEXT payload without the
// rows STATS may differ in.
func (s *agreeSide) frame(member string, frame []byte) string {
	rw := s.conn(member, true)
	rw.Write(frame)
	if err := rw.Flush(); err != nil {
		s.t.Fatal(err)
	}
	r, err := binwire.ReadResp(rw, new([]byte))
	if err != nil {
		s.t.Fatalf("frame %q: %v", frame, err)
	}
	payload := string(r.Payload)
	if r.Op == binwire.OpText {
		payload = dropStats(payload, strings.Contains(payload, "STAT ops "))
	}
	return fmt.Sprintf("%d %d %d %q", r.Status, r.Op, r.ID, payload)
}

// malformedFrame is a well-framed frame either front answers with a
// frame-level ERR.
func malformedFrame(choice int, id uint32, key string) []byte {
	switch choice % 6 {
	case 0:
		return binwire.AppendReq(nil, binwire.OpGet, 0, id, 0, "a", longKey, nil)
	case 1:
		return binwire.AppendReq(nil, binwire.OpGet, 0, id, 0, "a", "", nil)
	case 2:
		return binwire.AppendReq(nil, binwire.OpGet, 0, id, 0, "a", key, []byte("v"))
	case 3:
		return binwire.AppendBMGet[string](nil, id, "a", nil)
	case 4:
		keys := make([]string, binwire.MaxBatchKeys+1)
		for i := range keys {
			keys[i] = key
		}
		return binwire.AppendBMGet(nil, id, "a", keys)
	}
	return binwire.AppendReq(nil, binwire.OpTouch, binwire.FlagTTL, id, 5, "a", longKey, nil)
}

// peerFrame is a frame only a peer may send: REG_OP, REG_PULL or REHOME.
func peerFrame(choice int, id uint32, key string) []byte {
	switch choice % 3 {
	case 0:
		return binwire.AppendReq(nil, binwire.OpRegOp, binwire.FlagRegAdd, id, 0, "sneak", "", le64(99))
	case 1:
		return binwire.AppendReq(nil, binwire.OpRegPull, 0, id, 0, "", "", nil)
	}
	return binwire.AppendReq(nil, binwire.OpRehome, 0, id, 0, "a", key, []byte("v"))
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// nodeAt is the node listening at addr.
func nodeAt(nodes []*poolNode, addr string) *poolNode {
	for _, pn := range nodes {
		if pn.addr == addr {
			return pn
		}
	}
	return nil
}

// tenantCounts renders each tenant's registration and request counters.
func tenantCounts(ts []service.TenantStats) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%s@%d gets %d puts %d hits %d misses %d; ", t.Name, t.Partition, t.Gets, t.Puts, t.Hits, t.Misses)
	}
	return b.String()
}
