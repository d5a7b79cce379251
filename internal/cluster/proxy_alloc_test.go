// The proxy hop's allocation discipline and what protects it: in steady
// state a batch through either front allocates nothing per key on the proxy
// or on the nodes' BMGET path (a PUT keeps the node's one immutable value
// copy), pooled merges survive a backend dying under them, and neither an
// endless line nor one huge backend response can pin proxy memory.
package cluster_test

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vantage/internal/cluster"
)

const allocBatch = 32

// rawFront is an allocation-free client of either proxy front: requests are
// encoded into out, responses are parsed in place in r's buffer.
type rawFront struct {
	tb  testing.TB
	c   net.Conn
	r   *bufio.Reader
	out []byte
	bin bool
}

func dialFront(tb testing.TB, addr string, bin bool) *rawFront {
	tb.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	f := &rawFront{tb: tb, c: c, r: bufio.NewReaderSize(c, 256<<10), bin: bin}
	if bin {
		var ack [4]byte
		if _, err := c.Write([]byte{0x83, 'V', 'B', 1}); err != nil {
			tb.Fatal(err)
		}
		if _, err := io.ReadFull(f.r, ack[:]); err != nil {
			tb.Fatal(err)
		}
	}
	return f
}

func (f *rawFront) flush() {
	if _, err := f.c.Write(f.out); err != nil {
		f.tb.Fatal(err)
	}
	f.out = f.out[:0]
}

// binHeader appends a request frame's length prefix and fixed header.
func (f *rawFront) binHeader(op uint8, id uint32, klen, body int, tenant string) {
	f.out = binary.LittleEndian.AppendUint32(f.out, uint32(16+len(tenant)+body))
	f.out = append(f.out, op, 0, uint8(len(tenant)), 0)
	f.out = binary.LittleEndian.AppendUint32(f.out, id)
	f.out = binary.LittleEndian.AppendUint32(f.out, 0)
	f.out = binary.LittleEndian.AppendUint16(f.out, uint16(klen))
	f.out = append(f.out, 0, 0)
	f.out = append(f.out, tenant...)
}

// binFrame reads one response frame; payload aliases the read buffer.
func (f *rawFront) binFrame() (status uint8, id uint32, payload []byte) {
	hdr, err := f.r.Peek(4)
	if err != nil {
		f.tb.Fatal(err)
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	b, err := f.r.Peek(4 + n)
	if err != nil {
		f.tb.Fatal(err)
	}
	f.r.Discard(4 + n)
	return b[4], binary.LittleEndian.Uint32(b[8:12]), b[12:]
}

func (f *rawFront) line() []byte {
	l, err := f.r.ReadSlice('\n')
	if err != nil {
		f.tb.Fatal(err)
	}
	return l[:len(l)-2]
}

// mget reads keys through the front (BMGET or text MGET) and returns how
// many answered with the expected value; an ERR answers zero.
func (f *rawFront) mget(tenant string, keys []string, id uint32) (hits int) {
	if f.bin {
		body := 0
		for _, k := range keys {
			body += 2 + len(k)
		}
		f.binHeader(11, id, len(keys), body, tenant)
		for _, k := range keys {
			f.out = binary.LittleEndian.AppendUint16(f.out, uint16(len(k)))
			f.out = append(f.out, k...)
		}
		f.flush()
		st, rid, p := f.binFrame()
		if rid != id {
			f.tb.Fatalf("BMGET answered id %d, want %d", rid, id)
		}
		if st != 0 {
			return 0
		}
		if n := int(binary.LittleEndian.Uint16(p)); n != len(keys) {
			f.tb.Fatalf("BMGET answered %d keys, want %d", n, len(keys))
		}
		p = p[2:]
		for _, k := range keys {
			vl := int(binary.LittleEndian.Uint32(p[1:5]))
			if p[0] == 0 && string(p[5:5+vl]) == "v-"+k {
				hits++
			}
			p = p[5+vl:]
		}
		if len(p) != 0 {
			f.tb.Fatalf("BMGET payload has %d trailing bytes", len(p))
		}
		return hits
	}
	f.out = append(f.out, "MGET "...)
	f.out = append(f.out, tenant...)
	f.out = strconv.AppendInt(append(f.out, ' '), int64(len(keys)), 10)
	for _, k := range keys {
		f.out = append(append(f.out, ' '), k...)
	}
	f.out = append(f.out, "\r\n"...)
	f.flush()
	for _, k := range keys {
		l := f.line()
		if string(l[:min(3, len(l))]) == "ERR" {
			return 0
		}
		if string(l) == "MISS" {
			continue
		}
		n, err := strconv.Atoi(string(l[6:])) // "VALUE <n>"; small ints do not allocate
		if err != nil {
			f.tb.Fatalf("MGET line %q", l)
		}
		v, _ := f.r.Peek(n + 2)
		if string(v[:n]) == "v-"+k {
			hits++
		}
		f.r.Discard(n + 2)
	}
	if l := f.line(); string(l) != "END" {
		f.tb.Fatalf("MGET terminator %q", l)
	}
	return hits
}

// fill stores "v-"+key under every key, pipelined, and checks every ack.
func (f *rawFront) fill(tenant string, keys []string) {
	for i, k := range keys {
		if f.bin {
			f.binHeader(2, uint32(i), len(k), len(k)+2+len(k), tenant)
			f.out = append(append(append(f.out, k...), "v-"...), k...)
			continue
		}
		f.out = append(append(append(append(f.out, "PUT "...), tenant...), ' '), k...)
		f.out = strconv.AppendInt(append(f.out, ' '), int64(2+len(k)), 10)
		f.out = append(append(append(f.out, "\r\nv-"...), k...), "\r\n"...)
	}
	f.flush()
	for range keys {
		if f.bin {
			if st, _, _ := f.binFrame(); st != 0 {
				f.tb.Fatalf("binary PUT status %d", st)
			}
		} else if l := f.line(); string(l) != "STORED" {
			f.tb.Fatalf("text PUT: %q", l)
		}
	}
}

// allocFixture is three nodes (no background repartitioning) behind a proxy,
// one client per front, and batches of resident keys.
type allocFixture struct {
	fronts  [2]*rawFront // binary, text
	batches [][]string
}

func newAllocFixture(tb testing.TB) *allocFixture {
	pc := bootProxyCluster(tb, reservePorts(tb, 3), true)
	fx := &allocFixture{fronts: [2]*rawFront{dialFront(tb, pc.proxyAddr, true), dialFront(tb, pc.proxyAddr, false)}}
	text := fx.fronts[1]
	text.out = append(text.out, "TENANT ADD t\r\n"...)
	text.flush()
	if l := text.line(); !strings.HasPrefix(string(l), "OK") {
		tb.Fatalf("TENANT ADD: %q", l)
	}
	for b := 0; b < 8; b++ {
		keys := make([]string, allocBatch)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d-%d", b, i)
		}
		fx.batches = append(fx.batches, keys)
		text.fill("t", keys)
	}
	return fx
}

// TestProxyDataPlaneAllocs: the whole process — proxy, three nodes, clients —
// allocates (almost) nothing per key on all-hit multi-key reads through
// either front, and one object per PUT (the node's immutable value copy).
func TestProxyDataPlaneAllocs(t *testing.T) {
	var pool sync.Pool
	pool.New = func() any { return new(int) }
	recycle := func() {
		for i := 0; i < 100; i++ {
			pool.Put(pool.Get())
		}
	}
	if testing.AllocsPerRun(1, recycle) > 0 {
		t.Skip("sync.Pool drops a quarter of its objects under the race detector: pooled paths allocate there")
	}
	fx := newAllocFixture(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools mid-measurement

	const rounds = 40
	perKey := func(op func(f *rawFront, keys []string, id uint32)) [2]float64 {
		var out [2]float64
		for fi, f := range fx.fronts {
			var before, after runtime.MemStats
			for r := -4; r < rounds; r++ { // four warm-up rounds size every reused buffer
				if r == 0 {
					runtime.ReadMemStats(&before)
				}
				for bi, keys := range fx.batches {
					op(f, keys, uint32(r*len(fx.batches)+bi))
				}
			}
			runtime.ReadMemStats(&after)
			out[fi] = float64(after.Mallocs-before.Mallocs) / float64(rounds*len(fx.batches)*allocBatch)
		}
		return out
	}

	reads := perKey(func(f *rawFront, keys []string, id uint32) {
		if hits := f.mget("t", keys, id); hits != len(keys) {
			t.Fatalf("batch answered %d hits of %d", hits, len(keys))
		}
	})
	puts := perKey(func(f *rawFront, keys []string, _ uint32) { f.fill("t", keys) })
	t.Logf("mallocs per key: BMGET %.4f, MGET %.4f; per PUT: binary %.4f, text %.4f", reads[0], reads[1], puts[0], puts[1])
	for fi, name := range []string{"binary", "text"} {
		if reads[fi] > 0.05 {
			t.Errorf("%s front: %.3f mallocs per key on all-hit reads, want <= 0.05", name, reads[fi])
		}
		if puts[fi] > 1.05 {
			t.Errorf("%s front: %.3f mallocs per PUT, want <= 1.05", name, puts[fi])
		}
	}
}

func benchmarkProxyRead(b *testing.B, front int) {
	fx := newAllocFixture(b)
	f := fx.fronts[front]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.mget("t", fx.batches[i%len(fx.batches)], uint32(i))
	}
}

// One iteration is one 32-key batch through the proxy and back.
func BenchmarkProxyBMGet(b *testing.B) { benchmarkProxyRead(b, 0) }
func BenchmarkProxyMGet(b *testing.B)  { benchmarkProxyRead(b, 1) }

// TestProxyBackendDeathMidMerge extends TestProxyBackendDeathAndReconnect to
// pooled merges: clients on both fronts keep multi-key batches in flight
// while one backend is killed under them. Every batch must get exactly one
// response — merged values or the whole-batch ERR — and a recycled merge
// must never leak one batch's state into another (run it with -race).
func TestProxyBackendDeathMidMerge(t *testing.T) {
	nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
	setup := dialFront(t, p.Addr().String(), false)
	setup.out = append(setup.out, "TENANT ADD t\r\n"...)
	setup.flush()
	if l := setup.line(); !strings.HasPrefix(string(l), "OK") {
		t.Fatalf("TENANT ADD: %q", l)
	}
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = "mm-" + itoa(i)
	}
	setup.fill("t", keys)

	const clients, batches, killAfter = 4, 300, 4 * 300 / 3
	var sent atomic.Int64
	kill := make(chan struct{})
	var wg sync.WaitGroup
	var answered [clients][2]int // per client: merged, failed
	for ci := 0; ci < clients; ci++ {
		f := dialFront(t, p.Addr().String(), ci%2 == 0)
		wg.Add(1)
		go func(ci int, f *rawFront) {
			defer wg.Done()
			f.c.SetDeadline(time.Now().Add(30 * time.Second))
			for b := 0; b < batches; b++ {
				if sent.Add(1) == killAfter {
					close(kill)
				}
				// A short read is a hit count below len(keys) only when the
				// batch failed whole; survivors' keys never go missing.
				if hits := f.mget("t", keys[b%8:b%8+16], uint32(b)); hits == 16 {
					answered[ci][0]++
				} else if hits == 0 {
					answered[ci][1]++
				} else {
					t.Errorf("client %d batch %d: %d of 16 keys answered — a merge mixed batches", ci, b, hits)
				}
			}
			// The stream is still in step: nothing extra was written for any
			// batch, so the next reply is this PING's.
			if f.bin {
				f.binHeader(5, 9999, 0, 0, "")
				f.flush()
				if st, id, _ := f.binFrame(); st != 0 || id != 9999 {
					t.Errorf("client %d: PING answered status %d id %d", ci, st, id)
				}
			} else {
				f.out = append(f.out, "PING\r\n"...)
				f.flush()
				if l := f.line(); string(l) != "PONG" {
					t.Errorf("client %d: PING answered %q", ci, l)
				}
			}
		}(ci, f)
	}
	<-kill
	nodes[1].stop()
	wg.Wait()
	merged, failed := 0, 0
	for _, a := range answered {
		merged += a[0]
		failed += a[1]
	}
	if merged+failed != clients*batches || merged == 0 || failed == 0 {
		t.Fatalf("%d merged + %d failed batches of %d: the kill did not land mid-stream", merged, failed, clients*batches)
	}
}

// TestProxyUnterminatedLineBounded: a client that never sends a newline is
// cut off at the line bound instead of growing the proxy without limit.
func TestProxyUnterminatedLineBounded(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cluster.NewProxy(lis, []string{"127.0.0.1:1"}, scaleVNodes) // never dialed
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	chunk := []byte(strings.Repeat("a", 64<<10))
	c.SetDeadline(time.Now().Add(10 * time.Second))
	for sent := 0; sent < 4<<20; sent += len(chunk) {
		if _, err := c.Write(chunk); err != nil {
			break // the proxy already hung up
		}
	}
	// The heap is read while the client still holds its end open and has not
	// looked for the close, once the proxy has had time to take in what was
	// sent: whatever a session that is still buffering holds is live then.
	time.Sleep(100 * time.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&during)
	if grown := int64(during.HeapAlloc) - int64(before.HeapAlloc); grown > 2<<20 {
		t.Errorf("proxy heap grew %d bytes over an unterminated line, want < 2 MiB", grown)
	}
	// Closed by the proxy means EOF or a reset; the deadline means it is
	// still buffering.
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("proxy kept the session open past 4 MiB of unterminated line")
		}
	}
}

// TestProxyOversizedPutBounded: a PUT declaring more than a node takes is
// refused with the node's own message before any of its block is read, and
// the session ends as a node's connection would. The proxy once read such a
// block into one buffer of the declared size, up to 64 MiB per client line.
func TestProxyOversizedPutBounded(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{})
	c, err := net.Dial("tcp", p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(c, "PUT t %s %d\r\n", strings.Repeat("k", 251), 64<<20); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&during)
	if grown := int64(during.HeapAlloc) - int64(before.HeapAlloc); grown > 2<<20 {
		t.Errorf("proxy heap grew %d bytes over one PUT line, want < 2 MiB", grown)
	}
	c.SetDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(c)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("the session was left open after %q", got)
	}
	if want := "ERR value length 67108864 exceeds maximum 1048576\r\n"; string(got) != want {
		t.Fatalf("the session read %q, want %q", got, want)
	}
}

// TestProxyBMGetValidation: the binary front answers a malformed BMGET the
// way a node does (binwire.Req.Parse) — the body must tile before the count
// is believed (a framing violation closes the client), then the same
// frame-level ERRs in the same precedence, with the stream left usable.
func TestProxyBMGetValidation(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{})
	f := dialFront(t, p.Addr().String(), true)
	entries := func(keys ...string) (body []byte) {
		for _, k := range keys {
			body = append(binary.LittleEndian.AppendUint16(body, uint16(len(k))), k...)
		}
		return body
	}
	many := make([]string, 1025)
	for i := range many {
		many[i] = "" // over the cap AND bad keys: the cap is reported
	}
	for i, c := range []struct {
		count int
		body  []byte
		msg   string
	}{
		{0, nil, "empty key list"},
		{2, entries("ok", ""), "bad key length"},
		{1, entries(strings.Repeat("k", 251)), "bad key length"},
		{len(many), entries(many...), "too many keys"},
	} {
		f.binHeader(11, uint32(i), c.count, len(c.body), "t")
		f.out = append(f.out, c.body...)
		f.flush()
		if st, id, payload := f.binFrame(); st != 2 || id != uint32(i) || string(payload) != c.msg {
			t.Fatalf("case %d: status %d id %d %q, want ERR %q", i, st, id, payload, c.msg)
		}
	}
	// A count the body cannot tile is a framing violation whatever it says.
	f.binHeader(11, 99, 65535, 3, "t")
	f.out = append(f.out, entries("a")...)
	f.flush()
	f.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := f.r.ReadByte(); err != io.EOF {
		t.Fatalf("truncated key list: read %v, want the session closed", err)
	}
}

// TestProxyMGetOversizedKey: a text MGET key too long for a BMGET sub-frame
// gets the owner's whole-batch refusal from the proxy itself — past 64 KiB
// its length would wrap the sub-frame's u16 and corrupt a pooled connection
// every other client is riding.
func TestProxyMGetOversizedKey(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{})
	f := dialFront(t, p.Addr().String(), false)
	f.out = append(f.out, "TENANT ADD t\r\n"...)
	f.flush()
	if l := f.line(); !strings.HasPrefix(string(l), "OK") {
		t.Fatalf("TENANT ADD: %q", l)
	}
	f.fill("t", []string{"a"})
	for _, n := range []int{251, 70000} {
		f.out = append(f.out, "MGET t 2 a "+strings.Repeat("k", n)+"\r\n"...)
		f.flush()
		if l := f.line(); string(l) != "ERR bad key length" {
			t.Fatalf("MGET with a %d-byte key: %q", n, l)
		}
	}
	if hits := f.mget("t", []string{"a"}, 0); hits != 1 {
		t.Fatal("the pooled connection did not survive the oversized key")
	}
}

// TestProxyFramingViolationSparesPool: a frame a node would close on for
// its framing closes the sending client's session at the proxy and never
// reaches the pooled backend connection every client shares. Forwarded, it
// made the node close that connection: every other client's in-flight
// request on it failed with "backend lost" and the pool redialed.
func TestProxyFramingViolationSparesPool(t *testing.T) {
	nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
	addrs := make([]string, len(nodes))
	for i, pn := range nodes {
		addrs[i] = pn.addr
	}
	ring, err := cluster.NewRing(addrs, scaleVNodes)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string // all owned by one backend, so all share its pooled connection
	for i := 0; len(keys) < 8; i++ {
		if k := "f" + strconv.Itoa(i); ring.Owner("t", k) == addrs[0] {
			keys = append(keys, k)
		}
	}
	a := dialFront(t, p.Addr().String(), true)
	a.binHeader(6, 0, 0, 0, "t") // TENANT_ADD
	a.flush()
	if st, _, _ := a.binFrame(); st != 0 {
		t.Fatalf("TENANT_ADD status %d", st)
	}
	a.fill("t", keys[:4])
	// get pipelines a GET of every key, leaving the answers in flight.
	get := func() {
		for i, k := range keys {
			a.binHeader(1, uint32(i), len(k), len(k), "t")
			a.out = append(a.out, k...)
		}
		a.flush()
	}
	answered := func(name string) {
		for range keys {
			if st, _, payload := a.binFrame(); st != 0 && st != 1 {
				t.Fatalf("%s: a bystander's GET answered status %d %q", name, st, payload)
			}
		}
	}
	get()
	answered("warm-up")
	before := p.Stats().PoolConnsTotal

	k := keys[0]
	for _, c := range []struct {
		name  string
		op    uint8
		value int
		off   int    // header byte to set to 0x80; -1 for none
		text  string // a TEXT frame's body, sent instead of key and value
	}{
		{"reserved u8", 1, 0, 3, ""},
		{"reserved u16", 1, 0, 14, ""},
		{"undefined flag", 1, 0, 1, ""},
		{"PUT over the max frame", 2, 2 << 20, -1, ""},
		{"TEXT PUT with its block cut short", 12, 0, -1, "PUT t " + k + " 5\nhel"},
	} {
		b := dialFront(t, p.Addr().String(), true)
		if c.text != "" {
			b.binHeader(c.op, 7, 0, len(c.text), "")
			b.out = append(b.out, c.text...)
		} else {
			b.binHeader(c.op, 7, len(k), len(k)+c.value, "t")
			if c.off >= 0 {
				b.out[4+c.off] = 0x80
			}
			b.out = append(b.out, k...)
			b.out = append(b.out, make([]byte, c.value)...)
		}
		get()
		b.c.SetDeadline(time.Now().Add(5 * time.Second))
		b.c.Write(b.out) // the proxy may close before it has read all of it
		if st, _, payload, err := readAny(b.r); err == nil {
			t.Fatalf("%s: the session answered status %d %q, want it closed", c.name, st, payload)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: the session was left open", c.name)
		}
		answered(c.name)
		get()
		answered(c.name + ", next batch")
		if after := p.Stats().PoolConnsTotal; after != before {
			t.Fatalf("%s: the pool dialed %d -> %d backend connections", c.name, before, after)
		}
	}
}

// readAny reads one response frame, or the error that ends the session.
func readAny(r *bufio.Reader) (status uint8, id uint32, payload []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	b := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err = io.ReadFull(r, b); err != nil {
		return 0, 0, nil, err
	}
	return b[0], binary.LittleEndian.Uint32(b[4:8]), b[8:], nil
}
