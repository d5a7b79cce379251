// A proxy client that does not read must hold back only itself: the pool's
// backend connections are shared, so a pool reader that waited on one
// client's socket would stall every client of that backend.
package cluster_test

import (
	"bufio"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/cluster"
)

// stallFixture is a 3-node cluster behind a proxy with one large value
// stored under big and a second key, other, on the same backend.
type stallFixture struct {
	p          *cluster.Proxy
	big, other string
}

func newStallFixture(t *testing.T, size int) *stallFixture {
	nodes, p := bootPoolCluster(t, cluster.ProxyConfig{})
	ring := ringOf(t, nodes)
	fx := &stallFixture{p: p, big: keyOwnedBy(t, ring, "t", nodes[0].addr)}
	for i := 0; fx.other == ""; i++ {
		if k := "o-" + itoa(i); ring.Owner("t", k) == nodes[0].addr {
			fx.other = k
		}
	}
	c := dialFront(t, p.Addr().String(), false)
	c.out = append(c.out, "TENANT ADD t\r\n"...)
	c.flush()
	if l := c.line(); !strings.HasPrefix(string(l), "OK") {
		t.Fatalf("TENANT ADD: %q", l)
	}
	c.out = append(c.out, "PUT t "+fx.big+" "+strconv.Itoa(size)+"\r\n"...)
	c.out = append(append(c.out, strings.Repeat("v", size)...), "\r\n"...)
	c.flush()
	if l := c.line(); string(l) != "STORED" {
		t.Fatalf("PUT: %q", l)
	}
	return fx
}

// gets appends n GETs of key to f's output in f's codec.
func (f *rawFront) gets(key string, n int) {
	for i := 0; i < n; i++ {
		if f.bin {
			f.out = binwire.AppendReq(f.out, binwire.OpGet, 0, uint32(i), 0, "t", key, nil)
		} else {
			f.out = append(f.out, "GET t "+key+"\r\n"...)
		}
	}
}

// answered checks that a fresh text client's GET of fx.other is answered
// within a second.
func (fx *stallFixture) answered(t *testing.T, front string) {
	t.Helper()
	b, err := net.Dial("tcp", fx.p.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetDeadline(time.Now().Add(time.Second))
	if _, err := b.Write([]byte("GET t " + fx.other + "\r\n")); err != nil {
		t.Fatal(err)
	}
	if l, err := bufio.NewReader(b).ReadString('\n'); err != nil || l != "MISS\r\n" {
		t.Fatalf("A stalled on the %s front: B's GET read %q, %v", front, l, err)
	}
}

// TestProxyStalledClientHoldsOnlyItself: client A pipelines 200 GETs of a
// 1 MiB value and never reads; client B's GET of another key on the same
// backend is still answered within a second, with A on either front. The
// pool's readers once wrote client replies themselves, so A's full socket
// blocked its backend's reader and B timed out.
func TestProxyStalledClientHoldsOnlyItself(t *testing.T) {
	fx := newStallFixture(t, binwire.MaxValue)
	for _, bin := range []bool{false, true} {
		a := dialFront(t, fx.p.Addr().String(), bin)
		a.gets(fx.big, 200)
		a.flush()
		time.Sleep(500 * time.Millisecond) // A's replies back up into its session
		fx.answered(t, map[bool]string{false: "text", true: "binary"}[bin])
		a.c.Close()
	}
}

// TestProxyStalledClientBounded: while client A keeps sending GETs and
// never reads, its session stops reading it — A's writes block — and the
// proxy's heap grows by no more than the session's bounds allow: at most
// SessMaxOut unwritten bytes plus SessMaxOwed replies, doubled for the
// growth of the buffer they are appended to, plus 4 MiB for the pool's and
// the nodes' buffers. B is still answered.
func TestProxyStalledClientBounded(t *testing.T) {
	const size = 64 << 10
	fx := newStallFixture(t, size)
	bound := uint64(2*(cluster.SessMaxOut+cluster.SessMaxOwed*(size+64)) + 4<<20)
	for _, bin := range []bool{false, true} {
		front := map[bool]string{false: "text", true: "binary"}[bin]
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		a := dialFront(t, fx.p.Addr().String(), bin)
		blocked := false
		for sent := 0; sent < 1<<20 && !blocked; sent += 512 {
			a.out = a.out[:0]
			a.gets(fx.big, 512)
			a.c.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			_, err := a.c.Write(a.out)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				blocked = true
			} else if err != nil {
				t.Fatal(err)
			}
			// The guard stops a proxy that reads on before it exhausts
			// memory; uncollected garbage can take the heap to twice live.
			if runtime.ReadMemStats(&ms); ms.HeapAlloc > base+3*bound {
				t.Fatalf("%s front: heap grew by %d MiB while A never read", front, (ms.HeapAlloc-base)>>20)
			}
		}
		if !blocked {
			t.Fatalf("%s front: the proxy read 1Mi GETs from a client that never read a reply", front)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if grown := int64(ms.HeapAlloc) - int64(base); grown > int64(bound) {
			t.Errorf("%s front: heap grew %d bytes while A never read, want at most %d", front, grown, bound)
		}
		fx.answered(t, front)
		a.c.Close()
	}
}
