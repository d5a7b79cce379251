package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vantage/internal/binwire"
)

// capSink reports the capacity of each delivered payload, i.e. (minus the
// header) of the reader's frame buffer at that delivery.
type capSink chan int

func (s capSink) deliver(_ pend, _ uint8, payload []byte) { s <- cap(payload) }

// TestPoolReaderDropsHugeFrame: one huge backend response must not pin its
// buffer on the pooled connection; the next frame reads into a fresh one.
func TestPoolReaderDropsHugeFrame(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// A backend that answers every frame with as many payload bytes as the
	// request's ttl_ms field says.
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var pre [4]byte
		io.ReadFull(c, pre[:])
		c.Write(pre[:])
		for {
			var lb [4]byte
			if _, err := io.ReadFull(c, lb[:]); err != nil {
				return
			}
			req := make([]byte, le.Uint32(lb[:]))
			if _, err := io.ReadFull(c, req); err != nil {
				return
			}
			payload := make([]byte, le.Uint32(req[8:12]))
			c.Write(binwire.AppendResp(nil, binwire.StOK, req[0], le.Uint32(req[4:8]), payload))
		}
	}()

	pl := newPool([]string{lis.Addr().String()}, nil)
	defer pl.close()
	pc, err := pl.get(0)
	if err != nil {
		t.Fatal(err)
	}
	sink := make(capSink, 1)
	for _, step := range []struct {
		size uint32
		ok   func(c int) bool
	}{
		{2 * poolKeepBuf, func(c int) bool { return c >= 2*poolKeepBuf }},
		{64, func(c int) bool { return c <= poolKeepBuf }},
	} {
		pc.submit(pend{s: sink}, binwire.AppendReq(nil, binwire.OpGet, 0, 0, step.size, "t", "k", nil))
		pc.flush()
		if c := <-sink; !step.ok(c) {
			t.Fatalf("after a %d-byte response the reader's buffer holds %d bytes", step.size, c)
		}
	}
}

// TestTextSequencerWindowShrinks: a deep pipelined burst that completes out
// of order comes out in command order, and once it has drained the session
// holds neither the grown window nor the buffers its slots rendered into.
func TestTextSequencerWindowShrinks(t *testing.T) {
	var out bytes.Buffer
	ts := &textProxySess{w: bufio.NewWriter(&out), slots: make([]textSlot, textWindow)}
	ts.cond = sync.NewCond(&ts.mu)
	const depth = 1000
	var want []byte
	for i := 0; i < depth; i++ {
		if seq := ts.allocSeq(nil); seq != uint64(i) {
			t.Fatalf("slot %d assigned as %d", i, seq)
		}
		want = binwire.AppendTextValue(want, fmt.Appendf(nil, "v%d", i))
	}
	if len(ts.slots) <= textWindow {
		t.Fatalf("window holds %d slots with %d commands in flight", len(ts.slots), depth)
	}
	for i := depth - 1; i >= 0; i-- { // the head completes last
		ts.complete(uint64(i), binwire.OpGet, binwire.StOK, fmt.Appendf(nil, "v%d", i), nil)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("responses left out of command order")
	}
	if len(ts.slots) != textWindow {
		t.Fatalf("drained session keeps a window of %d slots, want %d", len(ts.slots), textWindow)
	}
	for i, sl := range ts.slots {
		if sl.buf != nil || sl.done {
			t.Fatalf("slot %d of the drained window is not empty", i)
		}
	}
	// The window at rest reuses its slot buffers: that is what keeps
	// ordinary out-of-order completions from allocating.
	a, b := ts.allocSeq(nil), ts.allocSeq(nil)
	ts.complete(b, binwire.OpPing, binwire.StOK, nil, nil)
	ts.complete(a, binwire.OpPing, binwire.StOK, nil, nil)
	if ts.slots[b&(textWindow-1)].buf == nil {
		t.Fatal("a slot of the resting window dropped its small buffer")
	}
}

// TestTextUnknownTenantReply: a node's binary refusal of an unknown tenant
// reaches a text client as the line a node's text codec writes, which names
// the tenant, for a single command and a split batch alike, and rendering
// it allocates nothing once the session is warm.
func TestTextUnknownTenantReply(t *testing.T) {
	var out bytes.Buffer
	ts := &textProxySess{p: &Proxy{}, w: bufio.NewWriter(&out), slots: make([]textSlot, textWindow)}
	ts.cond = sync.NewCond(&ts.mu)
	tenant, refusal := []byte(`gh"ost`+strings.Repeat("x", 60)), []byte(binwire.UnknownTenant)
	var sc scatter
	both := func() {
		ts.complete(ts.allocSeq(tenant), binwire.OpGet, binwire.StErr, refusal, nil)
		sc.begin(2, 0, ts.allocSeq(tenant), 0)
		sc.add(0, tenant, []byte("a"))
		sc.add(1, tenant, []byte("b"))
		for o := range sc.sub {
			sc.sub[o] = sc.sub[o][:0]
		}
		sc.m.remain.Store(2)
		ts.deliver(pend{s: ts, m: sc.m, sub: 0}, binwire.StErr, refusal)
		ts.deliver(pend{s: ts, m: sc.m, sub: 1}, binwire.StErr, refusal)
	}
	both()
	want := "ERR service: unknown tenant " + strconv.Quote(string(tenant)) + "\r\n"
	if out.String() != want+want {
		t.Fatalf("rendered %q, want %q twice", out.String(), want)
	}
	out.Reset()
	var pool sync.Pool
	pool.New = func() any { return new(int) }
	if testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			pool.Put(pool.Get())
		}
	}) > 0 {
		return // sync.Pool drops objects under the race detector, so the pooled merge allocates there
	}
	if n := testing.AllocsPerRun(100, both); n != 0 {
		t.Fatalf("an unknown-tenant reply allocates %.1f times", n)
	}
}
