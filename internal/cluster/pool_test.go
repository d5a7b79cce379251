package cluster

import (
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

// textSess is a text session with no connection and no writer: what its
// pool readers render stays in out.
func textSess() *sess {
	s := &sess{p: &Proxy{}, slots: make([]slot, sessMaxOwed)}
	s.rcond.L, s.wcond.L = &s.mu, &s.mu
	return s
}

// TestSessionReplyOrder: a full window of pipelined commands that completes
// out of order comes out in command order, and the window holds no more
// than sessMaxOwed, where the session stops reading. Once it has drained,
// its slots keep the small buffers they rendered into, which keeps ordinary
// out-of-order completions from allocating, but not a large one.
func TestSessionReplyOrder(t *testing.T) {
	s := textSess()
	vals := make([][]byte, sessMaxOwed)
	var want []byte
	for i := range vals {
		if seq := s.claim(nil); seq != uint64(i) {
			t.Fatalf("slot %d assigned as %d", i, seq)
		}
		if vals[i] = fmt.Appendf(nil, "v%d", i); i == 1 {
			vals[i] = bytes.Repeat([]byte("x"), 2*slotKeepBuf)
		}
		want = binwire.AppendTextValue(want, vals[i])
	}
	if !s.full() {
		t.Fatalf("a session owing %d replies would read on", sessMaxOwed)
	}
	for i := len(vals) - 1; i >= 0; i-- { // the head completes last
		if len(s.out) != 0 {
			t.Fatalf("reply %d left ahead of the head", i+1)
		}
		s.deliver(pend{op: binwire.OpGet, seq: uint64(i)}, binwire.StOK, vals[i])
	}
	if !bytes.Equal(s.out, want) {
		t.Fatal("replies left out of command order")
	}
	if s.full() {
		t.Fatal("a drained session still refuses to read")
	}
	for i, sl := range s.slots {
		switch {
		case sl.done:
			t.Fatalf("slot %d of the drained window is still pending", i)
		case i == 1 && sl.buf != nil:
			t.Fatal("a slot kept the large buffer it rendered into")
		case i > 1 && sl.buf == nil:
			t.Fatalf("slot %d dropped its small buffer", i)
		}
	}
}

// TestTextUnknownTenantReply: a node's binary refusal of an unknown tenant
// reaches a text client as the line a node's text codec writes, which names
// the tenant, for a single command and a split batch alike, and rendering
// it allocates nothing once the session is warm.
func TestTextUnknownTenantReply(t *testing.T) {
	s := textSess()
	tenant, refusal := []byte(`gh"ost`+strings.Repeat("x", 60)), []byte(binwire.UnknownTenant)
	sc := &s.sc
	both := func() {
		s.out = s.out[:0]
		s.deliver(pend{op: binwire.OpGet, seq: s.claim(tenant)}, binwire.StErr, refusal)
		sc.begin(2, 0, s.claim(tenant), 0)
		sc.add(0, tenant, []byte("a"))
		sc.add(1, tenant, []byte("b"))
		for o := range sc.sub {
			sc.sub[o] = sc.sub[o][:0]
		}
		sc.m.remain.Store(2)
		s.deliver(pend{m: sc.m, sub: 0}, binwire.StErr, refusal)
		s.deliver(pend{m: sc.m, sub: 1}, binwire.StErr, refusal)
	}
	both()
	want := "ERR service: unknown tenant " + strconv.Quote(string(tenant)) + "\r\n"
	if string(s.out) != want+want {
		t.Fatalf("rendered %q, want %q twice", s.out, want)
	}
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
