package service

import (
	"sync/atomic"
	"testing"
	"time"
)

// countingInjector counts Fault calls and injects nothing.
type countingInjector struct{ n atomic.Int64 }

func (c *countingInjector) Fault(Op, string) Fault {
	c.n.Add(1)
	return Fault{}
}

// TestOneFaultDrawPerOp: every data request draws the injector exactly
// once, whichever codec carried it, and a batch draws once for all its keys.
func TestOneFaultDrawPerOp(t *testing.T) {
	svc, srv := newTestServer(t)
	if _, err := svc.AddTenant("t"); err != nil {
		t.Fatal(err)
	}
	ci := &countingInjector{}
	svc.SetFaultInjector(ci)
	tc := dialTest(t, srv.Addr().String())
	bc := dialBin(t, srv.Addr().String())
	tenant, key := []byte("t"), []byte("k")
	expectBMGet := func() {
		if _, err := bc.conn.Write(bmFrame(9, "t", "a", "b", "c")); err != nil {
			t.Fatal(err)
		}
		if r := bc.resp(); r.status != binStOK || len(parseBMGet(t, r.payload)) != 3 {
			t.Fatalf("BMGET: status %d payload %q", r.status, r.payload)
		}
	}
	inProcess := func(ok bool, err error) {
		if !ok || err != nil {
			t.Fatalf("in-process op: ok %v err %v", ok, err)
		}
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"text GET", func() { tc.expect("GET t k", "MISS") }},
		{"text PUT", func() {
			tc.sendRaw("PUT t k 1\r\nv\r\n")
			if got := tc.line(); got != "STORED" {
				t.Fatalf("PUT: %q", got)
			}
		}},
		{"text TOUCH", func() { tc.expect("TOUCH t k 1000", "TOUCHED") }},
		{"text DEL", func() { tc.expect("DEL t k", "DELETED") }},
		{"text MGET", func() {
			tc.send("MGET t 3 a b c")
			if got := tc.linesUntilEND(); len(got) != 3 {
				t.Fatalf("MGET: %q", got)
			}
		}},
		{"binary GET", func() { bc.expect(binOpGet, 0, 1, 0, "t", "k", "", binStMiss, "") }},
		{"binary PUT", func() { bc.expect(binOpPut, 0, 2, 0, "t", "k", "v", binStOK, "") }},
		{"binary TOUCH", func() { bc.expect(binOpTouch, 0, 3, 1000, "t", "k", "", binStOK, "") }},
		{"binary DEL", func() { bc.expect(binOpDel, 0, 4, 0, "t", "k", "", binStOK, "") }},
		{"binary BMGET", expectBMGet},
		{"in-process GET", func() { _, hit, err := svc.GetB(tenant, key); inProcess(!hit, err) }},
		{"in-process PUT", func() { inProcess(true, svc.PutBTTL(tenant, key, []byte("v"), 0)) }},
		{"in-process TOUCH", func() { inProcess(svc.TouchB(tenant, key, time.Second)) }},
		{"in-process DEL", func() { inProcess(svc.DeleteB(tenant, key)) }},
	} {
		before := ci.n.Load()
		c.run()
		if got := ci.n.Load() - before; got != 1 {
			t.Errorf("%s: %d Fault calls, want 1", c.name, got)
		}
	}
	// An unknown tenant is answered before the draw, on every codec.
	before := ci.n.Load()
	tc.expect("GET ghost k", `ERR service: unknown tenant "ghost"`)
	bc.expect(binOpGet, 0, 5, 0, "ghost", "k", "", binStErr, "unknown tenant")
	if _, _, err := svc.Get("ghost", "k"); err == nil {
		t.Fatal("in-process GET for an unknown tenant succeeded")
	}
	if got := ci.n.Load() - before; got != 0 {
		t.Errorf("unknown tenant: %d Fault calls, want 0", got)
	}
}

// TestMGetFaultsPerBatch: a batch read is one OpMGet request. An error
// fault on OpMGet refuses the whole batch before any key answers — one ERR
// line on text, a frame-level ERR on binary — and a fault on OpGet does not
// reach a batch's keys.
func TestMGetFaultsPerBatch(t *testing.T) {
	svc, srv := newTestServer(t)
	if _, err := svc.AddTenant("t"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Put("t", "a", []byte("va")); err != nil {
		t.Fatal(err)
	}
	tc := dialTest(t, srv.Addr().String())
	bc := dialBin(t, srv.Addr().String())
	errOn := func(op Op) {
		svc.SetFaultInjector(injectorFunc(func(o Op, _ string) Fault { return Fault{Err: o == op} }))
	}

	errOn(OpMGet)
	tc.expect("MGET t 2 a b", "ERR FAULT injected")
	tc.expect("PING", "PONG") // nothing of the batch follows the ERR line
	bc.conn.Write(bmFrame(1, "t", "a", "b"))
	if r := bc.resp(); r.status != binStErr || string(r.payload) != "FAULT injected" {
		t.Fatalf("BMGET under an OpMGet fault: status %d payload %q", r.status, r.payload)
	}
	tc.expect("GET t a", "VALUE 2") // single-key reads are not OpMGet
	if got := tc.line(); got != "va" {
		t.Fatalf("GET body: %q", got)
	}
	if got := svc.Stats().MGets; got != 0 {
		t.Fatalf("MGets = %d after a refused MGET, want 0", got)
	}

	errOn(OpGet)
	tc.send("MGET t 2 a b")
	tc.readValue("va")
	if got := tc.linesUntilEND(); len(got) != 1 || got[0] != "MISS" {
		t.Fatalf("MGET under an OpGet fault: %q after the hit", got)
	}
	bc.conn.Write(bmFrame(2, "t", "a", "b"))
	r := bc.resp()
	if r.status != binStOK {
		t.Fatalf("BMGET under an OpGet fault: status %d payload %q", r.status, r.payload)
	}
	if got := parseBMGet(t, r.payload); got[0] != (bmEntry{binStOK, "va"}) || got[1] != (bmEntry{binStMiss, ""}) {
		t.Fatalf("BMGET under an OpGet fault: %+v", got)
	}
	tc.expect("GET t a", "ERR FAULT injected")
	if got := svc.Stats().MGets; got != 1 {
		t.Fatalf("MGets = %d, want 1", got)
	}
}
