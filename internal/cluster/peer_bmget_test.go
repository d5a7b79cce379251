// Direct Peer.BMGet coverage (the proxy exercises the same frames, but
// through its own pool, not the Peer client), plus the PUTs the proxy
// relays as TEXT frames: malformed and un-poolable PUTs must travel with
// their value block consumed so the client stream never desyncs, and a
// length over the value cap ends the session with the node's own ERR.
package cluster_test

import (
	"io"
	"strings"
	"testing"

	"vantage/internal/cluster"
)

func TestPeerBMGet(t *testing.T) {
	addrs := reservePorts(t, 1)
	pn := &poolNode{addr: addrs[0]}
	pn.start(t, addrs)
	t.Cleanup(pn.stop)
	if _, err := pn.svc.AddTenant("t"); err != nil {
		t.Fatal(err)
	}
	if err := pn.svc.Put("t", "a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := pn.svc.Put("t", "b", []byte("beta")); err != nil {
		t.Fatal(err)
	}

	peer := cluster.NewPeer(addrs[0])
	t.Cleanup(peer.Close)

	// Empty batch short-circuits without touching the wire.
	if entries, err := peer.BMGet("t", nil); err != nil || entries != nil {
		t.Fatalf("empty batch: %v, %v", entries, err)
	}

	entries, err := peer.BMGet("t", []string{"a", "nosuch", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	if !entries[0].Hit || string(entries[0].Val) != "alpha" {
		t.Fatalf("entry 0: %+v", entries[0])
	}
	if entries[1].Hit || entries[1].Shed {
		t.Fatalf("entry 1 should be a miss: %+v", entries[1])
	}
	if !entries[2].Hit || string(entries[2].Val) != "beta" {
		t.Fatalf("entry 2: %+v", entries[2])
	}

	// A frame-level ERR (unknown tenant) fails the whole call...
	if _, err := peer.BMGet("ghost", []string{"a"}); err == nil ||
		!strings.Contains(err.Error(), "rejected bmget") {
		t.Fatalf("unknown tenant: %v", err)
	}
	// ...without poisoning the connection for the next batch.
	entries, err = peer.BMGet("t", []string{"b"})
	if err != nil || len(entries) != 1 || !entries[0].Hit {
		t.Fatalf("after rejected batch: %v, %v", entries, err)
	}
}

func TestProxyTextPutFallback(t *testing.T) {
	_, p := bootPoolCluster(t, cluster.ProxyConfig{})
	tc := dialScale(t, p.Addr().String())
	if resp := tc.roundTrip("TENANT ADD fb"); !strings.HasPrefix(resp, "OK") {
		t.Fatalf("TENANT ADD: %q", resp)
	}

	// Too few fields and an unparseable length declare no value block and
	// get the node's ERR.
	if resp := tc.roundTrip("PUT fb"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("short PUT: %q", resp)
	}
	if resp := tc.roundTrip("PUT fb k notanumber"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("bad length PUT: %q", resp)
	}

	// An oversized key is refused, but only after the value block is
	// consumed, or the next command would be parsed out of the stale bytes.
	long := strings.Repeat("k", 251)
	tc.w.WriteString("PUT fb " + long + " 3\r\nabc\r\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := tc.r.ReadString('\n')
	if err != nil || !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("long key PUT: %q, %v", resp, err)
	}
	if resp := tc.roundTrip("PING"); resp != "PONG" {
		t.Fatalf("stream desynced after long-key PUT: %q", resp)
	}

	// Same path with a bare-LF value terminator, which the proxy must
	// tolerate the way the nodes do.
	tc.w.WriteString("PUT fb " + long + " 3\r\nxyz\n")
	if err := tc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err = tc.r.ReadString('\n')
	if err != nil || !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("bare-LF PUT: %q, %v", resp, err)
	}
	if resp := tc.roundTrip("PING"); resp != "PONG" {
		t.Fatalf("stream desynced after bare-LF PUT: %q", resp)
	}

	// A length over the value cap is refused as a node refuses it, with the
	// node's message, before any of the block is read, and the session ends
	// as a node's connection would: the block cannot be skipped unread.
	for _, n := range []int{1<<20 + 1, 64<<20 + 1} {
		tc2 := dialScale(t, p.Addr().String())
		want := "ERR value length " + itoa(n) + " exceeds maximum 1048576"
		if resp := tc2.roundTrip("PUT fb k " + itoa(n)); resp != want {
			t.Fatalf("over-cap PUT: %q, want %q", resp, want)
		}
		if _, err := tc2.r.ReadString('\n'); err != io.EOF {
			t.Fatalf("session should close after an over-cap PUT, got %v", err)
		}
	}
}
