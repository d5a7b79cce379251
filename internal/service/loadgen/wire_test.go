package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vantage/internal/clock"
	"vantage/internal/service"
	"vantage/internal/workload"
)

// teeConn hashes every byte the client writes.
type teeConn struct {
	net.Conn
	h hash.Hash
}

func (c teeConn) Write(b []byte) (int, error) {
	c.h.Write(b)
	return c.Conn.Write(b)
}

// wireGolden holds, per run, the SHA-256 of each connection's
// client-to-server byte stream in ring member order. They were recorded
// from the load generator before its clients became one connection type,
// so they pin the bytes each codec writes.
var wireGolden = map[string]string{
	"solo/text/batch1/ttl0s":        "b28e4005562f1885679acd28a92544da150ab0d9009a7c7e989383e4cb7d68ac",
	"solo/text/batch1/ttl1h0m0s":    "18624c4b437f616349ec5f0a1177c8f3a954fa3cb6bf07295b19ce813239996a",
	"solo/text/batch32/ttl0s":       "c76b980cea46870c57752511c902f064f2e6c0ea728cc3d5510acc828294cf0b",
	"solo/text/batch32/ttl1h0m0s":   "923d16541f9658ae76ed942867bc82b4426449575b373a25caf4ca9710cbbfd4",
	"solo/binary/batch1/ttl0s":      "b9a4500f9e1d25767209afa48084a9e7aa3822028b584794aa21dd00a7b042dd",
	"solo/binary/batch1/ttl1h0m0s":  "799e4af968b98512e0bb82623c311a364dbc8ea315c0a98f49e7b7d5ad56e6cc",
	"solo/binary/batch32/ttl0s":     "9f46f3110afa8093ee0e4e870883ae472e05770edf2b502e64fe3ea9b5553320",
	"solo/binary/batch32/ttl1h0m0s": "1c056b3158a728867548038afa8b7378c5a17c0145cdeb1a00d1fef9a9114f10",
	"solo/bmget/batch1/ttl0s":       "b9a4500f9e1d25767209afa48084a9e7aa3822028b584794aa21dd00a7b042dd",
	"solo/bmget/batch1/ttl1h0m0s":   "799e4af968b98512e0bb82623c311a364dbc8ea315c0a98f49e7b7d5ad56e6cc",
	"solo/bmget/batch32/ttl0s":      "7cfb7a3acb74bb62bcaab2863e62870b431e01035a35110e83e3fb1359366a71",
	"solo/bmget/batch32/ttl1h0m0s":  "f973d369f9e3cdf185229cf33ff25e89f93815b5ffcbda98d194ba5b1b416c21",
	"ring/text/batch32":             "24e21bda5c315366a1be0c84b1b2319efafd25af0aa97c30f680ce548afb60ef 9fe8e47788faebc2a22058f1d8165066c4d2c166f1a6b64108d3a8296fc7c287 433539cc677c522a912c900abea68ec176a56100036d7d47554171c3a1d7f6d2",
	"ring/binary/batch32":           "5886c7008851007e39ecf8c1e34733bbdaf126c5a0e77f1739b957dfb415436d 0241fbc74e8d4ce6e67ea8511695a076dbaff607d5bd9d4302247243d49f5f20 3aa80eaebbb3971fb6c452154a632ce2e937af6d32e76c08a0c6e7ffae22361b",
	"ring/bmget/batch32":            "5e9debe4f24ac5b98078c25cb151e495d56b57af15db4059555e0c51388e1fd8 f740e382da03ee8c8361f5e840ff675c0fc0717acb175580a8e5e88b7daa473b 04c41a42409a1e1a6e0c2e1eb8c4ec34ba89404158bc78dbd6d974ce20fb362e",
}

// TestWireBytes runs solo over every codec, batch size and TTL setting,
// and a 3-node ring over every codec at batch 32, and requires each
// connection to write exactly the recorded bytes. The nodes run on a fake
// clock, so no repartition or expiry moves the hit pattern that decides
// which fills are written.
func TestWireBytes(t *testing.T) {
	type run struct {
		name  string
		o     Options
		ttl   time.Duration
		addrs []string
	}
	var runs []run
	codecs := []struct {
		name       string
		bin, bmget bool
	}{{"text", false, false}, {"binary", true, false}, {"bmget", true, true}}
	for _, c := range codecs {
		for _, batch := range []int{1, 32} {
			for _, ttl := range []time.Duration{0, time.Hour} {
				runs = append(runs, run{fmt.Sprintf("solo/%s/batch%d/ttl%v", c.name, batch, ttl),
					Options{Addr: "solo:7171", Batch: batch, Binary: c.bin, BMGet: c.bmget}, ttl, []string{"solo:7171"}})
			}
		}
	}
	ring := []string{"node-a:7171", "node-b:7171", "node-c:7171"}
	for _, c := range codecs {
		runs = append(runs, run{"ring/" + c.name + "/batch32",
			Options{ClusterAddrs: ring, Batch: 32, Binary: c.bin, BMGet: c.bmget}, 0, ring})
	}
	defer func(d func(string, string) (net.Conn, error)) { dialTCP = d }(dialTCP)
	var got []string
	for _, r := range runs {
		clk := clock.NewFake(time.Unix(0, 0))
		real := map[string]string{}
		for _, a := range r.addrs {
			real[a] = newBenchServerAt(t, service.ServerConfig{}, clk)
		}
		var mu sync.Mutex
		streams := map[string][]hash.Hash{}
		dialTCP = func(network, addr string) (net.Conn, error) {
			c, err := net.Dial(network, real[addr])
			if err != nil {
				return nil, err
			}
			h := sha256.New()
			mu.Lock()
			streams[addr] = append(streams[addr], h)
			mu.Unlock()
			return teeConn{c, h}, nil
		}
		o := r.o
		o.Tenants = []Tenant{{Name: "t", TTL: r.ttl, MakeApp: func(int) workload.App {
			return CategoryApp(workload.Friendly, 2048, 7)
		}}}
		o.OpsPerConn, o.ValueSize = 400, 32
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if tr := res.Tenants[0]; tr.Gets != 400 || tr.Hits == 0 || tr.Puts == 0 {
			t.Fatalf("%s: degenerate run %+v", r.name, tr)
		}
		var sums []string
		for _, a := range r.addrs {
			if len(streams[a]) != 1 {
				t.Fatalf("%s: %d connections to %s, want 1", r.name, len(streams[a]), a)
			}
			sums = append(sums, hex.EncodeToString(streams[a][0].Sum(nil)))
		}
		sum := strings.Join(sums, " ")
		got = append(got, fmt.Sprintf("%q: %q,", r.name, sum))
		if want := wireGolden[r.name]; sum != want {
			t.Errorf("%s: connections wrote %s, want %s", r.name, sum, want)
		}
	}
	if t.Failed() {
		t.Logf("recorded:\n%s", strings.Join(got, "\n"))
	}
}
