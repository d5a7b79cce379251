package loadgen

import (
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/cluster"
)

// Cluster-mode load generation: when Options.ClusterAddrs is set, every
// connection becomes a ring-aware client — it owns one real connection per
// node and routes each key to its owner with the same consistent-hash ring
// the nodes use, the way a production smart client would. The workload
// loops, chaos accounting and redial logic in loadgen.go are untouched:
// the ring client implements the same proto interface as a single
// connection, so a "connection" in the results means one ring client
// (whose member connections live and die together).

// dialRing eagerly dials one protocol connection to every member. Eager,
// not lazy, so BUSY rejects surface at dial time where dialChaos's retry
// and yield policy applies, exactly as in solo mode.
func dialRing(o Options, tenant string) (proto, error) {
	ring := o.ring
	rp := &ringProto{ring: ring, conns: make(map[string]batchProto, len(ring.Members()))}
	for _, addr := range ring.Members() {
		so := o
		so.Addr = addr
		c, err := dialProtoSolo(so, tenant)
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.conns[addr] = c
	}
	return rp, nil
}

type ringProto struct {
	ring  *cluster.Ring
	conns map[string]batchProto
}

func (rp *ringProto) close() {
	for _, c := range rp.conns {
		c.close()
	}
}

func (rp *ringProto) get(tenant, key string) (bool, error) {
	return rp.conns[rp.ring.Owner(tenant, key)].get(tenant, key)
}

func (rp *ringProto) put(tenant, key string, val []byte, ttlMS int) error {
	return solo{rp.conns[rp.ring.Owner(tenant, key)]}.put(tenant, key, val, ttlMS)
}

// scatter splits a batch by owner and pipelines it: every owner's
// sub-batch is sent (and flushed) before any response is read, so the
// nodes execute concurrently and the whole batch costs one round-trip of
// latency instead of one per owner. Responses are then received in member
// order — all of them, even after an error, because every sent sub-batch
// has responses in flight and skipping one would desync that connection.
// The first error surfaces; a failed send stops further sends.
func (rp *ringProto) scatter(tenant string, keys []string,
	send func(c batchProto, sub []string) (uint32, error),
	recv func(c batchProto, sub []string, tok uint32) error) error {
	byOwner := make(map[string][]string)
	for _, k := range keys {
		owner := rp.ring.Owner(tenant, k)
		byOwner[owner] = append(byOwner[owner], k)
	}
	type pend struct {
		c   batchProto
		sub []string
		tok uint32
	}
	var pends []pend
	var firstErr error
	for _, addr := range rp.ring.Members() {
		if sub := byOwner[addr]; len(sub) > 0 {
			tok, err := send(rp.conns[addr], sub)
			if err != nil {
				firstErr = err
				break // transport loss; drain what was already sent
			}
			pends = append(pends, pend{rp.conns[addr], sub, tok})
		}
	}
	for _, p := range pends {
		if err := recv(p.c, p.sub, p.tok); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// mget scatters the batch; hits, seen and missBuf accumulate across
// sub-batches, matching the sequential semantics.
func (rp *ringProto) mget(tenant string, keys []string, missBuf []string) (hits, seen int, _ []string, _ error) {
	err := rp.scatter(tenant, keys, func(c batchProto, sub []string) (uint32, error) {
		return c.mgetSend(tenant, sub)
	}, func(c batchProto, sub []string, tok uint32) error {
		h, s, mb, err := c.mgetRecv(tok, tenant, sub, missBuf)
		hits, seen, missBuf = hits+h, seen+s, mb
		return err
	})
	return hits, seen, missBuf, err
}

// putPipelined scatters the fill batch like mget.
func (rp *ringProto) putPipelined(tenant string, keys []string, val []byte, ttlMS int, chaos bool, tr *TenantResult) (stored uint64, _ error) {
	err := rp.scatter(tenant, keys, func(c batchProto, sub []string) (uint32, error) {
		return c.putSend(tenant, sub, val, ttlMS)
	}, func(c batchProto, sub []string, tok uint32) error {
		st, err := c.putRecv(tok, len(sub), chaos, tr)
		stored += st
		return err
	})
	return stored, err
}

// churner drives tenant-registry churn alongside a run: a rotating
// add/remove cycle over ChurnTenants synthetic tenants, each op issued to
// a different node round-robin so replication is exercised in every
// direction. Errors are tolerated (the run may be overloading the nodes on
// purpose); the op only counts when the node acknowledged it.
type churner struct {
	addrs    []string
	interval time.Duration
	tenants  int

	ops  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startChurner(addrs []string, tenants int, interval time.Duration) *churner {
	ch := &churner{addrs: addrs, interval: interval, tenants: tenants, stop: make(chan struct{})}
	ch.wg.Add(1)
	go ch.loop()
	return ch
}

func (ch *churner) halt() uint64 {
	close(ch.stop)
	ch.wg.Wait()
	return ch.ops.Load()
}

func (ch *churner) loop() {
	defer ch.wg.Done()
	conns := make(map[string]*client)
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	ticker := time.NewTicker(ch.interval)
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-ch.stop:
			return
		case <-ticker.C:
		}
		addr := ch.addrs[i%len(ch.addrs)]
		var line string
		// Two adds per remove keeps churned tenants mostly present, so
		// replication races surface as registry divergence, not absence.
		// The remove targets the tenant added two ticks earlier — the
		// ADD-tick indices and DEL-tick indices otherwise never coincide
		// whenever tenants is a multiple of 3, and the removal replication
		// path would go unexercised.
		if i%3 == 2 {
			line = "TENANT DEL churn-" + strconv.Itoa((i-2)%ch.tenants)
		} else {
			line = "TENANT ADD churn-" + strconv.Itoa(i%ch.tenants)
		}
		c := conns[addr]
		if c == nil {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				continue
			}
			c = newRawClient(conn)
			conns[addr] = c
		}
		resp, err := c.roundTrip(line)
		if err != nil {
			c.close()
			delete(conns, addr)
			continue
		}
		// "OK ..." acknowledges; "ERR unknown tenant" on a DEL that raced
		// another DEL is benign and still exercised the registry path.
		if len(resp) >= 2 && resp[:2] == "OK" {
			ch.ops.Add(1)
		}
	}
}
