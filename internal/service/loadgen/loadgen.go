// Package loadgen replays internal/workload application models as
// concurrent tenants against a vantaged server, over the real TCP protocol,
// so Vantage's isolation and the service's throughput are measurable
// end-to-end.
//
// Each tenant runs one or more connections; each connection owns a
// deterministic workload.App and drives the cache-aside pattern: GET the
// app's next line address as a key, and on a MISS, PUT the value (the
// "fetch from origin and fill" step). Per-tenant hit rates therefore mirror
// the cache hit rates the simulator would measure for the same app — which
// is what makes the isolation experiment (cache-friendly tenant vs.
// thrashing co-runner) meaningful on live traffic.
//
// There is one client. A "connection" of the results is a worker driving a
// ring of conns (conn.go), one per node, each one TCP connection in one
// codec: text, binary, or binary with BMGET. A solo run (Options.Addr) is a
// ring of one member; a cluster run (Options.ClusterAddrs) routes each key
// to its owner with the ring the nodes use, as a smart client would. Every
// batch, of 1 key or of Batch, takes one path: split by owner, every share
// sent before any answer is read, each answer read as a binwire status.
package loadgen

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/cluster"
	"vantage/internal/workload"
)

// Overload signals a chaos-mode run classifies instead of failing on.
// They mirror the server's degrade-don't-collapse responses (see
// internal/service/protocol.go "Overload behavior").
var (
	// ErrBusy: the server fast-rejected the connection at its -max-conns cap.
	ErrBusy = errors.New("loadgen: connection rejected (BUSY)")
	// ErrShed: a data command was refused by an in-flight limit.
	ErrShed = errors.New("loadgen: request shed")
	// ErrInjected: the server's fault injector failed the command.
	ErrInjected = errors.New("loadgen: injected fault")
)

// CategoryApp builds one Table 3 category's address-stream model scaled to
// a cache of cacheLines lines. Unlike workload.NewApp (whose burst
// parameter models word accesses within a line that a private L1 would
// absorb), these run with burst 1 and no instruction gaps: cache clients
// have no L1, so every generated reference reaches the service.
func CategoryApp(cat workload.Category, cacheLines int, seed uint64) workload.App {
	L := cacheLines
	if L < 64 {
		L = 64
	}
	switch cat {
	case workload.Insensitive:
		return workload.NewZipfApp(cat, L/32, 0.8, 0, 1, seed)
	case workload.Friendly:
		return workload.NewZipfApp(cat, 2*L, 0.5, 0, 1, seed)
	case workload.Fitting:
		return workload.NewScanApp(cat, L*8/10, 0, 1, seed)
	case workload.Thrashing:
		return workload.NewStreamApp(64*L, 0, 1, seed)
	}
	panic("loadgen: unknown category")
}

// Tenant describes one load-generating tenant.
type Tenant struct {
	// Name is the tenant name (registered with TENANT ADD; idempotent).
	Name string
	// MakeApp builds the address-stream model for connection conn
	// (0-based). Connections need distinct App instances: models are not
	// safe for concurrent use.
	MakeApp func(conn int) workload.App
	// Conns is the number of concurrent connections (default 1).
	Conns int

	// TTL > 0 makes every fill PUT of this tenant expire TTL after it is
	// stored (the steady TTL-churn workload). At zero, fills carry no
	// EXPIRE clause, so the server's default TTL, if any, applies.
	TTL time.Duration
}

// ttlMS returns this tenant's fill TTL in milliseconds, or -1 when its
// fills carry none; binwire.TTL caps it for both codecs.
func (spec Tenant) ttlMS() int64 {
	if spec.TTL <= 0 {
		return -1
	}
	return max(spec.TTL.Milliseconds(), 1) // sub-millisecond TTLs still get a valid one
}

// Options configures a load-generation run.
type Options struct {
	// Addr is the vantaged TCP address, e.g. "127.0.0.1:7171".
	Addr string
	// Tenants are the concurrent tenants to replay.
	Tenants []Tenant
	// OpsPerConn is the number of GET(+fill) operations per connection.
	OpsPerConn int
	// ValueSize is the PUT value size in bytes (default 64).
	ValueSize int
	// Batch is the number of keys per MGET command (default 1: plain GETs,
	// one synchronous round trip per operation). With Batch > 1 each round
	// trip carries one MGET of Batch keys, and the fills for that batch's
	// misses are pipelined PUTs sharing a single flush — the protocol's
	// deferred-flush dispatcher answers them in one write.
	Batch int
	// Chaos makes the run overload-tolerant: BUSY connection rejects, shed
	// replies, injected faults, and dropped connections are counted in the
	// per-tenant results and the run continues (reconnecting as needed)
	// instead of aborting on the first error. BUSY dials are retried a few
	// times with backoff; a connection that is still rejected gives up its
	// budget rather than hammering an overloaded server.
	Chaos bool
	// Binary speaks the length-prefixed binary protocol instead of the text
	// one: each connection negotiates with the 4-byte preamble, then every
	// operation is one frame. Batch > 1 pipelines Batch GET frames per flush
	// (the binary analogue of MGET) and the fill PUTs share one flush the
	// same way. Overload semantics are identical: BUSY at dial time surfaces
	// as ErrBusy (the reject line is not a valid preamble ack), shed frames
	// as ErrShed, injected faults as ErrInjected.
	Binary bool
	// BMGet batches reads as one BMGET multi-key frame per batch instead of
	// Batch pipelined GET frames — one request frame and one coalesced
	// response frame per batch. Implies Binary. Per-key shed statuses
	// surface as ErrShed exactly like a shed GET frame in the batch.
	BMGet bool

	// ClusterAddrs switches the run to cluster mode: every "connection"
	// becomes a ring-aware client that routes each key to its owner among
	// these node addresses (Addr is then ignored).
	ClusterAddrs []string
	// VNodes is the ring's virtual-node count (0 = cluster.DefaultVNodes).
	// It must match the nodes' own -vnodes setting or routing diverges.
	VNodes int

	// ChurnTenants > 0 runs a registry churner alongside the workload: a
	// rotating TENANT ADD/DEL cycle over this many synthetic tenants, one
	// op per ChurnInterval, spread round-robin across the nodes so
	// replication is driven from every origin.
	ChurnTenants int
	// ChurnInterval is the delay between churn ops (default 10ms).
	ChurnInterval time.Duration

	// ring is the routing ring, built once by Run: ClusterAddrs, or Addr
	// alone.
	ring *cluster.Ring
}

func (o *Options) codec() codec {
	switch {
	case o.BMGet:
		return codecBMGet
	case o.Binary:
		return codecBinary
	}
	return codecText
}

// TenantResult is one tenant's aggregate outcome.
type TenantResult struct {
	Name               string
	Gets, Hits, Misses uint64
	Puts               uint64
	Errors             uint64

	// Chaos-mode overload accounting (zero outside chaos runs).
	Rejected uint64 // connections refused with BUSY (one per rejected dial)
	Shed     uint64 // commands refused by in-flight limits ("ERR SHED")
	Injected uint64 // commands failed by the fault injector ("ERR FAULT")
	Dropped  uint64 // connection losses: drop faults or server deadline closes
}

// HitRate returns hits/gets in [0,1].
func (t TenantResult) HitRate() float64 {
	if t.Gets == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Gets)
}

// Result is the outcome of a run.
type Result struct {
	Tenants []TenantResult
	// Ops is the total operation count (gets + puts) across tenants.
	Ops       uint64
	Elapsed   time.Duration
	OpsPerSec float64

	// Totals of the chaos-mode counters across tenants.
	Rejected, Shed, Injected, Dropped uint64

	// ChurnOps is the number of acknowledged registry churn operations
	// (zero unless Options.ChurnTenants was set).
	ChurnOps uint64
}

// Run executes the configured load against the server and blocks until
// every connection finishes its budget.
func Run(o Options) (Result, error) {
	if o.Addr == "" && len(o.ClusterAddrs) == 0 {
		return Result{}, fmt.Errorf("loadgen: no server address")
	}
	addrs := o.ClusterAddrs
	if len(addrs) == 0 {
		addrs = []string{o.Addr}
	}
	ring, err := cluster.NewRing(addrs, o.VNodes)
	if err != nil {
		return Result{}, err
	}
	o.ring = ring
	if o.OpsPerConn <= 0 {
		o.OpsPerConn = 10000
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 64
	}
	if o.ChurnInterval <= 0 {
		o.ChurnInterval = 10 * time.Millisecond
	}
	stop, churned := make(chan struct{}), make(chan uint64, 1)
	if o.ChurnTenants > 0 {
		go func() { churned <- churn(addrs, o.ChurnTenants, o.ChurnInterval, stop) }()
	} else {
		churned <- 0
	}
	counters := make([]TenantResult, len(o.Tenants))
	var wg sync.WaitGroup
	var firstErr atomic.Value
	start := time.Now()
	for ti, t := range o.Tenants {
		counters[ti].Name = t.Name
		for ci := range max(t.Conns, 1) {
			wg.Add(1)
			go func(tr *TenantResult, conn int) {
				defer wg.Done()
				if err := runConn(&o, tr, t, conn); err != nil {
					atomic.AddUint64(&tr.Errors, 1)
					firstErr.CompareAndSwap(nil, err)
				}
			}(&counters[ti], ci)
		}
	}
	wg.Wait()
	res := Result{Tenants: counters, Elapsed: time.Since(start)}
	close(stop)
	res.ChurnOps = <-churned
	for i := range counters {
		res.Ops += counters[i].Gets + counters[i].Puts
		res.Rejected += counters[i].Rejected
		res.Shed += counters[i].Shed
		res.Injected += counters[i].Injected
		res.Dropped += counters[i].Dropped
	}
	if res.Elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / res.Elapsed.Seconds()
	}
	if err, ok := firstErr.Load().(error); ok {
		return res, err
	}
	return res, nil
}

// busyRetries is how many times a chaos-mode dial retries a BUSY reject
// (with backoff) before the connection gives up its budget.
const busyRetries = 3

// worker drives one connection's operation budget over a ring of conns,
// one per member in member order: a solo run's ring has one member. A
// batch splits by key owner, and a chaos run redials the whole ring after
// a lost connection.
type worker struct {
	o     *Options
	tr    *TenantResult
	spec  Tenant
	conns []*conn
	val   []byte
	flags uint8  // the fills' TTL flag
	ttl   uint32 // and ttl_ms, from binwire.TTL

	subs   [][]string // each member's share of the batch in flight
	missed []string   // the read batch's missed keys, to fill
}

// runConn drives one connection's operation budget.
func runConn(o *Options, tr *TenantResult, spec Tenant, conn int) error {
	wk := &worker{o: o, tr: tr, spec: spec, subs: make([][]string, len(o.ring.Members()))}
	wk.flags, wk.ttl = binwire.TTL(spec.ttlMS())
	if err := wk.connect(); err != nil {
		if o.Chaos && errors.Is(err, ErrBusy) {
			return nil // rejected conns yield; the Rejected counter has the story
		}
		return err
	}
	defer wk.close() // the current conns, which a redial may have replaced
	wk.val = make([]byte, o.ValueSize)
	for i := range wk.val {
		wk.val[i] = byte('a' + i%26)
	}
	return wk.run(spec.MakeApp(conn))
}

// run spends the budget in batches of o.Batch keys, each one read and then
// one fill of its misses. A batch of 1 reads with GET, a larger one with
// MGET (or BMGET, or pipelined GET frames).
func (wk *worker) run(app workload.App) error {
	batch, read := max(wk.o.Batch, 1), uint8(binwire.OpGet)
	if batch > 1 {
		read = binwire.OpBMGet
	}
	keys := make([]string, 0, batch)
	for done := 0; done < wk.o.OpsPerConn; done += len(keys) {
		keys = keys[:0]
		for range min(batch, wk.o.OpsPerConn-done) {
			_, addr := app.Next()
			keys = append(keys, strconv.FormatUint(addr, 16))
		}
		// A batch spends its budget even when it fails, and a failed read
		// fills nothing.
		wk.missed = wk.missed[:0]
		err := wk.do(read, keys)
		if err == nil && len(wk.missed) > 0 {
			err = wk.do(binwire.OpPut, wk.missed)
		}
		if err != nil {
			if stop, err := wk.fail(err); stop {
				return err
			}
		}
	}
	return nil
}

// do sends keys to their owners, every owner's share before any answer is
// read, so the nodes work concurrently and the batch costs one round trip;
// then it reads and tallies the answers in member order, all of them even
// after an error, since every share sent has answers in flight. A failed
// send stops further sends. The first error returns.
func (wk *worker) do(op uint8, keys []string) error {
	for m := range wk.subs {
		wk.subs[m] = wk.subs[m][:0]
	}
	members := wk.o.ring.Members()
	for _, k := range keys {
		m := 0
		if len(members) > 1 {
			m = sort.SearchStrings(members, wk.o.ring.Owner(wk.spec.Name, k))
		}
		wk.subs[m] = append(wk.subs[m], k)
	}
	val, flags, ttl := []byte(nil), uint8(0), uint32(0)
	if op == binwire.OpPut {
		val, flags, ttl = wk.val, wk.flags, wk.ttl
	}
	var err error
	sent := 0
	for ; sent < len(wk.conns) && err == nil; sent++ {
		if len(wk.subs[sent]) > 0 {
			err = wk.conns[sent].send(op, wk.spec.Name, wk.subs[sent], val, flags, ttl)
		}
	}
	if err != nil {
		sent-- // the failed send has no answers in flight
	}
	for m, sub := range wk.subs[:sent] {
		if len(sub) == 0 {
			continue
		}
		ans, rerr := wk.conns[m].recv(op, len(sub))
		if terr := wk.tally(op, sub, ans); err == nil {
			err = cmp.Or(rerr, terr)
		}
	}
	return err
}

// tally counts one share's answers: a read's hits and misses, queueing the
// missed keys for the fill, and a fill's stores. It returns the first
// refusal, which ends a read batch (the worker counts it once), while each
// refused fill that refuse counts lets the batch go on. A pending answer,
// one the connection lost, counts nothing.
func (wk *worker) tally(op uint8, keys []string, ans []answer) error {
	var ok, miss uint64
	var first error
	for i, a := range ans {
		switch {
		case a.st == pending:
		case a.st == binwire.StOK:
			ok++
		case a.st == binwire.StMiss && op != binwire.OpPut:
			miss++
			wk.missed = append(wk.missed, keys[i])
		default:
			if err := a.err(op); (op != binwire.OpPut || !wk.refuse(err)) && first == nil {
				first = err
			}
		}
	}
	if op == binwire.OpPut {
		atomic.AddUint64(&wk.tr.Puts, ok)
	} else {
		atomic.AddUint64(&wk.tr.Gets, ok+miss)
		atomic.AddUint64(&wk.tr.Hits, ok)
		atomic.AddUint64(&wk.tr.Misses, miss)
	}
	return first
}

// err is a refused answer's error: ErrShed, ErrInjected for the fault
// injector's ERR (its message starts "FAULT" on either codec), or the ERR.
func (a answer) err(op uint8) error {
	switch {
	case a.st == binwire.StShed:
		return ErrShed
	case strings.HasPrefix(a.msg, "FAULT"):
		return ErrInjected
	case op == binwire.OpPut:
		return fmt.Errorf("loadgen: PUT: %s", a.msg)
	}
	return fmt.Errorf("loadgen: GET: %s", a.msg)
}

// refuse counts a shed or injected refusal of a chaos run, the one place
// they are counted, and reports whether it did: the run goes on past one.
func (wk *worker) refuse(err error) bool {
	switch {
	case !wk.o.Chaos:
		return false
	case errors.Is(err, ErrShed):
		atomic.AddUint64(&wk.tr.Shed, 1)
	case errors.Is(err, ErrInjected):
		atomic.AddUint64(&wk.tr.Injected, 1)
	default:
		return false
	}
	return true
}

// fail handles a failed batch. Outside chaos mode it ends the worker with
// err; in chaos mode it counts a refusal, or a lost connection and then
// redials. It reports whether the worker stops, and why: a protocol
// failure, a failed redial, or nil when the redial was refused BUSY and
// the connection yields.
func (wk *worker) fail(err error) (stop bool, _ error) {
	switch {
	case wk.refuse(err):
		return false, nil
	case !wk.o.Chaos || !isConnErr(err):
		return true, err
	}
	atomic.AddUint64(&wk.tr.Dropped, 1)
	wk.close()
	if err := wk.connect(); err != nil {
		if errors.Is(err, ErrBusy) {
			return true, nil
		}
		return true, err
	}
	return false, nil
}

// connect dials every ring member, eagerly so that BUSY rejects surface
// here, with the run's overload policy: in chaos mode a BUSY reject is
// counted and retried with backoff, and exhausting the retries returns
// ErrBusy, which callers treat as "this connection yields" rather than a
// run failure.
func (wk *worker) connect() error {
	for attempt := 0; ; attempt++ {
		err := wk.dialRing()
		if err == nil || !wk.o.Chaos || !errors.Is(err, ErrBusy) {
			return err
		}
		atomic.AddUint64(&wk.tr.Rejected, 1)
		if attempt >= busyRetries {
			return ErrBusy
		}
		time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
	}
}

func (wk *worker) dialRing() error {
	for _, addr := range wk.o.ring.Members() {
		c, err := dial(addr, wk.o.codec(), wk.spec.Name)
		if err != nil {
			wk.close()
			return err
		}
		wk.conns = append(wk.conns, c)
	}
	return nil
}

func (wk *worker) close() {
	for _, c := range wk.conns {
		c.close()
	}
	wk.conns = wk.conns[:0]
}

// isConnErr reports whether err is a transport-level loss (EOF, reset,
// timeout) rather than a protocol reply.
func isConnErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
