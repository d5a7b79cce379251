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
package loadgen

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// ttlMS returns the EXPIRE argument in milliseconds for this tenant's
// fills, or -1 when they carry none.
func (spec Tenant) ttlMS() int {
	if spec.TTL <= 0 {
		return -1
	}
	if ms := spec.TTL.Milliseconds(); ms >= 1 {
		return int(ms)
	}
	return 1 // sub-millisecond TTLs still get a valid EXPIRE clause
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
	// these node addresses (Addr is then ignored). See cluster.go.
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

	// ring is the cluster-mode routing ring, built once by Run.
	ring *cluster.Ring
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
	if o.BMGet {
		o.Binary = true // BMGET is a binary opcode
	}
	if len(o.ClusterAddrs) > 0 {
		vn := o.VNodes
		if vn <= 0 {
			vn = cluster.DefaultVNodes
		}
		ring, err := cluster.NewRing(o.ClusterAddrs, vn)
		if err != nil {
			return Result{}, err
		}
		o.ring = ring
	}
	if o.OpsPerConn <= 0 {
		o.OpsPerConn = 10000
	}
	if o.ValueSize <= 0 {
		o.ValueSize = 64
	}
	var churn *churner
	if o.ChurnTenants > 0 {
		interval := o.ChurnInterval
		if interval <= 0 {
			interval = 10 * time.Millisecond
		}
		addrs := o.ClusterAddrs
		if len(addrs) == 0 {
			addrs = []string{o.Addr}
		}
		churn = startChurner(addrs, o.ChurnTenants, interval)
	}
	counters := make([]TenantResult, len(o.Tenants))
	var wg sync.WaitGroup
	var firstErr atomic.Value
	start := time.Now()
	for ti := range o.Tenants {
		t := o.Tenants[ti]
		conns := t.Conns
		if conns <= 0 {
			conns = 1
		}
		counters[ti].Name = t.Name
		for ci := 0; ci < conns; ci++ {
			wg.Add(1)
			go func(tr *TenantResult, spec Tenant, conn int) {
				defer wg.Done()
				if err := runConn(o, tr, spec, conn); err != nil {
					atomic.AddUint64(&tr.Errors, 1)
					firstErr.CompareAndSwap(nil, err)
				}
			}(&counters[ti], t, ci)
		}
	}
	wg.Wait()
	res := Result{Tenants: counters, Elapsed: time.Since(start)}
	if churn != nil {
		res.ChurnOps = churn.halt()
	}
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

// proto is the per-connection client surface runConn drives: one
// connection of either wire protocol (solo) or a ring client (cluster.go),
// so the workload loops, chaos accounting, and redial logic are shared
// verbatim across the two wire protocols and cluster mode.
type proto interface {
	get(tenant, key string) (bool, error)
	put(tenant, key string, val []byte, ttlMS int) error
	mget(tenant string, keys []string, missBuf []string) (hits, seen int, _ []string, _ error)
	putPipelined(tenant string, keys []string, val []byte, ttlMS int, chaos bool, tr *TenantResult) (stored uint64, _ error)
	close()
}

// batchProto is one connection of either wire protocol: the text client
// and the binary client (binclient.go). Its batch operations split into a
// send phase and a receive phase. The ring client uses the split to truly
// pipeline a scattered batch: it writes every owner's sub-batch before
// reading any response, so the nodes work concurrently and the batch costs
// one round-trip of latency instead of one per owner. The token returned by
// a send is handed back to the matching recv (the binary client's base
// request id; the text client has no use for it).
type batchProto interface {
	get(tenant, key string) (bool, error)
	close()
	mgetSend(tenant string, keys []string) (uint32, error)
	mgetRecv(tok uint32, tenant string, keys []string, missBuf []string) (hits, seen int, _ []string, _ error)
	putSend(tenant string, keys []string, val []byte, ttlMS int) (uint32, error)
	putRecv(tok uint32, n int, chaos bool, tr *TenantResult) (stored uint64, _ error)
}

// solo drives one connection as a proto: a batch is its send, then its
// receive. mget returns the hit count, the number of per-key responses
// actually received, and the missed keys appended to missBuf; a refused
// batch (shed, injected fault) surfaces as ErrShed or ErrInjected with seen
// < len(keys). putPipelined returns how many PUTs the server stored; in
// chaos mode shed and fault replies are folded into tr and the batch
// continues, otherwise the first one is returned once every reply is read.
type solo struct{ batchProto }

func (c solo) mget(tenant string, keys []string, missBuf []string) (hits, seen int, _ []string, _ error) {
	tok, err := c.mgetSend(tenant, keys)
	if err != nil {
		return 0, 0, missBuf, err
	}
	return c.mgetRecv(tok, tenant, keys, missBuf)
}

// put stores val under key as a batch of one; ttlMS >= 0 sets its TTL.
func (c solo) put(tenant, key string, val []byte, ttlMS int) error {
	_, err := c.putPipelined(tenant, []string{key}, val, ttlMS, false, nil)
	return err
}

func (c solo) putPipelined(tenant string, keys []string, val []byte, ttlMS int, chaos bool, tr *TenantResult) (stored uint64, _ error) {
	tok, err := c.putSend(tenant, keys, val, ttlMS)
	if err != nil {
		return 0, err
	}
	return c.putRecv(tok, len(keys), chaos, tr)
}

// dialProto connects with the run's selected wire protocol — a ring
// client in cluster mode, a single connection otherwise.
func dialProto(o Options, tenant string) (proto, error) {
	if o.ring != nil {
		return dialRing(o, tenant)
	}
	c, err := dialProtoSolo(o, tenant)
	if err != nil {
		return nil, err
	}
	return solo{c}, nil
}

// dialProtoSolo connects to o.Addr with the selected wire protocol.
func dialProtoSolo(o Options, tenant string) (batchProto, error) {
	if o.Binary {
		return dialBin(o.Addr, tenant, o.BMGet)
	}
	return dial(o.Addr, tenant)
}

// dialChaos dials with the run's overload policy. In chaos mode a BUSY
// reject is counted and retried with backoff; exhausting the retries
// returns ErrBusy, which callers treat as "this connection yields" rather
// than a run failure.
func dialChaos(o Options, tr *TenantResult, tenant string) (proto, error) {
	var err error
	for attempt := 0; ; attempt++ {
		var c proto
		c, err = dialProto(o, tenant)
		if err == nil {
			return c, nil
		}
		if !o.Chaos || !errors.Is(err, ErrBusy) {
			return nil, err
		}
		atomic.AddUint64(&tr.Rejected, 1)
		if attempt >= busyRetries {
			return nil, ErrBusy
		}
		time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
	}
}

// chaosOpErr folds one failed command into the chaos counters. It returns
// reconnect=true when the error means the connection is gone (a drop fault
// or a server deadline close) and the worker should redial, and fatal
// non-nil when the error is a real protocol failure that should end the run
// even in chaos mode.
func chaosOpErr(err error, tr *TenantResult) (reconnect bool, fatal error) {
	switch {
	case errors.Is(err, ErrShed):
		atomic.AddUint64(&tr.Shed, 1)
		return false, nil
	case errors.Is(err, ErrInjected):
		atomic.AddUint64(&tr.Injected, 1)
		return false, nil
	case isConnErr(err):
		atomic.AddUint64(&tr.Dropped, 1)
		return true, nil
	default:
		return false, err
	}
}

// isConnErr reports whether err is a transport-level loss (EOF, reset,
// timeout) rather than a protocol reply.
func isConnErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// worker drives one connection's operation budget. c is its current
// connection, which a chaos run replaces after a drop.
type worker struct {
	o    Options
	tr   *TenantResult
	spec Tenant
	c    proto
}

// fail handles a failed command. Outside chaos mode it ends the worker
// with err; in chaos mode it counts the failure and redials after a lost
// connection. It reports whether the worker stops, and why: a protocol
// failure, a failed redial, or nil when the redial was refused BUSY and
// the connection yields.
func (wk *worker) fail(err error) (stop bool, _ error) {
	if !wk.o.Chaos {
		return true, err
	}
	reconnect, fatal := chaosOpErr(err, wk.tr)
	if fatal != nil || !reconnect {
		return fatal != nil, fatal
	}
	wk.c.close()
	nc, err := dialChaos(wk.o, wk.tr, wk.spec.Name)
	if err != nil {
		if errors.Is(err, ErrBusy) {
			return true, nil
		}
		return true, err
	}
	wk.c = nc
	return false, nil
}

// runConn drives one connection's operation budget.
func runConn(o Options, tr *TenantResult, spec Tenant, conn int) error {
	c, err := dialChaos(o, tr, spec.Name)
	if err != nil {
		if o.Chaos && errors.Is(err, ErrBusy) {
			return nil // rejected conns yield; the Rejected counter has the story
		}
		return err
	}
	wk := &worker{o: o, tr: tr, spec: spec, c: c}
	defer func() { wk.c.close() }() // the current conn, which a redial may have replaced
	app := spec.MakeApp(conn)
	val := make([]byte, o.ValueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	if o.Batch > 1 {
		return wk.runBatched(app, val)
	}
	for i := 0; i < o.OpsPerConn; i++ {
		_, addr := app.Next()
		key := strconv.FormatUint(addr, 16)
		hit, err := wk.c.get(spec.Name, key)
		if err != nil {
			if stop, err := wk.fail(err); stop {
				return err
			}
			continue
		}
		atomic.AddUint64(&tr.Gets, 1)
		if hit {
			atomic.AddUint64(&tr.Hits, 1)
			continue
		}
		atomic.AddUint64(&tr.Misses, 1)
		if err := wk.c.put(spec.Name, key, val, spec.ttlMS()); err != nil {
			if stop, err := wk.fail(err); stop {
				return err
			}
			continue
		}
		atomic.AddUint64(&tr.Puts, 1)
	}
	return nil
}

// runBatched drives the budget in MGET batches: one round trip reads
// o.Batch keys, then the misses are filled with pipelined PUTs sharing one
// flush and one response read.
func (wk *worker) runBatched(app workload.App, val []byte) error {
	o, tr, spec := wk.o, wk.tr, wk.spec
	keys := make([]string, 0, o.Batch)
	missed := make([]string, 0, o.Batch)
	for done := 0; done < o.OpsPerConn; done += len(keys) {
		keys = keys[:0]
		for i := 0; i < min(o.Batch, o.OpsPerConn-done); i++ {
			_, addr := app.Next()
			keys = append(keys, strconv.FormatUint(addr, 16))
		}
		hits, seen, missIdx, err := wk.c.mget(spec.Name, keys, missed[:0])
		missed = missIdx
		// Responses received before a mid-batch abort are real GETs the
		// server performed and accounted; count them either way.
		atomic.AddUint64(&tr.Gets, uint64(seen))
		atomic.AddUint64(&tr.Hits, uint64(hits))
		atomic.AddUint64(&tr.Misses, uint64(seen-hits))
		if err != nil {
			// The batch's budget is spent even when it aborted.
			if stop, err := wk.fail(err); stop {
				return err
			}
			continue
		}
		if len(missed) > 0 {
			stored, err := wk.c.putPipelined(spec.Name, missed, val, spec.ttlMS(), o.Chaos, tr)
			atomic.AddUint64(&tr.Puts, stored)
			if err != nil {
				if stop, err := wk.fail(err); stop {
					return err
				}
			}
		}
	}
	return nil
}

// client is a minimal blocking protocol client over one TCP connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// newRawClient wraps an established connection without the TENANT ADD
// handshake (the churner issues its own registry commands).
func newRawClient(conn net.Conn) *client {
	return &client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

// dial connects and registers the tenant.
func dial(addr, tenant string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newRawClient(conn)
	resp, err := c.roundTrip("TENANT ADD " + tenant)
	if err != nil {
		conn.Close()
		// A fast-rejecting server writes BUSY and closes before reading our
		// command; depending on timing the client sees the BUSY line, an
		// EOF, or a reset. All mean the same thing at dial time.
		if isConnErr(err) {
			return nil, fmt.Errorf("%w (%v)", ErrBusy, err)
		}
		return nil, err
	}
	if resp == "BUSY" {
		conn.Close()
		return nil, ErrBusy
	}
	if !strings.HasPrefix(resp, "OK") {
		conn.Close()
		return nil, fmt.Errorf("loadgen: TENANT ADD: %s", resp)
	}
	return c, nil
}

// classifyErr maps a protocol ERR reply to its overload sentinel, or wraps
// it as a generic failure.
func classifyErr(ctx, resp string) error {
	switch {
	case strings.HasPrefix(resp, "ERR SHED"):
		return ErrShed
	case strings.HasPrefix(resp, "ERR FAULT"):
		return ErrInjected
	}
	return fmt.Errorf("loadgen: %s: %s", ctx, resp)
}

func (c *client) close() { c.conn.Close() }

// roundTrip sends one command line and reads one response line.
func (c *client) roundTrip(line string) (string, error) {
	if _, err := c.w.WriteString(line + "\r\n"); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	return c.readLine()
}

func (c *client) readLine() (string, error) {
	resp, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(resp, "\r\n"), nil
}

// get returns whether key hit. The value bytes are read and discarded.
func (c *client) get(tenant, key string) (bool, error) {
	c.w.WriteString("GET " + tenant + " " + key + "\r\n")
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	return c.readValue("GET")
}

// readValue reads one GET or MGET key response, discarding a hit's value,
// and reports whether it hit; an ERR line maps through classifyErr.
func (c *client) readValue(ctx string) (bool, error) {
	resp, err := c.readLine()
	switch {
	case err != nil:
		return false, err
	case resp == "MISS":
		return false, nil
	case strings.HasPrefix(resp, "VALUE "):
		n, err := strconv.Atoi(resp[len("VALUE "):])
		if err != nil || n < 0 {
			return false, fmt.Errorf("loadgen: bad VALUE header %q", resp)
		}
		_, err = c.r.Discard(n + 2) // value + CRLF
		return err == nil, err
	}
	return false, classifyErr(ctx, resp)
}

// mgetSend writes and flushes the MGET command line (the send phase of the
// batchProto split; the token is unused by the text protocol).
func (c *client) mgetSend(tenant string, keys []string) (uint32, error) {
	c.w.WriteString("MGET ")
	c.w.WriteString(tenant)
	c.w.WriteByte(' ')
	c.w.WriteString(strconv.Itoa(len(keys)))
	for _, k := range keys {
		c.w.WriteByte(' ')
		c.w.WriteString(k)
	}
	c.w.WriteString("\r\n")
	return 0, c.w.Flush()
}

// mgetRecv reads the MGET's per-key responses and END terminator. A server
// that refuses the batch (shed, injected fault) answers a single ERR line
// in place of the responses and no END, so the line stream stays in sync;
// an ERR line is accepted after any number of responses, so a server that
// aborts a batch midway is handled too.
func (c *client) mgetRecv(_ uint32, tenant string, keys []string, missBuf []string) (hits, seen int, _ []string, _ error) {
	for _, k := range keys {
		hit, err := c.readValue("MGET")
		if err != nil {
			return hits, seen, missBuf, err
		}
		seen++
		if hit {
			hits++
		} else {
			missBuf = append(missBuf, k)
		}
	}
	resp, err := c.readLine()
	if err != nil {
		return hits, seen, missBuf, err
	}
	if resp != "END" {
		return hits, seen, missBuf, fmt.Errorf("loadgen: MGET missing END, got %q", resp)
	}
	return hits, seen, missBuf, nil
}

// putSend writes and flushes the batch's PUT commands (the send phase of
// the batchProto split).
func (c *client) putSend(tenant string, keys []string, val []byte, ttlMS int) (uint32, error) {
	for _, key := range keys {
		if ttlMS >= 0 {
			fmt.Fprintf(c.w, "PUT %s %s %d EXPIRE %d\r\n", tenant, key, len(val), ttlMS)
		} else {
			fmt.Fprintf(c.w, "PUT %s %s %d\r\n", tenant, key, len(val))
		}
		c.w.Write(val)
		c.w.WriteString("\r\n")
	}
	return 0, c.w.Flush()
}

// putRecv drains the batch's n response lines: every PUT gets exactly one,
// so the stream stays in sync even when some are shed or faulted.
func (c *client) putRecv(_ uint32, n int, chaos bool, tr *TenantResult) (stored uint64, _ error) {
	for i := 0; i < n; i++ {
		resp, err := c.readLine()
		if err != nil {
			return stored, err
		}
		if resp == "STORED" {
			stored++
			continue
		}
		err = classifyErr("PUT", resp)
		if !chaos {
			return stored, err
		}
		switch {
		case errors.Is(err, ErrShed):
			atomic.AddUint64(&tr.Shed, 1)
		case errors.Is(err, ErrInjected):
			atomic.AddUint64(&tr.Injected, 1)
		default:
			return stored, err
		}
	}
	return stored, nil
}
