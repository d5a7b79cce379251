package service

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
	"testing"
	"time"

	"vantage/internal/hash"
)

// The chaos test drives the whole hardened serving stack at once: N client
// goroutines issue mixed GET/PUT/DEL/MGET traffic over real TCP while the
// fault injector drops connections, delays operations, and fails them with
// errors, tenants are concurrently added and removed, in-flight limits shed
// requests, and the background loop repartitions. It asserts the
// degrade-don't-collapse contract end to end:
//
//   - no deadlock or hang (the test completes under a watchdog),
//   - no pooled-buffer reuse-after-free: every PUT value is a deterministic
//     function of (tenant, key), so any cross-connection buffer aliasing in
//     the pooled conn/reader path surfaces as a GET returning
//     bytes that fail the poison check,
//   - accounting stays consistent with observed replies: the server-side
//     per-tenant gets/hits/puts counters must equal the replies the clients
//     actually received, and sheds must equal the ERR SHED replies seen.

// chaosValue is the poison check: the value stored under (tenant, key) is
// deterministic, so corruption from buffer reuse is detectable on any hit.
func chaosValue(tenant, key string) string {
	return tenant + "/" + key + "/" + strconv.FormatUint(hash.Mix64(uint64(len(tenant)+len(key))), 36) + "/payload"
}

// chaosCounts are the per-tenant client-observed reply counts.
type chaosCounts struct {
	gets, hits, puts        atomic.Uint64
	shed, injected, dropped atomic.Uint64 // dropped = connections lost and redialed
}

var errChaosReconnect = errors.New("connection dropped")

// chaosClient is a blocking protocol client whose methods classify overload
// and fault replies instead of failing.
type chaosClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialChaos(addr, tenant string) (*chaosClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	c := &chaosClient{conn: conn, r: bufio.NewReader(conn)}
	if _, err := io.WriteString(conn, "TENANT ADD "+tenant+"\r\n"); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := c.line()
	if err != nil || !strings.HasPrefix(resp, "OK") {
		conn.Close()
		return nil, fmt.Errorf("TENANT ADD: %q %v", resp, err)
	}
	return c, nil
}

func (c *chaosClient) line() (string, error) {
	resp, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(resp, "\r\n"), nil
}

// op runs one command line and classifies the reply. It returns the reply
// line for further inspection; "" with errChaosReconnect when the
// connection died (a drop fault or deadline).
func (c *chaosClient) op(cmd string, counts *chaosCounts) (string, error) {
	if _, err := io.WriteString(c.conn, cmd); err != nil {
		return "", errChaosReconnect
	}
	resp, err := c.line()
	if err != nil {
		return "", errChaosReconnect
	}
	switch {
	case strings.HasPrefix(resp, "ERR FAULT"):
		counts.injected.Add(1)
		return "", nil
	case strings.HasPrefix(resp, "ERR SHED"):
		counts.shed.Add(1)
		return "", nil
	}
	return resp, nil
}

// chaosWorker drives ops operations for tenant against addr, reconnecting
// on dropped connections, and verifies every hit against the poison value.
func chaosWorker(addr, tenant string, g, ops int, counts *chaosCounts) error {
	c, err := dialChaos(addr, tenant)
	if err != nil {
		return err
	}
	defer func() { c.conn.Close() }()
	rng := hash.NewRand(uint64(g)*977 + 13)
	reconnect := func() error {
		c.conn.Close()
		counts.dropped.Add(1)
		nc, err := dialChaos(addr, tenant)
		if err != nil {
			return err
		}
		c = nc
		return nil
	}
	for i := 0; i < ops; i++ {
		j := rng.Intn(200)
		key := "k" + strconv.Itoa(j)
		val := chaosValue(tenant, key)
		var err error
		switch r := rng.Intn(100); {
		case r < 55: // GET
			var resp string
			resp, err = c.op("GET "+tenant+" "+key+"\r\n", counts)
			if err == nil && resp != "" {
				if err2 := c.finishGet(resp, val, counts); err2 != nil {
					return err2
				}
			}
		case r < 80: // PUT
			var resp string
			resp, err = c.op(fmt.Sprintf("PUT %s %s %d\r\n%s\r\n", tenant, key, len(val), val), counts)
			if err == nil && resp != "" {
				if resp != "STORED" {
					return fmt.Errorf("PUT: %q", resp)
				}
				counts.puts.Add(1)
			}
		case r < 90: // DEL
			var resp string
			resp, err = c.op("DEL "+tenant+" "+key+"\r\n", counts)
			if err == nil && resp != "" && resp != "DELETED" && resp != "MISS" {
				return fmt.Errorf("DEL: %q", resp)
			}
		default: // MGET of 4 keys
			k1, k2, k3 := "k"+strconv.Itoa(rng.Intn(200)), "k"+strconv.Itoa(rng.Intn(200)), "k"+strconv.Itoa(rng.Intn(200))
			err = c.mget(tenant, []string{key, k1, k2, k3}, counts)
		}
		if err != nil {
			if err == errChaosReconnect {
				if err := reconnect(); err != nil {
					return err
				}
				continue
			}
			return err
		}
	}
	return nil
}

// finishGet consumes a GET reply whose first line is resp, verifying hits
// against the poison value.
func (c *chaosClient) finishGet(resp, want string, counts *chaosCounts) error {
	switch {
	case resp == "MISS":
		counts.gets.Add(1)
		return nil
	case strings.HasPrefix(resp, "VALUE "):
		n, err := strconv.Atoi(resp[len("VALUE "):])
		if err != nil || n < 0 {
			return fmt.Errorf("bad VALUE header %q", resp)
		}
		body := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, body); err != nil {
			return errChaosReconnect
		}
		got := string(body[:n])
		if got != want {
			return fmt.Errorf("poison check failed: GET returned %q, want %q", got, want)
		}
		counts.gets.Add(1)
		counts.hits.Add(1)
		return nil
	default:
		return fmt.Errorf("GET: %q", resp)
	}
}

// mget issues one MGET and consumes its responses. An ERR line ends the
// batch wherever it appears (the server refuses a batch before its first
// key, but the client does not rely on it) and is classified like any
// other fault reply.
func (c *chaosClient) mget(tenant string, keys []string, counts *chaosCounts) error {
	cmd := "MGET " + tenant + " " + strconv.Itoa(len(keys)) + " " + strings.Join(keys, " ") + "\r\n"
	if _, err := io.WriteString(c.conn, cmd); err != nil {
		return errChaosReconnect
	}
	for i := 0; ; i++ {
		resp, err := c.line()
		if err != nil {
			return errChaosReconnect
		}
		switch {
		case resp == "END":
			if i != len(keys) {
				return fmt.Errorf("MGET: END after %d of %d responses", i, len(keys))
			}
			return nil
		case strings.HasPrefix(resp, "ERR FAULT"):
			counts.injected.Add(1)
			return nil // batch aborted; no END follows
		case strings.HasPrefix(resp, "ERR SHED"):
			counts.shed.Add(1)
			return nil
		case strings.HasPrefix(resp, "ERR"):
			return fmt.Errorf("MGET: %q", resp)
		default:
			if i >= len(keys) {
				return fmt.Errorf("MGET: response %q beyond %d keys", resp, len(keys))
			}
			if err := c.finishGet(resp, chaosValue(tenant, keys[i]), counts); err != nil {
				return err
			}
		}
	}
}

func TestChaosTorture(t *testing.T) {
	const (
		workers       = 8
		stableTenants = 4
	)
	ops := 1500
	if testing.Short() {
		ops = 300
	}

	svc := newTestService(t, Config{
		Shards: 2, LinesPerShard: 1024, MaxTenants: 8,
		RepartitionInterval: 2 * time.Millisecond, Seed: 1234,
	})
	plan := &FaultPlan{
		Seed:      99,
		DropRate:  0.004,
		ErrRate:   0.02,
		DelayRate: 0.01,
		Delay:     200 * time.Microsecond,
	}
	svc.SetFaultInjector(plan)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeWith(svc, lis, ServerConfig{
		MaxInflight:       4,
		MaxTenantInflight: 2,
		InflightWait:      time.Millisecond,
		IdleTimeout:       5 * time.Second,
		ReadTimeout:       5 * time.Second,
		WriteTimeout:      5 * time.Second,
	})
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	// Watchdog: the whole storm must finish; a deadlock anywhere (shard
	// locks, registry, in-flight semaphore, pipelined flush) trips it.
	watchdog := time.AfterFunc(2*time.Minute, func() {
		panic("chaos test deadlocked")
	})
	defer watchdog.Stop()

	counts := make([]chaosCounts, stableTenants)
	var workerWg sync.WaitGroup
	errs := make(chan error, workers+1)
	for g := 0; g < workers; g++ {
		workerWg.Add(1)
		go func(g int) {
			defer workerWg.Done()
			tenant := "s" + strconv.Itoa(g%stableTenants)
			if err := chaosWorker(addr, tenant, g, ops, &counts[g%stableTenants]); err != nil {
				errs <- fmt.Errorf("worker %d: %w", g, err)
			}
		}(g)
	}

	// Tenant churn concurrent with the data storm: the slot-reservation
	// protocol must keep churned slots from leaking state into anyone.
	churnStop := make(chan struct{})
	var churnWg sync.WaitGroup
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			default:
			}
			name := "c" + strconv.Itoa(i%2)
			if _, err := svc.AddTenant(name); err != nil {
				errs <- fmt.Errorf("churn add: %w", err)
				return
			}
			svc.Put(name, "k", []byte("churn"))
			if err := svc.RemoveTenant(name); err != nil {
				errs <- fmt.Errorf("churn remove: %w", err)
				return
			}
			// Throttle: every add/remove pair forces two full repartitions;
			// unpaced churn turns the test into a repartition benchmark and
			// starves the data path of shard locks.
			time.Sleep(2 * time.Millisecond)
		}
	}()

	workerWg.Wait()
	close(churnStop)
	churnWg.Wait()

	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Accounting: server-side per-tenant counters must equal the replies
	// the clients observed. (Shed and injected-error ops return before any
	// counter; dropped commands die before executing.)
	st := svc.Stats()
	var totalShed uint64
	for i := 0; i < stableTenants; i++ {
		name := "s" + strconv.Itoa(i)
		var ts *TenantStats
		for j := range st.Tenants {
			if st.Tenants[j].Name == name {
				ts = &st.Tenants[j]
			}
		}
		if ts == nil {
			t.Fatalf("tenant %s missing from stats", name)
		}
		c := &counts[i]
		if ts.Gets != c.gets.Load() {
			t.Errorf("%s: server gets %d != client-observed %d", name, ts.Gets, c.gets.Load())
		}
		if ts.Hits != c.hits.Load() {
			t.Errorf("%s: server hits %d != client-observed %d", name, ts.Hits, c.hits.Load())
		}
		if ts.Puts != c.puts.Load() {
			t.Errorf("%s: server puts %d != client-observed %d", name, ts.Puts, c.puts.Load())
		}
		if ts.Hits+ts.Misses != ts.Gets {
			t.Errorf("%s: hits %d + misses %d != gets %d", name, ts.Hits, ts.Misses, ts.Gets)
		}
		totalShed += c.shed.Load()
	}
	if st.RequestsShed != totalShed {
		t.Errorf("RequestsShed %d != client-observed sheds %d", st.RequestsShed, totalShed)
	}
	var injected, dropped uint64
	for i := range counts {
		injected += counts[i].injected.Load()
		dropped += counts[i].dropped.Load()
	}
	t.Logf("chaos: %d workers x %d ops: shed=%d injected=%d reconnects=%d repartitions=%d",
		workers, ops, totalShed, injected, dropped, st.Repartitions)
	if injected == 0 {
		t.Error("fault injector never fired an error — chaos did not exercise the fault path")
	}
}
