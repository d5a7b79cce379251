package service

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/clock"
	"vantage/internal/textwire"
)

// aLongTimeAgo is a time far in the past. Setting a connection deadline to
// it forces any blocked or future read/write to return a timeout
// immediately (the net-package idiom for interrupting I/O).
var aLongTimeAgo = time.Unix(1, 0)

// watchdog enforces one side's I/O window (read or write) on a connection
// using a clock.Clock timer instead of kernel deadline arithmetic, so the
// overload windows run on the fake clock in tests. When the window expires,
// the timer callback sets the connection deadline to aLongTimeAgo, forcing
// the pending I/O to return a timeout — which the handler classifies with
// isTimeout exactly as a kernel deadline expiry. The fire path revalidates
// against the armed deadline under a mutex, so a stale fire from a
// superseded window (timer raced with a successful I/O and a re-arm) cannot
// poison the new window.
type watchdog struct {
	clk clock.Clock
	set func(time.Time) error

	mu       sync.Mutex
	deadline time.Time // zero when disarmed
	poisoned bool      // fire has set a past deadline not yet cleared
	t        clock.Timer
}

func newWatchdog(clk clock.Clock, set func(time.Time) error) *watchdog {
	w := &watchdog{clk: clk, set: set}
	w.t = clk.AfterFunc(time.Hour, w.fire)
	w.t.Stop()
	return w
}

func (w *watchdog) fire() {
	w.mu.Lock()
	if !w.deadline.IsZero() && !w.clk.Now().Before(w.deadline) {
		w.deadline = time.Time{}
		w.poisoned = true
		w.set(aLongTimeAgo)
	}
	w.mu.Unlock()
}

// arm starts a fresh window of d, clearing any poison a previous fire left.
func (w *watchdog) arm(d time.Duration) {
	w.mu.Lock()
	w.deadline = w.clk.Now().Add(d)
	if w.poisoned {
		w.poisoned = false
		w.set(time.Time{})
	}
	w.t.Reset(d)
	w.mu.Unlock()
}

// disarm cancels the window. A poison already applied stays (the I/O it
// interrupted has its timeout either way); the next arm clears it.
func (w *watchdog) disarm() {
	w.mu.Lock()
	w.deadline = time.Time{}
	w.t.Stop()
	w.mu.Unlock()
}

// The vantaged wire protocol is a memcached-style CRLF text protocol, one
// connection-handler goroutine per client:
//
//	GET <tenant> <key>                 -> VALUE <n>\r\n<bytes>\r\n | MISS
//	MGET <tenant> <k> <key...>         -> k responses (VALUE block | MISS), then END
//	PUT <tenant> <key> <n> [EXPIRE <ms>]\r\n<bytes>
//	                                   -> STORED | ERR <msg>
//	DEL <tenant> <key>                 -> DELETED | MISS
//	TOUCH <tenant> <key> <ms>          -> TOUCHED | MISS   (EXPIRE is an alias)
//	TENANT ADD <name>                  -> OK <partition>
//	TENANT DEL <name>                  -> OK
//	TENANT LIST                        -> TENANT <name> <part> ... END
//	STATS [<tenant>]                   -> STAT <k> <v> ... END
//	PING                               -> PONG
//	QUIT                               -> closes the connection
//
// A PUT's optional EXPIRE clause gives the entry a TTL in milliseconds;
// EXPIRE 0 stores a non-expiring entry even when the service has a default
// TTL. TOUCH resets a live entry's TTL to <ms> from now (0 clears it) and
// answers MISS for absent or already-expired entries.
//
// Lines end in \r\n; bare \n is accepted. Errors are "ERR <msg>".
//
// The protocol is pipelining-safe: clients may send many commands without
// waiting for responses, and responses come back in order. Replies are
// written only before a socket read that may block (conn.Read, the rule
// both codecs share), so one round trip, and one syscall each way, carries
// a whole batch of commands, and no reply waits behind a partial next one.
// MGET is the batch read: one line requests k keys and the k responses
// arrive in key order, terminated by END.
//
// A command is read whole before it is parsed: the line, split into fields
// by binwire.Req.SplitText, then the value block it declares, and
// binwire.Req.DecodeText turns the two into the request a binary frame
// would carry, checking the binary protocol's limits (so a PUT that fails
// validation has had its block consumed and never desyncs the stream). A
// data command then runs through the admission path binary frames take;
// control lines (TENANT, STATS, CLUSTER, PING, QUIT) run through control.
// A PUT with a length above the 1 MiB cap will not be drained and closes
// the connection.
//
// # Overload behavior
//
// The server degrades instead of collapsing, the same philosophy Vantage
// applies to cache capacity (§3.4: shed the weakest demands, never fail the
// mechanism). Every limit below is off (0) by default and enabled via
// ServerConfig:
//
//   - Connections beyond MaxConns are fast-rejected: the server writes the
//     single line "BUSY" and closes, instead of letting the accept queue
//     pile up. Rejections count toward vantaged_conns_rejected_total.
//   - Data commands (GET/MGET/PUT/DEL/TOUCH) beyond MaxInflight wait up to
//     InflightWait for a slot (backpressure), then are shed with
//     "ERR SHED server overloaded"; the connection stays usable. Per-tenant
//     MaxTenantInflight sheds immediately — blocking behind one saturated
//     tenant would leak its overload into everyone else's latency.
//     Shed requests count toward vantaged_requests_shed_total.
//   - IdleTimeout bounds the wall-clock time a whole request may take to
//     arrive (it is an absolute window armed at the first socket read of
//     each request, so a slow-loris client dribbling one byte at a time is
//     reaped, not just a silent one). ReadTimeout re-arms the window for a
//     PUT's value block; WriteTimeout bounds every write of replies. Deadline closes count toward
//     vantaged_deadline_closes_total. The windows run on the service's
//     injected clock via watchdog timers (see watchdog), not on kernel
//     deadline arithmetic, so overload tests drive them with a fake clock.
//   - Command lines are capped at maxLineLen; an oversized line gets
//     "ERR line too long" and the connection closes (the line cannot be
//     resynced without reading it).
//
// Data commands are admitted by the path every codec shares (request.go),
// which draws an installed FaultInjector (see fault.go) once per command:
// an error fault answers "ERR FAULT injected", a drop fault closes the
// connection before the command executes. An MGET is admitted once for the
// whole batch, under OpMGet, so a refused MGET (unknown tenant, shed,
// injected error) answers a single ERR line before any key's response; the
// server never aborts a batch midway. Clients may still treat an ERR line
// anywhere in a batch as its end.
//
// The limits are the wire packages', which the proxy's fronts enforce too.
const (
	maxKeyLen    = binwire.MaxKey
	maxValueLen  = binwire.MaxValue
	maxBatchKeys = binwire.MaxBatchKeys
	maxLineLen   = textwire.MaxLine
)

// ServerConfig are the serving-layer overload knobs. The zero value imposes
// no limits, no deadlines, and no fault injection — the pre-hardening
// behavior.
type ServerConfig struct {
	// MaxConns caps concurrently served connections; excess connections are
	// fast-rejected with "BUSY". 0 = unlimited.
	MaxConns int
	// MaxInflight caps data commands executing concurrently across all
	// connections. 0 = unlimited.
	MaxInflight int
	// MaxTenantInflight caps data commands executing concurrently per
	// tenant. 0 = unlimited.
	MaxTenantInflight int
	// InflightWait is how long a command waits for a global in-flight slot
	// before being shed (the backpressure window). Default 10ms when
	// MaxInflight > 0.
	InflightWait time.Duration
	// IdleTimeout is the absolute deadline for a whole request to arrive,
	// armed at its first socket read; it reaps idle and slow-loris
	// connections alike. 0 = no deadline.
	IdleTimeout time.Duration
	// ReadTimeout re-arms the read deadline for a PUT value block. 0 =
	// inherit the command's IdleTimeout deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each write of replies. 0 = no deadline.
	WriteTimeout time.Duration
}

// Server serves the wire protocols over a listener. Create with Serve or
// ServeWith. A connection's first byte selects the protocol: binwire.Magic
// (0x83, which can never start a CRLF verb) negotiates the binary framing
// (see binproto.go), anything else is the text protocol.
type Server struct {
	svc *Service
	lis net.Listener
	cfg ServerConfig
	sem chan struct{} // global in-flight slots; nil when MaxInflight == 0

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Serve starts accepting connections on lis and handling them against svc,
// one goroutine per connection, with no limits or deadlines. It returns
// immediately.
func Serve(svc *Service, lis net.Listener) *Server {
	return ServeWith(svc, lis, ServerConfig{})
}

// ServeWith is Serve with overload limits (see ServerConfig).
func ServeWith(svc *Service, lis net.Listener, cfg ServerConfig) *Server {
	if cfg.MaxInflight > 0 && cfg.InflightWait == 0 {
		cfg.InflightWait = 10 * time.Millisecond
	}
	s := &Server{svc: svc, lis: lis, cfg: cfg, conns: make(map[net.Conn]struct{})}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Close shuts the server down gracefully: stop accepting, close every open
// connection (interrupting blocked reads; in-flight commands finish first
// because handlers write their response before reading the next line), and
// wait for all handlers to return.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.lis.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.svc.connsRejected.Add(1)
			// Fast-reject off the accept loop: a client that never reads
			// must not be able to stall accepting. The write deadline bounds
			// the goroutine's lifetime.
			s.wg.Add(1)
			go func(c net.Conn) {
				defer s.wg.Done()
				wd := newWatchdog(s.svc.clk, c.SetWriteDeadline)
				wd.arm(time.Second)
				io.WriteString(c, "BUSY\r\n")
				wd.disarm()
				c.Close()
			}(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// conn is one client connection in either codec, served by one goroutine
// (handle), its only user. Pooled with its reader, so a steady-state
// connection allocates nothing per request.
type conn struct {
	s     *Server
	nc    net.Conn
	r     *bufio.Reader // reads nc through conn.Read
	rwd   *watchdog     // the read window; nil without IdleTimeout and ReadTimeout
	wwd   *watchdog     // the write window; nil without WriteTimeout
	armed bool          // rwd's window is set for the request being read
	text  bool          // replies render in the text codec; else binary frames
	frame bool          // text replies fill a TEXT frame's response, which no write may split
	peer  bool          // binary: opened with the peer preamble, may send peer-only frames
	dead  bool          // a write failed: the connection is closed
	req   binwire.Req   // the request being served, aliasing r's buffer or buf
	buf   []byte        // text: a line and the value block read after it
	out   []byte        // replies not yet written
}

var connPool = sync.Pool{New: func() any {
	c := new(conn)
	c.r = bufio.NewReaderSize(c, 16<<10)
	return c
}}

// flushHi is the size of unwritten replies past which a connection writes
// them before it reads on, bounding memory and syscall payload alike.
const flushHi = 64 << 10

var (
	// errBadFrame marks a framing violation; the connection closes because
	// the stream can no longer be trusted.
	errBadFrame = errors.New("binary framing violation")
	// errDropConn marks a drop fault: the connection closes without
	// answering the request.
	errDropConn = errors.New("connection dropped by fault injection")
	// errQuit marks a text QUIT, answered before the connection closes.
	errQuit = errors.New("quit")
)

// handle serves one connection in the codec its first byte picks:
// binwire.Magic can never start a text verb, and no text command starts
// with a byte >= 0x80, so one peek is unambiguous. Both codecs then run the
// one loop: step reads a request into c.req in the connection's codec,
// executes it and appends its reply to c.out, until EOF, a deadline, a
// failed write, a framing violation, a drop fault or a QUIT.
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	c := connPool.Get().(*conn)
	c.s, c.nc = s, nc
	c.r.Reset(c)
	if s.cfg.IdleTimeout > 0 || s.cfg.ReadTimeout > 0 {
		c.rwd = newWatchdog(s.svc.clk, nc.SetReadDeadline)
	}
	if s.cfg.WriteTimeout > 0 {
		c.wwd = newWatchdog(s.svc.clk, nc.SetWriteDeadline)
	}
	defer s.release(c)
	// The idle window covers the wait for the first byte, and a text
	// connection's first line runs inside it: a second arm would clear a
	// poison its expiry had just set.
	first, err := c.r.Peek(1)
	if err != nil {
		s.countTimeout(err)
		return
	}
	if c.text = first[0] != binwire.Magic; !c.text {
		// The ack is a reply like any other: it leaves at the first flush.
		role, ok, err := binwire.Accept(c.r, c)
		if !ok {
			s.countTimeout(err)
			return
		}
		c.peer, c.armed = role == binwire.RolePeer, false
		s.svc.binConnsTotal.Add(1)
		s.svc.binConns.Add(1)
		defer s.svc.binConns.Add(-1)
	}
	for !c.dead && s.step(c) {
	}
}

// step reads one request in c's codec, executes it, appending its reply,
// and reports whether the connection goes on.
func (s *Server) step(c *conn) bool {
	var peeked int
	var err error
	if c.text {
		err = s.textRead(c)
	} else {
		peeked, err = c.binRead()
	}
	if err != nil {
		s.countTimeout(err)
		return false
	}
	// A complete request is progress: the next read gets a fresh idle
	// window, and a dribbled partial request never does.
	c.armed = false
	var t0 time.Time
	h := s.svc.latency
	if h != nil {
		t0 = s.svc.clk.Now()
	}
	if c.text {
		err = s.textExec(c)
	} else {
		err = s.binExec(c)
	}
	if h != nil {
		h.Record(s.svc.clk.Now().Sub(t0))
	}
	c.r.Discard(peeked)
	if len(c.out) >= flushHi {
		c.flush()
	}
	return err == nil
}

// release tears c down once its loop has ended. Replies already appended
// are written first, as before a QUIT or a drop.
func (s *Server) release(c *conn) {
	c.flush()
	if c.rwd != nil {
		c.rwd.disarm()
	}
	if c.wwd != nil {
		c.wwd.disarm()
	}
	c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c.nc)
	s.mu.Unlock()
	if cap(c.buf) > 64<<10 {
		c.buf = nil // don't let one huge PUT pin a large buffer
	}
	*c = conn{r: c.r, req: c.req, buf: c.buf, out: c.out}
	connPool.Put(c)
}

// Read is the connection's one socket read, which c.r reads through, and
// the one rule of both codecs' overload windows. Before a read that may
// block, every reply appended so far leaves in one write under the write
// window: a pipelined batch costs one write syscall, and no reply waits
// behind a partial next request. Then the idle window starts unless it
// already runs for the request being read: the window is absolute per
// request, so a client dribbling bytes cannot keep the connection alive.
func (c *conn) Read(p []byte) (int, error) {
	if c.flush(); c.dead {
		return 0, net.ErrClosed
	}
	if c.rwd != nil && !c.armed {
		c.armed = true
		if d := c.s.cfg.IdleTimeout; d > 0 {
			c.rwd.arm(d)
		} else {
			c.rwd.disarm() // ReadTimeout only: windows cover value blocks
		}
	}
	return c.nc.Read(p)
}

// Write appends p to the replies: binwire.Accept acks a preamble with it.
func (c *conn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}

// flush writes the appended replies under the write window. A failed write
// closes the connection and marks it dead.
func (c *conn) flush() {
	if len(c.out) == 0 {
		return
	}
	if !c.dead {
		if c.wwd != nil {
			c.wwd.arm(c.s.cfg.WriteTimeout)
		}
		_, err := c.nc.Write(c.out)
		if c.wwd != nil {
			c.wwd.disarm()
		}
		if err != nil {
			c.s.countTimeout(err)
			c.dead = true
			c.nc.Close()
		}
	}
	c.out = c.out[:0]
	if cap(c.out) > 1<<20 {
		c.out = nil
	}
}

// countTimeout counts a connection closed by an expired window.
func (s *Server) countTimeout(err error) {
	if isTimeout(err) {
		s.svc.deadlineCloses.Add(1)
	}
}

// isTimeout reports whether err is a connection deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// reply appends the response to c.req in c's codec, given as its binary
// status and payload; the text codec renders it with
// binwire.AppendTextResp, the proxy's renderer too.
func (c *conn) reply(status uint8, payload []byte) {
	if c.text {
		c.out = binwire.AppendTextResp(c.out, c.req.Op, status, payload, c.req.Tenant)
	} else {
		c.out = binwire.AppendResp(c.out, status, c.req.Op, c.req.ID, payload)
	}
}

// fail appends the ERR reply carrying msg to c.req.
func (c *conn) fail(msg string) { c.reply(binwire.StErr, []byte(msg)) }

// serveData hands the data request in c.req to the admission path
// (request.go) and appends its reply. A drop fault closes the connection
// without one.
func (s *Server) serveData(c *conn) error {
	q := &c.req
	if q.Op == binwire.OpBMGet {
		return s.serveBatch(c)
	}
	v, val := s.serveReq(q, nil)
	if v == outDrop {
		return errDropConn
	}
	st, msg := v.status()
	if msg != "" {
		val = []byte(msg)
	}
	c.reply(st, val)
	return nil
}

// serveBatch hands a BMGET's or a text MGET's keys to the admission path as
// one batch, one reservation and one fault draw, rendering each key's
// reply as it executes: a coalesced BMGET response, or a VALUE or MISS per
// key and END. A refused batch answers one ERR reply and no key (binary:
// a shed batch answers SHED per key). A text MGET's replies leave at the
// high-water mark as its keys execute, after every gate; a frame is whole.
func (s *Server) serveBatch(c *conn) error {
	q := &c.req
	start := len(c.out)
	if !c.text {
		c.out = binwire.AppendRespHdr(c.out, binwire.StOK, binwire.OpBMGet, q.ID, 0)
		c.out = binLE.AppendUint16(c.out, uint16(q.Count))
	}
	v, _ := s.serveReq(q, func(val []byte, hit bool) {
		st := uint8(binwire.StMiss)
		if hit {
			st = binwire.StOK
		}
		if c.text {
			c.out = binwire.AppendTextResp(c.out, binwire.OpGet, st, val, nil)
			if len(c.out) >= flushHi && !c.frame {
				c.flush()
			}
		} else {
			c.out = binwire.AppendEntry(c.out, st, val)
		}
	})
	if v != outUnknownTenant && !c.text {
		s.svc.bmgetKeys.Add(uint64(q.Count))
	}
	switch {
	case v == outDrop:
		c.out = c.out[:start]
		return errDropConn
	case v == outShed && !c.text:
		for range q.Count {
			c.out = binwire.AppendEntry(c.out, binwire.StShed, nil)
		}
	case v != outDone:
		c.out = c.out[:start]
		st, msg := v.status()
		c.reply(st, []byte(msg))
		return nil
	}
	if c.text {
		c.reply(binwire.StOK, nil) // END
		s.svc.mgets.Add(1)
	} else {
		binwire.SetLen(c.out[start:])
	}
	return nil
}

// textRead reads the next command line and the value block it declares,
// and decodes the two into c.req with binwire.Req.DecodeText, a decode
// error into c.req.Err. A line over maxLineLen, a block over the value cap
// and a block cut short answer their ERR line and close the connection:
// the stream cannot be resynced without reading them.
func (s *Server) textRead(c *conn) error {
	line, err := textwire.ReadLine(c.r, maxLineLen)
	if err == textwire.ErrLineTooLong {
		c.out = binwire.AppendTextErr(c.out, "line too long", nil)
	}
	if err != nil {
		return err
	}
	q := &c.req
	var block []byte
	if n := q.SplitText(line); n > maxValueLen {
		err = binwire.ErrValueLen(n)
		c.out = binwire.AppendTextErr(c.out, err.Error(), nil)
		return err
	} else if n > 0 {
		// The value block is part of the command, so its reads get a fresh
		// window: a client that stalls mid-payload is reaped just like a
		// slow-loris command line.
		if c.rwd != nil && s.cfg.ReadTimeout > 0 {
			c.rwd.arm(s.cfg.ReadTimeout)
			c.armed = true
		}
		if line, block, c.buf, err = textwire.ReadBlock(c.r, line, n, c.buf); err != nil {
			c.out = binwire.AppendTextErr(c.out, "short value", nil)
			return err
		}
	}
	q.Err = q.DecodeText(line, block)
	return nil
}

// textExec executes the text command in c.req: a decode error answers its
// ERR line, a blank line nothing, a control line runs through control and
// a data command through the path binary frames take. A non-nil error
// closes the connection: a QUIT or a drop fault.
func (s *Server) textExec(c *conn) error {
	q := &c.req
	switch {
	case q.Err != "":
		c.fail(q.Err)
	case q.Op == binwire.OpText:
		var err error
		if c.out, err = s.control(c.out, q.Keys); err == errQuit {
			return err
		} else if err != nil {
			c.fail(err.Error())
		}
	case q.Op != 0:
		return s.serveData(c)
	}
	return nil
}

// control executes a control line, given as its fields, appending its
// reply to dst; an error is its ERR line's message, errQuit a QUIT.
func (s *Server) control(dst []byte, fields [][]byte) ([]byte, error) {
	switch verb := fields[0]; {
	case textwire.CmdEq(verb, "TENANT"):
		if len(fields) < 2 {
			return dst, errors.New("usage: TENANT ADD|DEL|LIST ...")
		}
		switch sub := fields[1]; {
		case textwire.CmdEq(sub, "ADD"):
			if len(fields) != 3 {
				return dst, errors.New("usage: TENANT ADD <name>")
			}
			part, err := s.svc.AddTenant(string(fields[2]))
			if err != nil {
				return dst, err
			}
			return fmt.Appendf(dst, "OK %d\r\n", part), nil
		case textwire.CmdEq(sub, "DEL"):
			if len(fields) != 3 {
				return dst, errors.New("usage: TENANT DEL <name>")
			}
			if err := s.svc.RemoveTenant(string(fields[2])); err != nil {
				return dst, err
			}
			return append(dst, "OK\r\n"...), nil
		case textwire.CmdEq(sub, "LIST"):
			for _, ts := range s.svc.Stats().Tenants {
				dst = fmt.Appendf(dst, "TENANT %s %d\r\n", ts.Name, ts.Partition)
			}
			return append(dst, "END\r\n"...), nil
		}
		return dst, fmt.Errorf("unknown TENANT subcommand %q", fields[1])

	case textwire.CmdEq(verb, "STATS"):
		if len(fields) > 2 {
			return dst, errors.New("usage: STATS [<tenant>]")
		}
		st := s.svc.Stats()
		if len(fields) == 2 {
			for i := range st.Tenants {
				if st.Tenants[i].Name == string(fields[1]) {
					for _, m := range tenantStats {
						dst = m.appendStat(dst, "", &st.Tenants[i])
					}
					return append(dst, "END\r\n"...), nil
				}
			}
			return dst, fmt.Errorf("unknown tenant %q", fields[1])
		}
		for _, m := range serviceStats {
			dst = m.appendStat(dst, "", &st)
		}
		for i := range st.Tenants {
			prefix := "tenant." + st.Tenants[i].Name + "."
			for _, m := range tenantStats {
				dst = m.appendStat(dst, prefix, &st.Tenants[i])
			}
		}
		return append(dst, "END\r\n"...), nil

	case textwire.CmdEq(verb, "CLUSTER"):
		// CLUSTER INFO reports this node's cluster view; CLUSTER MEMBERS
		// <addr>... installs a new member set on the node's handler (the
		// operator's join/leave entry point), answering "OK <rehomed>" with
		// the number of keys drained to peers. Both require cluster mode.
		h := s.svc.clusterHandler()
		if h == nil {
			return dst, errors.New("not in cluster mode")
		}
		if len(fields) < 2 {
			return dst, errors.New("usage: CLUSTER INFO|MEMBERS ...")
		}
		switch sub := fields[1]; {
		case textwire.CmdEq(sub, "INFO"):
			if len(fields) != 2 {
				return dst, errors.New("usage: CLUSTER INFO")
			}
			out, in := s.svc.RehomedCounts()
			dst = fmt.Appendf(dst, "STAT self %s\r\nSTAT peers %d\r\nSTAT registry_version %d\r\nSTAT rehomed_keys %d\r\nSTAT rehomed_in_keys %d\r\n",
				h.Self(), h.Peers(), s.svc.ClusterVersion(), out, in)
			for _, m := range h.Members() {
				dst = fmt.Appendf(dst, "MEMBER %s\r\n", m)
			}
			return append(dst, "END\r\n"...), nil
		case textwire.CmdEq(sub, "MEMBERS"):
			if len(fields) < 3 {
				return dst, errors.New("usage: CLUSTER MEMBERS <addr>...")
			}
			members := make([]string, 0, len(fields)-2)
			for _, f := range fields[2:] {
				members = append(members, string(f))
			}
			moved, err := h.SetMembers(members)
			if err != nil {
				return dst, err
			}
			return fmt.Appendf(dst, "OK %d\r\n", moved), nil
		}
		return dst, fmt.Errorf("unknown CLUSTER subcommand %q", fields[1])

	case textwire.CmdEq(verb, "PING"):
		return append(dst, "PONG\r\n"...), nil

	case textwire.CmdEq(verb, "QUIT"):
		return append(dst, "BYE\r\n"...), errQuit
	}
	return dst, fmt.Errorf("unknown command %q", fields[0])
}
