package service

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
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
// waiting for responses, and responses come back in order. The server
// defers flushing its write buffer until the read buffer drains, so one
// round trip (and one syscall each way) carries a whole batch of commands.
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
//   - IdleTimeout bounds the wall-clock time a whole command line may take
//     to arrive (it is an absolute window armed before each command, so a
//     slow-loris client dribbling one byte at a time is reaped, not just a
//     silent one). ReadTimeout re-arms the window for a PUT's payload;
//     WriteTimeout bounds each flush. Deadline closes count toward
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
	// IdleTimeout is the absolute deadline for a full command line to
	// arrive, armed before each read of the next command; it reaps idle and
	// slow-loris connections alike. 0 = no deadline.
	IdleTimeout time.Duration
	// ReadTimeout re-arms the read deadline for a PUT value block. 0 =
	// inherit the command's IdleTimeout deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush. 0 = no deadline.
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

// connState is the per-connection scratch space: req is the decoded
// command, whose slices alias the read buffer or buf, num holds
// strconv.Append output, and buf holds a line and the value block read
// after it. Pooled across connections so a steady-state connection
// allocates nothing per command.
type connState struct {
	req binwire.Req
	num []byte
	buf []byte
	// rwd is the connection's read watchdog, set by handle when read
	// windows are configured; a value block re-arms it. nil for tests that
	// drive dispatch directly and for unconfigured servers.
	rwd *watchdog
}

var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 16<<10) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 16<<10) }}
	statePool  = sync.Pool{New: func() any { return &connState{num: make([]byte, 0, 24)} }}
)

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(conn)
	var rwd *watchdog
	if s.cfg.IdleTimeout > 0 || s.cfg.ReadTimeout > 0 {
		rwd = newWatchdog(s.svc.clk, conn.SetReadDeadline)
	}
	// One teardown for both codecs: the binary one returns here too.
	defer func() {
		if rwd != nil {
			rwd.disarm()
		}
		r.Reset(nil)
		readerPool.Put(r)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Protocol negotiation on the first byte: binwire.Magic can never start a
	// text verb, and no text command starts with a byte >= 0x80, so one
	// peek is unambiguous. The idle window covers the wait for that byte.
	if rwd != nil && s.cfg.IdleTimeout > 0 {
		rwd.arm(s.cfg.IdleTimeout)
	}
	first, err := r.Peek(1)
	if err != nil {
		if isTimeout(err) {
			s.svc.deadlineCloses.Add(1)
		}
		return
	}
	if first[0] == binwire.Magic {
		s.handleBinary(conn, r, rwd)
		return
	}
	w := writerPool.Get().(*bufio.Writer)
	w.Reset(conn)
	cs := statePool.Get().(*connState)
	cs.rwd = rwd
	var wwd *watchdog
	if s.cfg.WriteTimeout > 0 {
		wwd = newWatchdog(s.svc.clk, conn.SetWriteDeadline)
	}
	defer func() {
		if wwd != nil {
			wwd.disarm()
		}
		cs.rwd = nil
		w.Reset(io.Discard)
		writerPool.Put(w)
		if cap(cs.buf) > 64<<10 {
			cs.buf = nil // don't let one huge PUT pin a large buffer
		}
		statePool.Put(cs)
	}()
	// The first line runs inside the window armed for its first byte: a
	// second arm would clear a poison that window's expiry had just set.
	armed := rwd != nil && s.cfg.IdleTimeout > 0
	for {
		// The idle window is absolute across all reads of this command
		// line: a slow-loris client dribbling bytes gets exactly IdleTimeout
		// of wall clock for the whole line, same as a silent one.
		if armed {
			armed = false
		} else if rwd != nil {
			if s.cfg.IdleTimeout > 0 {
				rwd.arm(s.cfg.IdleTimeout)
			} else {
				rwd.disarm() // ReadTimeout-only: windows cover PUT payloads
			}
		}
		line, err := textwire.ReadLine(r, maxLineLen)
		if err != nil {
			if isTimeout(err) {
				s.svc.deadlineCloses.Add(1)
			} else if err == textwire.ErrLineTooLong {
				// The rest of the line cannot be skipped without reading it;
				// report and close.
				w.WriteString("ERR line too long\r\n")
				w.Flush()
			}
			return // EOF, deadline, or closed connection
		}
		var quit bool
		if h := s.svc.latency; h != nil {
			t0 := s.svc.clk.Now()
			quit = s.run(line, r, w, cs)
			h.Record(s.svc.clk.Now().Sub(t0))
		} else {
			quit = s.run(line, r, w, cs)
		}
		if quit {
			w.Flush()
			return
		}
		// Pipelining: only flush once the read buffer has drained, so the
		// responses to a batch of commands leave in as few writes as
		// possible. A client that pipelines K commands gets K responses in
		// one round trip.
		if r.Buffered() == 0 {
			if wwd != nil {
				wwd.arm(s.cfg.WriteTimeout)
			}
			err := w.Flush()
			if wwd != nil {
				wwd.disarm()
			}
			if err != nil {
				if isTimeout(err) {
					s.svc.deadlineCloses.Add(1)
				}
				return
			}
		}
	}
}

// isTimeout reports whether err is a connection deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// writeUint appends n in decimal to w via the connection's scratch buffer.
func (cs *connState) writeUint(w *bufio.Writer, n int) {
	cs.num = strconv.AppendInt(cs.num[:0], int64(n), 10)
	w.Write(cs.num)
}

// writeValueResponse writes "VALUE <n>\r\n<bytes>\r\n" for a hit, or
// "MISS\r\n".
func (cs *connState) writeValueResponse(w *bufio.Writer, val []byte, hit bool) {
	if !hit {
		w.WriteString("MISS\r\n")
		return
	}
	w.WriteString("VALUE ")
	cs.writeUint(w, len(val))
	w.WriteString("\r\n")
	w.Write(val)
	w.WriteString("\r\n")
}

// textDone is a command's reply when it executed and found its key; a GET
// hit and an MGET render their values instead.
var textDone = [...]string{binwire.OpPut: "STORED\r\n", binwire.OpDel: "DELETED\r\n", binwire.OpTouch: "TOUCHED\r\n"}

// serveText hands one decoded data command to the shared admission path
// (request.go) and renders its verdict: a drop closes the connection, a
// refusal is dispatch's ERR line, and an MGET's keys answer in order as
// the batch executes, then END.
func (s *Server) serveText(w *bufio.Writer, cs *connState, q *binwire.Req) (quit bool, err error) {
	var emit func(val []byte, hit bool)
	if q.Op == binwire.OpBMGet {
		emit = func(val []byte, hit bool) { cs.writeValueResponse(w, val, hit) }
	}
	v, val := s.serveReq(q, emit)
	switch {
	case v == outDrop:
		return true, nil
	case v == outMiss:
		w.WriteString("MISS\r\n")
	case v != outDone:
		return false, v.err(q.Tenant)
	case q.Op == binwire.OpGet:
		cs.writeValueResponse(w, val, true)
	case q.Op == binwire.OpBMGet:
		w.WriteString("END\r\n")
		s.svc.mgets.Add(1)
	default:
		w.WriteString(textDone[q.Op])
	}
	return false, nil
}

// run executes a text connection's or a TEXT frame's command line and
// writes its ERR line, if any; quit reports that a text connection closes.
func (s *Server) run(line []byte, r *bufio.Reader, w *bufio.Writer, cs *connState) (quit bool) {
	quit, err := s.dispatch(line, r, w, cs)
	if err != nil {
		w.WriteString("ERR ")
		w.WriteString(err.Error())
		w.WriteString("\r\n")
	}
	return quit
}

// dispatch splits line, reads the value block it declares from r, decodes
// the two with binwire.Req.DecodeText and executes the command, writing the
// response to w. It returns quit=true when the connection should close: a
// PUT whose block is over the cap or cut short, a QUIT or a drop fault.
func (s *Server) dispatch(line []byte, r *bufio.Reader, w *bufio.Writer, cs *connState) (quit bool, err error) {
	q := &cs.req
	n := q.SplitText(line)
	if n > maxValueLen {
		// The stream cannot be resynced without draining an oversized
		// block; refuse and close.
		return true, binwire.ErrValueLen(n)
	}
	var block []byte
	if n > 0 {
		// The value block is part of the command, so its reads get a fresh
		// window: a client that stalls mid-payload is reaped just like a
		// slow-loris command line.
		if cs.rwd != nil && s.cfg.ReadTimeout > 0 {
			cs.rwd.arm(s.cfg.ReadTimeout)
		}
		if line, block, cs.buf, err = textwire.ReadBlock(r, line, n, cs.buf); err != nil {
			if isTimeout(err) {
				s.svc.deadlineCloses.Add(1)
			}
			return true, errors.New("short value")
		}
	}
	if msg := q.DecodeText(line, block); msg != "" {
		return false, errors.New(msg)
	}
	switch q.Op {
	case 0:
		return false, nil // a blank line has no reply
	case binwire.OpText:
		return s.control(q.Keys, w, cs)
	}
	return s.serveText(w, cs, q)
}

// control executes a control line, given as its fields.
func (s *Server) control(fields [][]byte, w *bufio.Writer, cs *connState) (quit bool, err error) {
	switch verb := fields[0]; {
	case textwire.CmdEq(verb, "TENANT"):
		if len(fields) < 2 {
			return false, errors.New("usage: TENANT ADD|DEL|LIST ...")
		}
		switch sub := fields[1]; {
		case textwire.CmdEq(sub, "ADD"):
			if len(fields) != 3 {
				return false, errors.New("usage: TENANT ADD <name>")
			}
			part, err := s.svc.AddTenant(string(fields[2]))
			if err != nil {
				return false, err
			}
			w.WriteString("OK ")
			cs.writeUint(w, part)
			w.WriteString("\r\n")
		case textwire.CmdEq(sub, "DEL"):
			if len(fields) != 3 {
				return false, errors.New("usage: TENANT DEL <name>")
			}
			if err := s.svc.RemoveTenant(string(fields[2])); err != nil {
				return false, err
			}
			w.WriteString("OK\r\n")
		case textwire.CmdEq(sub, "LIST"):
			for _, ts := range s.svc.Stats().Tenants {
				fmt.Fprintf(w, "TENANT %s %d\r\n", ts.Name, ts.Partition)
			}
			w.WriteString("END\r\n")
		default:
			return false, fmt.Errorf("unknown TENANT subcommand %q", fields[1])
		}
		return false, nil

	case textwire.CmdEq(verb, "STATS"):
		if len(fields) > 2 {
			return false, errors.New("usage: STATS [<tenant>]")
		}
		st := s.svc.Stats()
		if len(fields) == 2 {
			for i := range st.Tenants {
				if st.Tenants[i].Name == string(fields[1]) {
					for _, m := range tenantStats {
						m.writeStat(w, "", &st.Tenants[i])
					}
					w.WriteString("END\r\n")
					return false, nil
				}
			}
			return false, fmt.Errorf("unknown tenant %q", fields[1])
		}
		for _, m := range serviceStats {
			m.writeStat(w, "", &st)
		}
		for i := range st.Tenants {
			prefix := "tenant." + st.Tenants[i].Name + "."
			for _, m := range tenantStats {
				m.writeStat(w, prefix, &st.Tenants[i])
			}
		}
		w.WriteString("END\r\n")
		return false, nil

	case textwire.CmdEq(verb, "CLUSTER"):
		// CLUSTER INFO reports this node's cluster view; CLUSTER MEMBERS
		// <addr>... installs a new member set on the node's handler (the
		// operator's join/leave entry point), answering "OK <rehomed>" with
		// the number of keys drained to peers. Both require cluster mode.
		h := s.svc.clusterHandler()
		if h == nil {
			return false, errors.New("not in cluster mode")
		}
		if len(fields) < 2 {
			return false, errors.New("usage: CLUSTER INFO|MEMBERS ...")
		}
		switch sub := fields[1]; {
		case textwire.CmdEq(sub, "INFO"):
			if len(fields) != 2 {
				return false, errors.New("usage: CLUSTER INFO")
			}
			out, in := s.svc.RehomedCounts()
			fmt.Fprintf(w, "STAT self %s\r\n", h.Self())
			fmt.Fprintf(w, "STAT peers %d\r\n", h.Peers())
			fmt.Fprintf(w, "STAT registry_version %d\r\n", s.svc.ClusterVersion())
			fmt.Fprintf(w, "STAT rehomed_keys %d\r\n", out)
			fmt.Fprintf(w, "STAT rehomed_in_keys %d\r\n", in)
			for _, m := range h.Members() {
				fmt.Fprintf(w, "MEMBER %s\r\n", m)
			}
			w.WriteString("END\r\n")
		case textwire.CmdEq(sub, "MEMBERS"):
			if len(fields) < 3 {
				return false, errors.New("usage: CLUSTER MEMBERS <addr>...")
			}
			members := make([]string, 0, len(fields)-2)
			for _, f := range fields[2:] {
				members = append(members, string(f))
			}
			moved, err := h.SetMembers(members)
			if err != nil {
				return false, err
			}
			w.WriteString("OK ")
			cs.writeUint(w, int(moved))
			w.WriteString("\r\n")
		default:
			return false, fmt.Errorf("unknown CLUSTER subcommand %q", fields[1])
		}
		return false, nil

	case textwire.CmdEq(verb, "PING"):
		w.WriteString("PONG\r\n")
		return false, nil

	case textwire.CmdEq(verb, "QUIT"):
		w.WriteString("BYE\r\n")
		return true, nil

	default:
		return false, fmt.Errorf("unknown command %q", fields[0])
	}
}
