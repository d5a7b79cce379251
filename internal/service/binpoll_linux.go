//go:build linux

// The Linux binary-connection event loop: one goroutine multiplexes every
// negotiated binary connection through epoll (level-triggered), so 10k
// idle connections cost their fds plus one map entry each instead of a
// goroutine and two pooled 16 KiB buffers each. The poller thread reads
// and decodes frames out of a single shared 64 KiB buffer into pooled
// requests; the per-shard workers execute and write responses directly to
// the fd (coalesced under the connection's write mutex), arming EPOLLOUT
// only when a socket buffer fills.
//
// Ownership discipline: the poller owns every fd it registers — the
// accept-loop's net.Conn is dup'd via File() and closed at attach, and
// only the poller thread ever releases the dup. A worker that hits a write
// error requests the close through the wake pipe instead of closing the fd
// itself; closing from two threads could race a kernel fd reuse into the
// poller reading on behalf of a dead connection. Lock order is always
// binConn.wmu -> binPoller.mu, never the reverse.
//
// Deadlines: with IdleTimeout or WriteTimeout configured, epoll_wait runs
// with a 50 ms tick and the poller sweeps connection timestamps against
// the service clock — the injected clock, so fake-clock tests can expire
// windows; only the sweep cadence is wall-clock. Idle reaping is per
// completed frame, mirroring the text protocol's per-command-line window:
// a client dribbling bytes that never finish a frame is reaped all the
// same.

package service

import (
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

type binPoller struct {
	srv   *Server
	epfd  int
	ctl   *os.File        // pollable wrapper around epfd; owns it after construction
	rc    syscall.RawConn // ctl's raw conn: parks the loop on the runtime netpoller
	wakeR int
	wakeW int

	mu      sync.Mutex
	conns   map[int]*binConn
	closeQ  []*binConn
	stopped bool

	lastSweep int64 // unix ns of the last deadline sweep (poller thread only)
}

// newBinPoller starts the event loop, or returns nil when the kernel
// refuses (the caller falls back to the goroutine transport).
//
// The loop does NOT block in a raw epoll_wait syscall. A goroutine stuck in
// a blocking syscall is invisible to the Go scheduler: every readiness event
// then pays a kernel thread wake plus an M-to-P handoff to get back into Go
// code, which measures ~15x worse round-trip latency than the text
// protocol's netpoller wake on a small box. Instead the epoll fd itself is
// made pollable (epoll fds nest: an epfd reports EPOLLIN when its interest
// set has ready events) and wrapped in an os.File, so the loop waits for
// readiness via RawConn.Read — parking on the runtime netpoller exactly the
// way a blocked conn.Read does, and waking through the scheduler's native
// path. Each wake then drains events with a non-blocking EpollWait.
func newBinPoller(srv *Server) *binPoller {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil
	}
	// Nonblocking before os.NewFile, so the file registers with the runtime
	// netpoller (blocking fds get a non-pollable File).
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		return nil
	}
	ctl := os.NewFile(uintptr(epfd), "binpoll-epoll")
	rc, err := ctl.SyscallConn()
	if err != nil {
		ctl.Close()
		return nil
	}
	// A non-pollable wrapper would turn RawConn.Read into an error loop;
	// deadline support is only present on netpoller-registered files, so use
	// it as the pollability probe.
	if err := ctl.SetReadDeadline(time.Time{}); err != nil {
		ctl.Close()
		return nil
	}
	var pipefds [2]int
	if err := syscall.Pipe2(pipefds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		ctl.Close()
		return nil
	}
	p := &binPoller{
		srv:   srv,
		epfd:  epfd,
		ctl:   ctl,
		rc:    rc,
		wakeR: pipefds[0],
		wakeW: pipefds[1],
		conns: make(map[int]*binConn),
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		ctl.Close()
		syscall.Close(p.wakeR)
		syscall.Close(p.wakeW)
		return nil
	}
	srv.wg.Add(1)
	go p.loop()
	return p
}

func (p *binPoller) wakeup() {
	var b [1]byte
	syscall.Write(p.wakeW, b[:])
}

// stop asks the loop to close every connection and exit. Idempotent.
func (p *binPoller) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.wakeup()
}

// attach transfers tc to the poller. A non-nil error means ownership was
// NOT taken and the caller may fall back to another transport; after the
// dup succeeds the poller owns the connection and any later failure is
// resolved internally by closing it (returning nil either way).
func (p *binPoller) attach(tc *net.TCPConn, c *binConn, leftover []byte) error {
	p.mu.Lock()
	stopped := p.stopped
	p.mu.Unlock()
	if stopped {
		return errPollerDown
	}
	f, err := tc.File()
	if err != nil {
		return err
	}
	fd := int(f.Fd())
	if err := syscall.SetNonblock(fd, true); err != nil {
		f.Close()
		return err
	}
	c.f, c.fd = f, fd
	// The dup owns the connection now: release the accept loop's net.Conn
	// and its s.conns entry. binEpoll keeps the connection counted toward
	// MaxConns.
	s := p.srv
	s.mu.Lock()
	delete(s.conns, tc)
	s.mu.Unlock()
	tc.Close()
	s.binEpoll.Add(1)
	c.lastActive = s.svc.clk.Now().UnixNano()
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		c.dying.Store(true)
		c.closed.Store(true)
		f.Close()
		s.binEpoll.Add(-1)
		s.svc.binConns.Add(-1)
		return nil // owned and closed; no fallback
	}
	p.conns[fd] = c
	p.mu.Unlock()
	// Feed pipelined pre-attach bytes before registering for events, so
	// the poller thread can never decode the same connection concurrently.
	// Workers may already flush responses straight to the fd; only the
	// EPOLLOUT arming needs registration, which armWriteLocked defers via
	// wantW until the ADD below.
	if len(leftover) > 0 {
		if _, err := s.binFeed(c, leftover); err != nil {
			p.closeConn(c, false)
			return nil
		}
	}
	c.wmu.Lock()
	events := uint32(syscall.EPOLLIN | syscall.EPOLLRDHUP)
	if c.wantW {
		events |= syscall.EPOLLOUT
	}
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd)}
	regErr := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
	c.registered = regErr == nil
	c.wmu.Unlock()
	if regErr != nil {
		p.closeConn(c, false)
	}
	return nil
}

func (p *binPoller) loop() {
	s := p.srv
	defer s.wg.Done()
	events := make([]syscall.EpollEvent, 128)
	buf := make([]byte, 64<<10)
	sweeping := s.cfg.IdleTimeout > 0 || s.cfg.WriteTimeout > 0
	// Built once: a closure per wake would be one heap object per wake.
	var n int
	var werr error
	drain := func(fd uintptr) bool {
		n, werr = syscall.EpollWait(int(fd), events, 0)
		if werr == syscall.EINTR {
			n, werr = 0, nil
			return true // retry from the top without parking
		}
		// Park on the netpoller only when the set is drained; any event
		// arriving after this check edges the epfd again and readiness
		// sticks, so no wakeup can be lost.
		return n > 0 || werr != nil
	}
	for {
		if sweeping {
			// The deadline sweep needs a tick even when no events arrive;
			// wall-clock pacing only, timestamps still come from the service
			// clock (see sweepDeadlines).
			p.ctl.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		}
		n, werr = 0, nil
		rerr := p.rc.Read(drain)
		if werr != nil {
			return // epfd gone; only happens after stop
		}
		if rerr != nil && !errors.Is(rerr, os.ErrDeadlineExceeded) {
			// ctl was closed under us (stop already ran its cleanup).
			return
		}
		for i := 0; i < n; i++ {
			ev := &events[i]
			fd := int(ev.Fd)
			if fd == p.wakeR {
				p.drainWake(buf)
				continue
			}
			p.mu.Lock()
			c := p.conns[fd]
			p.mu.Unlock()
			if c == nil {
				continue
			}
			if ev.Events&syscall.EPOLLOUT != 0 {
				p.writable(c)
			}
			if ev.Events&(syscall.EPOLLIN|syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
				p.readable(c, buf)
			}
		}
		if p.runDeferred() {
			return
		}
		if sweeping {
			p.sweepDeadlines()
		}
	}
}

func (p *binPoller) drainWake(buf []byte) {
	for {
		n, err := syscall.Read(p.wakeR, buf[:64])
		if n <= 0 || err != nil {
			return
		}
	}
}

// runDeferred processes worker-requested closes and, after stop, closes
// everything and releases the poller's fds. Returns true when the loop
// must exit.
func (p *binPoller) runDeferred() bool {
	p.mu.Lock()
	q := p.closeQ
	p.closeQ = nil
	stopped := p.stopped
	p.mu.Unlock()
	for _, c := range q {
		p.closeConn(c, false)
	}
	if !stopped {
		return false
	}
	p.mu.Lock()
	doomed := make([]*binConn, 0, len(p.conns))
	for _, c := range p.conns {
		doomed = append(doomed, c)
	}
	p.mu.Unlock()
	for _, c := range doomed {
		p.closeConn(c, false)
	}
	p.ctl.Close() // closes epfd and deregisters it from the netpoller
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
	return true
}

// readable drains the socket into the shared buffer and feeds the frame
// decoder. Bounded spins per event keep one hot connection from starving
// the rest; level-triggered epoll re-reports whatever is left.
func (p *binPoller) readable(c *binConn, buf []byte) {
	for spins := 0; spins < 4; spins++ {
		n, err := syscall.Read(c.fd, buf)
		if n > 0 {
			frames, ferr := p.srv.binFeed(c, buf[:n])
			if ferr != nil {
				p.closeConn(c, false)
				return
			}
			if frames > 0 {
				c.lastActive = p.srv.svc.clk.Now().UnixNano()
			}
		}
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return
		case err != nil || n == 0:
			p.closeConn(c, false) // hard error or EOF
			return
		}
		if n < len(buf) {
			return
		}
	}
}

// writable re-drives a connection whose flush previously filled the socket
// buffer.
func (p *binPoller) writable(c *binConn) {
	c.wmu.Lock()
	if c.closed.Load() {
		c.wmu.Unlock()
		return
	}
	c.wantW = false
	c.wantWSince.Store(0)
	c.pollerFlushLocked()
	if !c.wantW && c.registered {
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP, Fd: int32(c.fd)}
		syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, c.fd, &ev)
	}
	c.wmu.Unlock()
}

// sweepDeadlines reaps connections past their idle window (no completed
// frame for IdleTimeout) or stuck in an EPOLLOUT wait past WriteTimeout.
// Timestamps come from the service clock; the sweep itself is paced by the
// epoll tick.
func (p *binPoller) sweepDeadlines() {
	s := p.srv
	now := s.svc.clk.Now().UnixNano()
	if p.lastSweep != 0 && now-p.lastSweep < int64(25*time.Millisecond) {
		return
	}
	p.lastSweep = now
	idle := int64(s.cfg.IdleTimeout)
	wt := int64(s.cfg.WriteTimeout)
	var doomed []*binConn
	p.mu.Lock()
	for _, c := range p.conns {
		if idle > 0 && now-c.lastActive >= idle {
			doomed = append(doomed, c)
			continue
		}
		if wt > 0 {
			if since := c.wantWSince.Load(); since != 0 && now-since >= wt {
				doomed = append(doomed, c)
			}
		}
	}
	p.mu.Unlock()
	for _, c := range doomed {
		p.closeConn(c, true)
	}
}

// closeConn releases one connection exactly once: drop the map entry,
// deregister, close the dup, settle the gauges. The map delete MUST happen
// before f.Close() frees the fd number: a concurrent attach on a handler
// goroutine can dup the freed number immediately and insert its own
// p.conns[fd] — a late delete would remove the newcomer, leaving it
// registered in epoll but untracked (never read, never swept). Only ever
// runs on the poller thread (workers go through pollerRequestClose), so
// the fd cannot be reused under a concurrent poller read.
func (p *binPoller) closeConn(c *binConn, timeout bool) {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.dying.Store(true)
	p.mu.Lock()
	delete(p.conns, c.fd)
	p.mu.Unlock()
	c.wmu.Lock()
	if c.registered {
		syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, c.fd, nil)
		c.registered = false
	}
	c.f.Close()
	c.wmu.Unlock()
	p.srv.binEpoll.Add(-1)
	p.srv.svc.binConns.Add(-1)
	if timeout {
		p.srv.svc.deadlineCloses.Add(1)
	}
}

// pollerRequestClose queues a close for the poller thread. Safe under
// c.wmu (lock order wmu -> p.mu).
func (c *binConn) pollerRequestClose() {
	p := c.srv.binPoll.Load()
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.stopped {
		p.closeQ = append(p.closeQ, c)
	}
	p.mu.Unlock()
	p.wakeup()
}

// pollerFlushLocked writes c.out to the fd, keeping any unwritable tail
// and arming EPOLLOUT for it. Caller holds c.wmu.
func (c *binConn) pollerFlushLocked() {
	if c.wantW || c.dying.Load() || c.closed.Load() {
		return
	}
	b := c.out
	for len(b) > 0 {
		n, err := syscall.Write(c.fd, b)
		if n > 0 {
			b = b[n:]
		}
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			break
		}
		if err != nil {
			c.out = c.out[:0]
			c.abort()
			return
		}
	}
	if len(b) == 0 {
		c.out = c.out[:0]
		if cap(c.out) > 1<<20 {
			c.out = nil
		}
		return
	}
	c.out = append(c.out[:0], b...) // overlapping forward move is safe
	c.wantW = true
	c.wantWSince.Store(c.srv.svc.clk.Now().UnixNano())
	c.armWriteLocked()
}

// armWriteLocked adds EPOLLOUT to the connection's interest set. Before
// registration (attach still feeding pre-attach bytes) the wantW flag
// alone is enough: attach includes EPOLLOUT in its ADD. Caller holds wmu.
func (c *binConn) armWriteLocked() {
	if !c.registered {
		return
	}
	p := c.srv.binPoll.Load()
	if p == nil {
		return
	}
	ev := syscall.EpollEvent{
		Events: uint32(syscall.EPOLLIN | syscall.EPOLLRDHUP | syscall.EPOLLOUT),
		Fd:     int32(c.fd),
	}
	syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, c.fd, &ev)
}
