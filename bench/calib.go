package main

import (
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The calibration kernel is frozen, benchmark-owned work whose speed tracks
// what the host gives this process right now. It imports nothing from the
// module under test, so no change to the program can move it; a window's
// measured time is scaled by how much slower or faster than on the builder's
// host the kernel ran next to it.
//
// The kernel has three components, because this host's noise does not slow
// every kind of work alike (README, "Host noise"):
//
//   - alu:  a xorshift and a multiply per iteration, all in registers;
//   - mem:  a xorshift, a Go map[string][]byte lookup with a 64 B copy over
//     65 536 keys, and one dependent load from a 32 MiB table;
//   - echo: a 32 B request and a 64 B reply over a loopback TCP connection
//     to a goroutine of the kernel's own (two system calls and one wake-up
//     each way).
//
// Each workload runs the mix that resembles its own resource profile.
//
// Do not edit the kernel or its constants: every recorded number is in
// units of it.
const (
	calibKeys      = 1 << 16
	calibValueLen  = 64
	calibTableLen  = 32 << 20 / 8 // 32 MiB of uint64
	calibTableSeed = 0x9e3779b97f4a7c15
	calibEchoReq   = 32
	calibEchoResp  = 64
)

// calibMix is the shape of one calibration slice: every goroutine runs
// chunks chunks, each of alu, mem and echo iterations of the components.
// Chunks are timed one by one: the slice's total says how fast the host was
// on average, the median chunk how fast it was between its bursts.
type calibMix struct{ chunks, alu, mem, echo int }

// maxChunks bounds calibMix.chunks.
const maxChunks = 1024

// calibTable holds the shared read-only inputs of the mem component.
type calibTable struct {
	keys  []string
	vals  map[string][]byte
	table []uint64
}

func newCalibTable() *calibTable {
	t := &calibTable{
		keys:  make([]string, calibKeys),
		vals:  make(map[string][]byte, calibKeys),
		table: make([]uint64, calibTableLen),
	}
	x := uint64(calibTableSeed)
	for i := range t.keys {
		x = xorshift(x)
		k := "calib-" + strconv.FormatUint(x, 16)
		v := make([]byte, calibValueLen)
		for j := range v {
			v[j] = byte(x >> (uint(j) & 63))
		}
		t.keys[i] = k
		t.vals[k] = v
	}
	for i := range t.table {
		x = xorshift(x)
		t.table[i] = x
	}
	return t
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibState is one goroutine's private kernel state. Every slice restarts
// from the same state, so every slice does identical work.
type calibState struct {
	buf     [calibValueLen]byte
	sink    uint64
	echo    net.Conn // to this goroutine's echo peer; nil when the mix has no echo
	req     [calibEchoReq]byte
	resp    [calibEchoResp]byte
	err     error
	chunk   [maxChunks]int64 // the last slice's chunk times, ns
	typical int64            // their median
}

// run executes one slice.
func (s *calibState) run(t *calibTable, mix calibMix) {
	x := uint64(calibTableSeed)
	sum, idx := uint64(0), uint64(0)
	t0 := time.Now()
	for c := 0; c < mix.chunks; c++ {
		for i := 0; i < mix.alu; i++ {
			x = xorshift(x)
			sum += x * calibTableSeed >> 7
		}
		for i := 0; i < mix.mem; i++ {
			x = xorshift(x)
			copy(s.buf[:], t.vals[t.keys[x&(calibKeys-1)]])
			idx = t.table[(idx+x)&(calibTableLen-1)]
			sum += idx + uint64(s.buf[x&(calibValueLen-1)])
		}
		for i := 0; i < mix.echo && s.err == nil; i++ {
			if _, s.err = s.echo.Write(s.req[:]); s.err == nil {
				_, s.err = io.ReadFull(s.echo, s.resp[:])
			}
		}
		t1 := time.Now()
		s.chunk[c] = int64(t1.Sub(t0))
		t0 = t1
	}
	s.sink = sum
	chunks := s.chunk[:mix.chunks]
	slices.Sort(chunks)
	s.typical = chunks[len(chunks)/2]
}

// echoPeer answers every request on c until c closes.
func echoPeer(c net.Conn) {
	defer c.Close()
	var req [calibEchoReq]byte
	var resp [calibEchoResp]byte
	for {
		if _, err := io.ReadFull(c, req[:]); err != nil {
			return
		}
		if _, err := c.Write(resp[:]); err != nil {
			return
		}
	}
}

// calibrated is what the calibrator needs to know of a workload.
type calibrated interface {
	// threads is how many goroutines the workload keeps busy, which is how
	// many the kernel runs on.
	threads() int
	// calib is the calibration slice: the kernel mix that resembles the
	// workload's resource profile, sized to 10-20 % of a window, and c0, the
	// median time in ns such a slice took between this workload's windows
	// on the builder's host.
	calib() (mix calibMix, c0 float64)
}

// calibrator runs kernel slices on a fixed set of goroutines, as many as the
// workload keeps busy, and times them.
type calibrator struct {
	tab    *calibTable
	mix    calibMix
	c0ns   float64
	states []calibState
	start  []chan struct{}
	done   sync.WaitGroup
	exited sync.WaitGroup
}

// newCalibrator starts threads-1 helper goroutines (the caller's goroutine is
// the first runner) and, when the mix has an echo component, one echo peer
// per runner.
func newCalibrator(w calibrated) (*calibrator, error) {
	mix, c0 := w.calib()
	if mix.chunks < 1 || mix.chunks > maxChunks {
		panic("calibrator: chunk count out of range")
	}
	c := &calibrator{tab: newCalibTable(), mix: mix, c0ns: c0, states: make([]calibState, w.threads())}
	for i := range c.states {
		s := &c.states[i]
		if mix.echo > 0 {
			if err := c.connectEcho(s); err != nil {
				c.close()
				return nil, err
			}
		}
		if i == 0 {
			continue
		}
		ch := make(chan struct{})
		c.start = append(c.start, ch)
		c.exited.Add(1)
		go func() {
			defer c.exited.Done()
			for range ch {
				s.run(c.tab, c.mix)
				c.done.Done()
			}
		}()
	}
	// A process's first slice faults the table in and runs up to twice as
	// long as the second: it must not calibrate anything.
	c.slice()
	return c, nil
}

// connectEcho gives s a loopback connection to an echo peer of its own.
func (c *calibrator) connectEcho(s *calibState) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	if s.echo, err = net.Dial("tcp", lis.Addr().String()); err != nil {
		return err
	}
	peer, err := lis.Accept()
	if err != nil {
		return err
	}
	c.exited.Add(1)
	go func() {
		defer c.exited.Done()
		echoPeer(peer)
	}()
	return nil
}

// sliceTimes is what one calibration slice took: its wall time, and what it
// would have taken had every chunk run at the median chunk's speed. On a host
// without bursts the two agree.
type sliceTimes struct{ total, typical float64 }

// slice runs one slice on every goroutine.
func (c *calibrator) slice() sliceTimes {
	t0 := time.Now()
	c.done.Add(len(c.start))
	for _, ch := range c.start {
		ch <- struct{}{}
	}
	c.states[0].run(c.tab, c.mix)
	c.done.Wait()
	total := time.Since(t0)
	var typical int64
	for i := range c.states {
		typical += c.states[i].typical
	}
	return sliceTimes{float64(total), float64(typical) * float64(c.mix.chunks) / float64(len(c.states))}
}

// sample runs slices for at least d and appends their totals, in
// nanoseconds, to totals: the host's speed around something longer than a
// window.
func (c *calibrator) sample(d time.Duration, totals []float64) []float64 {
	for t0, n := time.Now(), 0; n == 0 || time.Since(t0) < d; n++ {
		totals = append(totals, c.slice().total)
	}
	return totals
}

// c0 is the reference duration of one slice in nanoseconds.
func (c *calibrator) c0() float64 { return c.c0ns }

// err reports a broken echo connection; slices after one are short and
// every calibrated number is void.
func (c *calibrator) err() error {
	for i := range c.states {
		if c.states[i].err != nil {
			return c.states[i].err
		}
	}
	return nil
}

// close stops the helper goroutines and the echo peers and waits for them.
func (c *calibrator) close() {
	for _, ch := range c.start {
		close(ch)
	}
	for i := range c.states {
		if c.states[i].echo != nil {
			c.states[i].echo.Close()
		}
	}
	c.exited.Wait()
}
