package service

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vantage/internal/hash"
)

// Fault injection mirrors, at the serving layer, the measurement discipline
// Vantage applies to the cache itself: the interesting behavior is what the
// system does when demand exceeds what it can serve, so the failure paths
// must be drivable on demand. A FaultInjector is consulted once per data
// request, at the one admission point every codec and the in-process API
// share (Service.serve in request.go), and its Fault for that request is
// applied in gate order: a drop closes the serving connection (the
// in-process API ignores drops), a delay is slept once the request holds its
// in-flight slots, and an error fails it with ErrInjected. An MGET or BMGET
// batch is one request under OpMGet. Chaos tests and the load generator's
// -chaos mode install one to force every degradation branch.

// Op identifies a data operation for fault injection.
type Op uint8

const (
	OpGet Op = iota
	OpPut
	OpDelete
	OpMGet
	OpTouch
)

// String returns the lower-case operation name.
func (op Op) String() string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "del"
	case OpMGet:
		return "mget"
	case OpTouch:
		return "touch"
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// parseOp is the inverse of Op.String.
func parseOp(s string) (Op, bool) {
	switch strings.ToLower(s) {
	case "get":
		return OpGet, true
	case "put":
		return OpPut, true
	case "del", "delete":
		return OpDelete, true
	case "mget":
		return OpMGet, true
	case "touch", "expire":
		return OpTouch, true
	}
	return 0, false
}

// Fault is the injected action for one operation. The zero Fault is "no
// fault". At most one of Err and Drop is set by the built-in plan; Delay may
// accompany either.
type Fault struct {
	// Delay is slept before the operation executes.
	Delay time.Duration
	// Err fails the operation with ErrInjected (an "ERR FAULT injected"
	// reply on the wire; the connection stays usable).
	Err bool
	// Drop closes the connection without a reply. Only meaningful at the
	// protocol layer; the in-process API ignores it.
	Drop bool
}

// FaultInjector decides, per operation, whether to inject a fault.
// Implementations must be safe for concurrent use.
type FaultInjector interface {
	Fault(op Op, tenant string) Fault
}

// ErrInjected is the error returned by service operations failed by a fault
// injector.
var ErrInjected = errors.New("FAULT injected")

// FaultPlan is the built-in seeded FaultInjector: each matching operation
// (an MGET or BMGET batch is one) makes one uniform draw from a
// deterministic sequence (SplitMix64 over Seed and a call counter) and the
// draw is partitioned into drop / error / delay bands. Runs with the same seed and the same operation interleaving
// inject the same faults, so chaos findings reproduce.
type FaultPlan struct {
	// Seed fixes the draw sequence.
	Seed uint64
	// DropRate, ErrRate and DelayRate are per-operation probabilities in
	// [0,1]; their sum must not exceed 1.
	DropRate, ErrRate, DelayRate float64
	// Delay is the sleep applied when a delay fault fires.
	Delay time.Duration
	// Ops restricts injection to these operations (nil = all).
	Ops map[Op]bool
	// Tenants restricts injection to these tenant names (nil = all).
	Tenants map[string]bool

	seq atomic.Uint64
}

// Fault implements FaultInjector.
func (p *FaultPlan) Fault(op Op, tenant string) Fault {
	if p.Ops != nil && !p.Ops[op] {
		return Fault{}
	}
	if p.Tenants != nil && !p.Tenants[tenant] {
		return Fault{}
	}
	// One draw per call, uniform in [0,1): the top 53 bits of a SplitMix64
	// output over (seed, sequence number).
	u := float64(hash.Mix64(p.Seed^p.seq.Add(1))>>11) / (1 << 53)
	switch {
	case u < p.DropRate:
		return Fault{Drop: true}
	case u < p.DropRate+p.ErrRate:
		return Fault{Err: true}
	case u < p.DropRate+p.ErrRate+p.DelayRate:
		return Fault{Delay: p.Delay}
	}
	return Fault{}
}

// ParseFaultSpec parses a fault-injection spec of comma-separated key=value
// terms into a FaultPlan:
//
//	err=<p>          error-fault probability
//	drop=<p>         connection-drop probability
//	delay=<p>:<dur>  delay probability and duration (e.g. delay=0.05:2ms)
//	ops=a|b          restrict to operations (get, put, del, mget, touch)
//	tenants=a|b      restrict to tenant names
//	seed=<n>         draw-sequence seed (default 1)
//
// Example: "err=0.01,drop=0.001,delay=0.05:2ms,ops=get|put,seed=7".
//
// The parser rejects the specs that would silently corrupt the draw bands:
// a repeated key ("err=0.1,err=0.9" — the two bands would overlap in the
// caller's intent but only the last would exist), NaN rates (every
// comparison against a band edge is false, so NaN slips through both the
// [0,1] check and the sum check and then matches no band), empty
// ops/tenants lists or empty tenant names (a band that can never match is
// a spec bug, not a no-op), and rates whose sum exceeds 1 (the bands are
// stacked sub-intervals of [0,1)).
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	p := &FaultPlan{Seed: 1}
	seen := make(map[string]bool, 4)
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return nil, fmt.Errorf("service: fault spec term %q is not key=value", term)
		}
		if seen[key] {
			return nil, fmt.Errorf("service: fault spec key %q given twice (bands would overlap)", key)
		}
		seen[key] = true
		switch key {
		case "err", "drop":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(r) || r < 0 || r > 1 {
				return nil, fmt.Errorf("service: bad %s rate %q", key, val)
			}
			if key == "err" {
				p.ErrRate = r
			} else {
				p.DropRate = r
			}
		case "delay":
			rs, ds, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("service: delay term %q wants <p>:<duration>", val)
			}
			r, err := strconv.ParseFloat(rs, 64)
			if err != nil || math.IsNaN(r) || r < 0 || r > 1 {
				return nil, fmt.Errorf("service: bad delay rate %q", rs)
			}
			d, err := time.ParseDuration(ds)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("service: bad delay duration %q", ds)
			}
			p.DelayRate, p.Delay = r, d
		case "ops":
			if val == "" {
				return nil, fmt.Errorf("service: empty ops list in fault spec")
			}
			p.Ops = make(map[Op]bool)
			for _, name := range strings.Split(val, "|") {
				op, ok := parseOp(name)
				if !ok {
					return nil, fmt.Errorf("service: unknown op %q in fault spec", name)
				}
				p.Ops[op] = true
			}
		case "tenants":
			if val == "" {
				return nil, fmt.Errorf("service: empty tenants list in fault spec")
			}
			p.Tenants = make(map[string]bool)
			for _, name := range strings.Split(val, "|") {
				if name == "" {
					return nil, fmt.Errorf("service: empty tenant name in fault spec %q", val)
				}
				p.Tenants[name] = true
			}
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("service: bad fault seed %q", val)
			}
			p.Seed = n
		default:
			return nil, fmt.Errorf("service: unknown fault spec key %q", key)
		}
	}
	if sum := p.DropRate + p.ErrRate + p.DelayRate; sum > 1 {
		return nil, fmt.Errorf("service: fault rates sum to %g > 1", sum)
	}
	return p, nil
}

// faultHolder wraps the interface so it can live behind an atomic.Pointer.
type faultHolder struct{ fi FaultInjector }

// SetFaultInjector installs (or, with nil, removes) the service's fault
// injector. Safe to call while serving; the steady-state cost of an
// uninstalled injector is one atomic load per operation.
func (s *Service) SetFaultInjector(fi FaultInjector) {
	if fi == nil {
		s.fault.Store(nil)
		return
	}
	s.fault.Store(&faultHolder{fi: fi})
}
