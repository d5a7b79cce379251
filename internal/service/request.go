package service

import (
	"errors"
	"time"

	"vantage/internal/binwire"
	"vantage/internal/hash"
)

// Every data request — GET, PUT, DEL, TOUCH, REHOME and the MGET/BMGET
// batch — takes one admission path, whichever codec read it. The text and
// binary codecs decode a command or frame into a request, hand it to
// Service.serve, and render the verdict in their own wire bytes; the
// in-process API (GetB, PutBTTL, TouchB, DeleteB) runs the same function
// without a server. The gates run in one fixed order, the serving layer's
// version of the paper's degrade-don't-collapse discipline (§3.4):
//
//  1. resolve the tenant: an unknown tenant is answered before anything else;
//  2. make the request's one fault draw (FaultInjector.Fault; a batch draws
//     once, under OpMGet);
//  3. drop: the connection closes without a reply (in process: ignored);
//  4. reserve in-flight slots: the per-tenant limit sheds at once, the
//     global one waits up to InflightWait (in process: no limits);
//  5. sleep an injected delay;
//  6. fail with an injected error;
//
// then the resolved fast path runs (getAt/putAt/deleteAt/touchAt, or getAt
// per key of a batch) and the reservation is released.

// request is one decoded data request. Its slices alias the codec's buffers
// and are only read during the call.
type request struct {
	op     Op
	tenant []byte
	key    []byte
	keys   [][]byte      // OpMGet: the batch's keys, in request order
	val    []byte        // OpPut
	ttl    time.Duration // OpTouch; OpPut when ttlSet
	ttlSet bool          // OpPut: ttl is explicit (0 = never expire), else the default TTL applies
	rehome bool          // OpPut: a key re-homed from a peer, counted in rehomedIn
}

// verdict is what admission and execution made of a request.
type verdict uint8

const (
	outDone          verdict = iota // executed: a hit, a store, a delete, a touch, an answered batch
	outMiss                         // executed: no live entry under the key
	outUnknownTenant                // refused: no such tenant
	outDrop                         // refused: close the connection without a reply
	outShed                         // refused by an in-flight limit
	outFault                        // failed by an injected error
)

// errShed is the error of a request refused by an in-flight limit.
var errShed = errors.New(binwire.Shed)

// errUnknownTenant is the error of a request that names no tenant.
func errUnknownTenant(name string) error { return errors.New(binwire.UnknownTenantMsg(name)) }

// status is the response status of a verdict other than outDrop, and the
// ERR message of a refusal or a failure: the one table of verdict replies,
// which both codecs render and err maps to errors.
func (v verdict) status() (status uint8, msg string) {
	switch v {
	case outDone:
		return binwire.StOK, ""
	case outMiss:
		return binwire.StMiss, ""
	case outShed:
		return binwire.StShed, ""
	case outUnknownTenant:
		return binwire.StErr, binwire.UnknownTenant
	}
	return binwire.StErr, ErrInjected.Error()
}

// err is the error a refused or failed request reports, by its status: nil
// when it executed, and never for outDrop, which has no reply.
func (v verdict) err(tenant []byte) error {
	switch st, msg := v.status(); {
	case st == binwire.StOK || st == binwire.StMiss:
		return nil
	case st == binwire.StShed:
		return errShed
	case msg == binwire.UnknownTenant:
		return errUnknownTenant(string(tenant))
	}
	return ErrInjected
}

// serve admits r through the gates above and executes it. srv supplies the
// drop gate and the in-flight limits; nil for the in-process API. A batch
// reports each key's result to emit, in request order, and only once every
// gate has passed; any other op returns a GET hit's value.
func (s *Service) serve(srv *Server, r *request, emit func(val []byte, hit bool)) (verdict, []byte) {
	t := s.reg.Load().tenants[string(r.tenant)]
	if t == nil {
		return outUnknownTenant, nil
	}
	var f Fault
	if h := s.fault.Load(); h != nil {
		f = h.fi.Fault(r.op, t.name)
	}
	var release func()
	if srv != nil {
		if f.Drop {
			return outDrop, nil
		}
		var ok bool
		if release, ok = srv.beginOpT(t); !ok {
			return outShed, nil
		}
	}
	if f.Delay > 0 {
		s.clk.Sleep(f.Delay)
	}
	v, val := outFault, []byte(nil)
	if !f.Err {
		v, val = s.exec(t, r, emit)
	}
	if release != nil {
		release()
	}
	return v, val
}

// exec runs r's resolved fast path for tenant t.
func (s *Service) exec(t *Tenant, r *request, emit func(val []byte, hit bool)) (verdict, []byte) {
	if r.op == OpMGet {
		for _, key := range r.keys {
			addr := addrOfB(t.part, key)
			emit(s.getAt(t, addr, hash.Mix64(addr), key))
		}
		return outDone, nil
	}
	addr := addrOfB(t.part, r.key)
	mixed := hash.Mix64(addr)
	var val []byte
	found := true
	switch r.op {
	case OpGet:
		val, found = s.getAt(t, addr, mixed, r.key)
	case OpPut:
		ttl := r.ttl
		if !r.ttlSet {
			ttl = s.cfg.DefaultTTL
		}
		s.putAt(t, addr, mixed, r.key, r.val, ttl)
		if r.rehome {
			s.rehomedIn.Add(1)
		}
	case OpDelete:
		found = s.deleteAt(addr, mixed, r.key)
	case OpTouch:
		found = s.touchAt(t, addr, mixed, r.key, r.ttl)
	}
	if !found {
		return outMiss, nil
	}
	return outDone, val
}

// beginOpT reserves the in-flight slots a data request for t needs. It
// returns release (nil when no limit is configured, so the unlimited path
// costs two compares) and ok=false when the request must be shed. The
// per-tenant reservation is taken first and sheds immediately; the global
// reservation waits up to InflightWait (backpressure) before shedding.
func (s *Server) beginOpT(t *Tenant) (release func(), ok bool) {
	if s.cfg.MaxTenantInflight <= 0 {
		t = nil // no per-tenant reservation: release must not decrement
	}
	if t != nil {
		for {
			cur := t.inflight.Load()
			if cur >= int64(s.cfg.MaxTenantInflight) {
				t.shed.Add(1)
				s.svc.requestsShed.Add(1)
				return nil, false
			}
			if t.inflight.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	}
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		default:
			timer := s.svc.clk.NewTimer(s.cfg.InflightWait)
			select {
			case s.sem <- struct{}{}:
				timer.Stop()
			case <-timer.C():
				if t != nil {
					t.inflight.Add(-1)
					t.shed.Add(1)
				}
				s.svc.requestsShed.Add(1)
				return nil, false
			}
		}
	}
	if t == nil && s.sem == nil {
		return nil, true
	}
	return func() {
		if s.sem != nil {
			<-s.sem
		}
		if t != nil {
			t.inflight.Add(-1)
		}
	}, true
}
