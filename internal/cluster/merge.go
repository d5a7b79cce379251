package cluster

import (
	"sync"
	"sync/atomic"

	"vantage/internal/binwire"
)

// The proxy's multi-key core: one owner split (scatter), one merge (bmMerge)
// and one renderer, shared by the text MGET and the binary BMGET fronts. A
// client batch splits by ring owner into per-owner BMGET sub-frames; each
// owner's coalesced answer is kept verbatim in that owner's arena, and the
// last answer to land renders the batch in the client's key order by walking
// the arenas. Nothing here allocates per key or per batch in steady state:
// the split state belongs to the client session, merges are pooled, and
// arenas are reused.

// poolKeepBuf is the largest reusable buffer kept across uses; one huge
// response must not pin its buffer for a connection's or the pool's
// lifetime.
const poolKeepBuf = 1 << 20

// keep empties b for reuse, dropping it when it outgrew poolKeepBuf.
func keep(b []byte) []byte {
	if cap(b) > poolKeepBuf {
		return nil
	}
	return b[:0]
}

// bmSub is one ring member's share of a split batch. Only the goroutine
// delivering that member's answer writes it.
type bmSub struct {
	n       int    // keys of the batch this member owns; 0: not involved
	pos     int    // render cursor into arena
	shed    bool   // the whole sub-batch was shed
	hasShed bool   // some entry carries a per-key SHED
	failed  bool   // the sub-batch failed at frame level,
	err     []byte // with this message
	arena   []byte // the member's entries (u8 status, u32 vlen, value), validated
}

// bmMerge re-merges the per-owner sub-responses of a split batch into one
// response in the client's key order. A frame-level ERR from any owner wins
// over all per-key results, matching the node's own whole-batch failure
// semantics.
//
// Pooled. Ownership: the session's reading goroutine fills owner and subs[].n
// before the first sub-frame is routed; from then on each sub is touched only
// by the delivery of that member's answer, and once remain reaches zero
// nobody but the finisher — the deliverer whose absorb made that decrement —
// may touch the merge: it renders, and render recycles.
type bmMerge struct {
	id     uint32 // binary front: the client's request id
	seq    uint64 // text front: response-ordering slot
	t0     int64  // submit time when latency tracking is on
	remain atomic.Int32
	owner  []int32 // per client key: ring member index
	subs   []bmSub // per ring member
}

var mergePool = sync.Pool{New: func() any { return new(bmMerge) }}

// scatter is a client session's reusable owner-split state. Reading
// goroutine only.
type scatter struct {
	m   *bmMerge
	sub [][]byte // per ring member: the BMGET sub-frame under construction
}

// begin starts splitting one client batch.
func (sc *scatter) begin(members int, id uint32, seq uint64, t0 int64) {
	m := mergePool.Get().(*bmMerge)
	m.id, m.seq, m.t0, m.owner = id, seq, t0, m.owner[:0]
	if cap(m.subs) < members {
		m.subs = make([]bmSub, members)
	}
	m.subs = m.subs[:members]
	if len(sc.sub) < members {
		sc.sub = make([][]byte, members)
	}
	sc.m = m
}

// add appends the batch's next key to the sub-frame of its owner, ring
// member o.
func (sc *scatter) add(o int32, tenant, key []byte) {
	sc.m.owner = append(sc.m.owner, o)
	sb, f := &sc.m.subs[o], sc.sub[o]
	if sb.n == 0 {
		f = binwire.AppendReq(f[:0], binwire.OpBMGet, 0, 0, 0, tenant, nil, nil)
	}
	sb.n++
	sc.sub[o] = binwire.AppendKey(f, key)
}

// send scatters the sub-frames; their answers come back to the session.
func (s *sess) send() {
	sc := &s.sc
	m, owners := sc.m, int32(0)
	for o, f := range sc.sub {
		if len(f) > 0 {
			owners++
			binwire.SealBMGet(f, m.subs[o].n)
		}
	}
	m.remain.Store(owners)
	// From the first route on, a dead backend's synthesized answer can finish
	// and recycle the merge on this very goroutine: the loop reads only the
	// session's own scratch.
	for o, f := range sc.sub {
		if len(f) > 0 {
			sc.sub[o] = f[:0]
			s.route(pend{m: m, sub: int32(o)}, int32(o), f)
		}
	}
}

// absorb folds member o's answer into the merge and reports whether it was
// the last one outstanding — the caller is then the finisher.
func (m *bmMerge) absorb(o int32, status uint8, payload []byte) bool {
	sb := &m.subs[o]
	switch status {
	case binwire.StOK:
		sb.failed = !sb.fill(payload)
	case binwire.StErr:
		sb.failed, sb.err = true, append(sb.err[:0], payload...)
	case binwire.StShed:
		// A node never sheds a whole BMGET frame (sheds are per-key), but a
		// synthesized or future status maps to per-key sheds here.
		sb.shed = true
	default:
		sb.failed, sb.err = true, append(sb.err[:0], "backend sent unexpected BMGET status"...)
	}
	return m.remain.Add(-1) == 0
}

// fill validates one member's coalesced payload and keeps its entries. It
// reports false, with the message in err, on a malformed payload.
func (sb *bmSub) fill(payload []byte) bool {
	entries, err := binwire.CheckReply(payload, sb.n)
	if err != nil {
		sb.err = append(sb.err[:0], "backend sent a malformed BMGET reply"...)
		return false
	}
	for b := entries; len(b) > 0; {
		var st uint8
		st, _, b = binwire.NextEntry(b)
		sb.hasShed = sb.hasShed || st == binwire.StShed
	}
	sb.arena = append(sb.arena[:0], entries...)
	return true
}

// render appends the finished merge to dst — the text MGET reply (per-key
// VALUE/MISS blocks plus END; a single ERR line and no END when any owner
// failed or shed, like a node's own whole-batch failure), whose ERR line
// names tenant as a node's does, or the coalesced BMGET response frame —
// and recycles the merge. Finisher only.
func (m *bmMerge) render(dst []byte, text bool, tenant []byte) []byte {
	defer m.recycle()
	size, shed := 2, false
	for i := range m.subs {
		sb := &m.subs[i]
		if sb.failed {
			if text {
				return binwire.AppendTextErr(dst, sb.err, tenant)
			}
			return binwire.AppendResp(dst, binwire.StErr, binwire.OpBMGet, m.id, sb.err)
		}
		shed = shed || sb.shed || sb.hasShed
		if sb.shed {
			size += 5 * sb.n
		} else {
			size += len(sb.arena)
		}
	}
	if text && shed {
		return binwire.AppendTextErr(dst, binwire.Shed, nil)
	}
	if !text {
		dst = binwire.AppendRespHdr(dst, binwire.StOK, binwire.OpBMGet, m.id, size)
		dst = le.AppendUint16(dst, uint16(len(m.owner)))
	}
	for _, o := range m.owner {
		sb, st, val := &m.subs[o], uint8(binwire.StShed), []byte(nil)
		if !sb.shed {
			var rest []byte
			st, val, rest = binwire.NextEntry(sb.arena[sb.pos:])
			sb.pos = len(sb.arena) - len(rest)
		}
		switch {
		case !text:
			dst = binwire.AppendEntry(dst, st, val)
		case st == binwire.StOK:
			dst = binwire.AppendTextValue(dst, val)
		default:
			dst = append(dst, "MISS\r\n"...)
		}
	}
	if text {
		dst = append(dst, "END\r\n"...)
	}
	return dst
}

func (m *bmMerge) recycle() {
	for i := range m.subs {
		m.subs[i] = bmSub{arena: keep(m.subs[i].arena), err: keep(m.subs[i].err)}
	}
	mergePool.Put(m)
}
