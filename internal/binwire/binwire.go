// Package binwire is the vantaged binary wire protocol: length-prefixed,
// versioned framing negotiated on a connection's first bytes, sharing the
// listener (and the Service) with the CRLF text protocol. It holds the
// frame layout, the protocol limits, the one rule that decides whether a
// request frame is a framing violation, and the encoders and decoders that
// the node, the cluster peer, pool and proxy, and the load generator all
// use. Of the module it imports only the textwire leaf, so all of them can.
//
// # Negotiation
//
// A binary client opens with the 4-byte preamble
//
//	0x83 'V' 'B' <version>
//
// and the server answers with the same 4 bytes carrying *its* version. The
// magic byte 0x83 has the high bit set, so it can never begin a text verb
// (the text protocol is 7-bit ASCII); conversely no binary preamble parses
// as a command line, so one Peek of the first byte routes the connection
// with zero ambiguity and zero cost to text clients. On a version mismatch
// the server still answers (telling the client what it speaks) and closes.
// A server at its connection cap answers "BUSY\r\n" before negotiation,
// which a binary client recognizes by its non-magic first byte.
//
// # Frames
//
// Every frame is a little-endian u32 length followed by that many bytes.
// Request frames (client -> server) after the length:
//
//	off 0  opcode  u8   GET=1 PUT=2 DEL=3 TOUCH=4 PING=5 TENANT_ADD=6
//	                    TENANT_DEL=7 REG_OP=8 REG_PULL=9 REHOME=10 BMGET=11
//	                    TEXT=12
//	off 1  flags   u8   bit0 (PUT/REHOME): explicit TTL — ttl_ms is
//	                    authoritative, 0 meaning "never expire"; unset:
//	                    service default TTL (REHOME: never expire).
//	                    bit0 (REG_OP): add (set) vs remove (clear)
//	off 2  tlen    u8   tenant-name length
//	off 3  rsvd    u8   must be 0
//	off 4  id      u32  client-chosen, echoed verbatim in the response
//	off 8  ttl_ms  u32  PUT (with flag) / TOUCH TTL in milliseconds
//	off 12 klen    u16  key length
//	off 14 rsvd    u16  must be 0
//	off 16 tenant[tlen] key[klen] value[rest]   (value: PUT only)
//
// Response frames (server -> client) after the length:
//
//	off 0  status  u8   OK=0 MISS=1 ERR=2 SHED=3
//	off 1  opcode  u8   echo of the request opcode
//	off 2  rsvd    u16
//	off 4  id      u32  echo of the request id
//	off 8  payload      GET hit: value; TENANT_ADD: u32 partition;
//	                    REG_OP: u64 local registry version; REG_PULL:
//	                    u64 version, u32 count, count x (u8 len, name);
//	                    BMGET, TEXT: see below; ERR: message text
//
// # BMGET
//
// BMGET (opcode 11) reads N keys of one tenant in one frame. The request
// reuses the fixed header with klen carrying the KEY COUNT (not a byte
// length); flags and ttl_ms must be zero. The body after the tenant name is
// count x (u16 keylen, key bytes), tiling the frame exactly — a truncated
// or overrun key list is a framing violation and closes the connection,
// while an empty list, a count over the batch cap, an unknown tenant or a
// bad key length answer a frame-level ERR and the stream continues. The
// response is one coalesced frame whose OK payload is
//
//	u16 count, count x (u8 status, u32 vlen, value bytes)
//
// in request key order, with per-key status OK (value follows), MISS or
// SHED (vlen 0). The frame-level status is ERR only when the whole batch
// failed (validation, unknown tenant, injected fault); a frame refused by
// the in-flight limits answers OK with every key SHED, so a client handles
// overload per key in one shape.
//
// # TEXT
//
// TEXT (opcode 12) carries one text-protocol command, for the proxy to relay
// what it does not translate. Tenant, key, flags and ttl_ms are empty; the
// value is the command line (at most textwire.MaxLine bytes), an LF, and
// exactly the value block textwire.Block says the line declares, with no
// terminator. The node answers OK with exactly the bytes a text connection
// would have read, ERR lines included. A QUIT, or a PUT declaring more than
// MaxValue, is a framing violation: on a text connection either closes it.
//
// # Cluster frames
//
// REG_OP replicates one tenant registry mutation between peers: the tenant
// field carries the name, flag bit0 picks add vs remove, and the value
// payload is exactly 8 bytes — the origin's registry version as a
// little-endian u64 (klen must be 0). The receiver applies the mutation and
// max-merges the version (service.ApplyRegistryOp), answering OK with its
// own version. REG_PULL (no tenant, no key, no value) returns the
// receiver's full registry snapshot for bootstrap. REHOME is a PUT-shaped
// internal transfer used during key re-homing on membership changes: same
// fields as PUT, but the TTL flag semantics preserve "never expires" (no
// flag means no expiry, never the receiver's default TTL) and the receiver
// counts it in cluster_rehomed_in_keys instead of tenant PUT accounting
// pressure on dashboards. All three are ordinary frames: framing
// violations close the connection, semantic errors answer ERR and the
// stream continues.
//
// A node answers a connection's frames in request order; clients match on
// id regardless, which is what lets a proxy pipeline many clients' frames
// over one backend connection. Violating the framing itself (bad length,
// bad reserved bytes, unknown opcode, a flag the opcode does not define)
// closes the connection — unlike a semantic error, a framing error means
// the byte stream can no longer be trusted. Semantic errors (unknown
// tenant, oversized key) answer ERR on the offending id and the stream
// continues: the length prefix means an error can never desync later
// frames, which is the property the text protocol's PUT-drain bugs had to
// hand-craft. Req.Parse is the framing rule; the node and the proxy both
// call it, so the proxy never forwards a frame a node would close on.
package binwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"vantage/internal/textwire"
)

const (
	// Magic opens the negotiation preamble. >= 0x80 so it can never start
	// a text-protocol verb.
	Magic   = 0x83
	Version = 1

	// ReqHdr and RespHdr are the fixed header sizes after the u32 length
	// prefix.
	ReqHdr  = 16
	RespHdr = 8

	// MaxKey, MaxValue and MaxBatchKeys are the protocol limits, which the
	// text protocol enforces too.
	MaxKey       = 250
	MaxValue     = 1 << 20
	MaxBatchKeys = 1024

	// MaxFrame bounds one request frame: the largest TEXT frame, a line, its
	// LF and a value block. Anything larger is a framing violation.
	MaxFrame = ReqHdr + textwire.MaxLine + 1 + MaxValue

	// MaxResp bounds one response frame a client reads; it only keeps a
	// garbage length field from making a client buffer gigabytes.
	MaxResp = 64 << 20
)

// Request opcodes.
const (
	OpGet       = 1
	OpPut       = 2
	OpDel       = 3
	OpTouch     = 4
	OpPing      = 5
	OpTenantAdd = 6
	OpTenantDel = 7
	OpRegOp     = 8
	OpRegPull   = 9
	OpRehome    = 10
	OpBMGet     = 11
	OpText      = 12
)

// Response statuses, also the per-key statuses of a coalesced BMGET reply.
const (
	StOK   = 0
	StMiss = 1
	StErr  = 2
	StShed = 3
)

const (
	// FlagTTL marks a PUT or REHOME whose ttl_ms field is authoritative.
	FlagTTL = 1 << 0
	// FlagRegAdd distinguishes add from remove on a REG_OP frame.
	FlagRegAdd = 1 << 0
)

var le = binary.LittleEndian

// Preamble opens a client's connection and is the ack of a server of this
// version.
var Preamble = [4]byte{Magic, 'V', 'B', Version}

// ErrValueLen refuses a PUT declaring n > MaxValue bytes, whose block can
// be neither taken nor skipped: the text connection closes after it.
func ErrValueLen(n int) error { return fmt.Errorf("value length %d exceeds maximum %d", n, MaxValue) }

// ErrNotBinary reports a preamble answered without the magic byte: a
// server at its connection cap answers its text BUSY line instead.
var ErrNotBinary = errors.New("binwire: server did not ack the preamble (busy or not speaking binary)")

// Handshake sends the preamble on w and reads the server's ack from r. It
// returns the transport's error, ErrNotBinary, or an error naming the
// server's version when it speaks another.
func Handshake(w io.Writer, r io.Reader) error {
	if _, err := w.Write(Preamble[:]); err != nil {
		return err
	}
	var ack [4]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		return err
	}
	if ack[0] != Magic {
		return ErrNotBinary
	}
	if ack[3] != Version {
		return fmt.Errorf("binwire: server speaks binary v%d, want v%d", ack[3], Version)
	}
	return nil
}

// Accept reads a client's preamble from r, whose first byte is Magic, and
// acks it on w with this server's version. ok is false, and the connection
// should close, when the preamble is malformed or of another version; a
// client of another version gets the ack first, so it learns what the
// server speaks. err is the transport's error.
func Accept(r io.Reader, w io.Writer) (ok bool, err error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return false, err
	}
	if pre[1] != 'V' || pre[2] != 'B' {
		return false, nil
	}
	if _, err := w.Write(Preamble[:]); err != nil {
		return false, err
	}
	return pre[3] == Version, nil
}

// ReqLen reports whether a request frame's length prefix is in range;
// outside it the frame is a framing violation, refused before its body is
// read.
func ReqLen(n int) bool { return n >= ReqHdr && n <= MaxFrame }

// Req is a request frame decoded in place: its slices alias the frame.
type Req struct {
	Op, Flags uint8
	ID, TTLms uint32
	Tenant    []byte
	Key       []byte // nil for BMGET; for TEXT, the command line
	Val       []byte // the bytes after the key; for BMGET, its key list; for TEXT, the value block
	// BMGET only: the declared key count, the keys (reused across Parse
	// calls; left empty over MaxBatchKeys) and the frame-level ERR the batch
	// earns before it executes, "" when none.
	Count    int
	Keys     [][]byte
	BatchErr string
}

// Parse decodes request frame f, the bytes after its length prefix, into r
// and reports whether f is well framed. A false return is a framing
// violation: the stream can no longer be trusted and the connection
// closes. The rules are: length in ReqLen's range, reserved bytes zero, a
// known opcode, no flag the opcode does not define (PING and TENANT_ADD
// are not checked), tenant and key inside the frame, for BMGET a zero
// ttl_ms and a key list that tiles the body exactly, and for TEXT the
// rules of its section above. Parse allocates nothing once r.Keys has
// grown to the batch size.
func (r *Req) Parse(f []byte) bool {
	if !ReqLen(len(f)) || f[3] != 0 || f[14] != 0 || f[15] != 0 {
		return false
	}
	op, tend, kl := f[0], ReqHdr+int(f[2]), int(le.Uint16(f[12:14]))
	if op == 0 || int(op) >= len(opFlags) || f[1]&^opFlags[op] != 0 || tend > len(f) {
		return false
	}
	r.Op, r.Flags = op, f[1]
	r.ID, r.TTLms = le.Uint32(f[4:8]), le.Uint32(f[8:12])
	r.Tenant = f[ReqHdr:tend]
	if op == OpBMGet {
		r.Key, r.Val, r.Count = nil, f[tend:], kl
		return r.TTLms == 0 && r.batch()
	}
	if op == OpText {
		nl := bytes.IndexByte(f[tend:], '\n')
		if tend != ReqHdr || kl != 0 || r.TTLms != 0 || nl < 0 || nl > textwire.MaxLine {
			return false
		}
		r.Key, r.Val = f[tend:tend+nl], f[tend+nl+1:]
		n, ok := textwire.Block(r.Key, MaxValue)
		return ok && len(r.Val) == n
	}
	if tend+kl > len(f) {
		return false
	}
	r.Key, r.Val = f[tend:tend+kl], f[tend+kl:]
	return true
}

// opFlags holds each opcode's defined flag bits; PING and TENANT_ADD do
// not check theirs.
var opFlags = [...]uint8{
	OpGet: FlagTTL, OpPut: FlagTTL, OpDel: FlagTTL, OpTouch: FlagTTL, OpRehome: FlagTTL,
	OpPing: 0xff, OpTenantAdd: 0xff, OpTenantDel: 0, OpRegOp: FlagRegAdd, OpRegPull: 0, OpBMGet: 0, OpText: 0,
}

// batch walks a BMGET key list: it must tile r.Val exactly. The semantic
// checks follow in the node's precedence: an empty list, a count over the
// cap, then any bad key length.
func (r *Req) batch() bool {
	list, badKey := r.Val, false
	r.Keys = r.Keys[:0]
	for i := 0; i < r.Count; i++ {
		if len(list) < 2 || len(list)-2 < int(le.Uint16(list)) {
			return false
		}
		k := list[2 : 2+int(le.Uint16(list))]
		badKey = badKey || len(k) == 0 || len(k) > MaxKey
		if r.Count <= MaxBatchKeys {
			r.Keys = append(r.Keys, k)
		}
		list = list[2+len(k):]
	}
	switch {
	case len(list) != 0:
		return false
	case r.Count == 0:
		r.BatchErr = "empty key list"
	case r.Count > MaxBatchKeys:
		r.BatchErr = "too many keys"
	case badKey:
		r.BatchErr = "bad key length"
	default:
		r.BatchErr = ""
	}
	return true
}

// AppendReq appends one request frame, length prefix included, to dst.
func AppendReq[S ~string | ~[]byte](dst []byte, op, flags uint8, id, ttlMS uint32, tenant, key S, val []byte) []byte {
	dst = le.AppendUint32(dst, uint32(ReqHdr+len(tenant)+len(key)+len(val)))
	dst = le.AppendUint32(append(dst, op, flags, uint8(len(tenant)), 0), id)
	dst = le.AppendUint16(le.AppendUint32(dst, ttlMS), uint16(len(key)))
	dst = append(append(append(dst, 0, 0), tenant...), key...)
	return append(dst, val...)
}

// AppendBMGet appends a BMGET request frame for keys to dst.
func AppendBMGet[S ~string | ~[]byte](dst []byte, id uint32, tenant S, keys []S) []byte {
	start := len(dst)
	dst = AppendReq(dst, OpBMGet, 0, id, 0, tenant, tenant[:0], nil)
	for _, k := range keys {
		dst = AppendKey(dst, k)
	}
	SealBMGet(dst[start:], len(keys))
	return dst
}

// AppendText appends a TEXT request frame carrying line and its block.
func AppendText(dst []byte, id uint32, line, block []byte) []byte {
	start := len(dst)
	dst = append(append(AppendReq(dst, OpText, 0, id, 0, "", "", line), '\n'), block...)
	SetLen(dst[start:])
	return dst
}

// AppendKey appends one (u16 length, key) entry of a BMGET key list.
func AppendKey[S ~string | ~[]byte](dst []byte, key S) []byte {
	return append(le.AppendUint16(dst, uint16(len(key))), key...)
}

// SealBMGet writes the length prefix and key count of BMGET frame f, whose
// key list AppendKey grew after an AppendReq with an empty key.
func SealBMGet(f []byte, count int) {
	SetLen(f)
	le.PutUint16(f[4+12:], uint16(count))
}

// SetLen rewrites frame f's length prefix after its body grew in place.
func SetLen(f []byte) { le.PutUint32(f, uint32(len(f)-4)) }

// SetID rewrites request frame f's id.
func SetID(f []byte, id uint32) { le.PutUint32(f[4+4:], id) }

// TTL returns the flags and ttl_ms field carrying a TTL of ms
// milliseconds; a negative ms carries none. A TTL past the u32 field
// saturates at its maximum (~49.7 days) rather than wrapping.
func TTL(ms int64) (flags uint8, ttlMS uint32) {
	if ms < 0 {
		return 0, 0
	}
	return FlagTTL, uint32(min(ms, math.MaxUint32))
}

// AppendRespHdr appends the length prefix and header of a response frame
// whose payload is n bytes.
func AppendRespHdr(dst []byte, status, op uint8, id uint32, n int) []byte {
	dst = le.AppendUint32(dst, uint32(RespHdr+n))
	return le.AppendUint32(append(dst, status, op, 0, 0), id)
}

// AppendResp appends one whole response frame to dst.
func AppendResp[S ~string | ~[]byte](dst []byte, status, op uint8, id uint32, payload S) []byte {
	return append(AppendRespHdr(dst, status, op, id, len(payload)), payload...)
}

// AppendEntry appends one entry of a coalesced BMGET reply.
func AppendEntry(dst []byte, status uint8, val []byte) []byte {
	return append(le.AppendUint32(append(dst, status), uint32(len(val))), val...)
}

// Resp is one response frame; Payload aliases the buffer it was read into.
type Resp struct {
	Status, Op uint8
	ID         uint32
	Payload    []byte
}

// ReadResp reads one response frame from r into *buf, growing it when the
// frame does not fit. A length outside [RespHdr, MaxResp] is an error.
func ReadResp(r io.Reader, buf *[]byte) (Resp, error) {
	b := *buf
	if cap(b) < RespHdr {
		b = make([]byte, 512)
	}
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return Resp{}, err
	}
	n := int(le.Uint32(b[:4]))
	if n < RespHdr || n > MaxResp {
		return Resp{}, fmt.Errorf("binwire: response frame length %d", n)
	}
	if cap(b) < n {
		b = make([]byte, n)
	}
	b = b[:n]
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return Resp{}, err
	}
	return Resp{Status: b[0], Op: b[1], ID: le.Uint32(b[4:8]), Payload: b[RespHdr:]}, nil
}

// CheckReply validates a coalesced BMGET reply payload that must answer
// want keys and returns its entries, which NextEntry walks: an error when
// the count differs, an entry overruns the payload, or bytes trail the
// last entry.
func CheckReply(payload []byte, want int) ([]byte, error) {
	if len(payload) < 2 || int(le.Uint16(payload)) != want {
		return nil, fmt.Errorf("binwire: BMGET reply does not answer %d keys", want)
	}
	b := payload[2:]
	for i := 0; i < want; i++ {
		if len(b) < 5 || len(b)-5 < int(le.Uint32(b[1:5])) {
			return nil, fmt.Errorf("binwire: BMGET reply truncated at entry %d", i)
		}
		b = b[5+int(le.Uint32(b[1:5])):]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("binwire: BMGET reply has %d trailing bytes", len(b))
	}
	return payload[2:], nil
}

// NextEntry splits the first entry off entries CheckReply accepted,
// returning its status, its value and the entries after it.
func NextEntry(b []byte) (status uint8, val, rest []byte) {
	n := 5 + int(le.Uint32(b[1:5]))
	return b[0], b[5:n], b[n:]
}
