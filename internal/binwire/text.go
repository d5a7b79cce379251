package binwire

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"vantage/internal/textwire"
)

// UnknownTenant is the ERR payload of a data frame that names no tenant the
// node has. A text reply names the tenant instead (UnknownTenantMsg).
const UnknownTenant = "unknown tenant"

// Shed is the ERR message of a text reply to a request an in-flight limit
// refused; a binary reply says it with the SHED status.
const Shed = "SHED server overloaded"

// UnknownTenantMsg is the message that names an unknown tenant: a text ERR
// line carries it, and so do a node's errors.
func UnknownTenantMsg(name string) string { return string(appendUnknownTenant(nil, name)) }

func appendUnknownTenant(dst []byte, name string) []byte {
	return strconv.AppendQuote(append(dst, "service: unknown tenant "...), name)
}

// MaxTenant bounds a tenant name in a request: the frame's tlen is one
// byte. No registered name comes near it.
const MaxTenant = math.MaxUint8

// verbs holds each data command's verb, its field count, 0 when it varies,
// and the ERR message of a line with the wrong one.
var verbs = [...]struct {
	verb  string
	arity int
	usage string
}{
	OpGet:   {"GET", 3, "usage: GET <tenant> <key>"},
	OpPut:   {"PUT", 0, "usage: PUT <tenant> <key> <bytes> [EXPIRE <ms>]"},
	OpDel:   {"DEL", 3, "usage: DEL <tenant> <key>"},
	OpTouch: {"TOUCH", 4, "usage: TOUCH <tenant> <key> <ms>"},
	OpBMGet: {"MGET", 0, "usage: MGET <tenant> <count> <key...>"},
}

// AppendTextReq appends the text command of a GET, PUT, DEL or TOUCH
// request to dst, the text twin of AppendReq (no id: text answers in
// order): its line and, for a PUT, its value block and CRLF. A PUT's TTL
// rides as EXPIRE <ms> only with FlagTTL; TTL gives both codecs one cap.
// DecodeText decodes the line and block back to the same fields.
func AppendTextReq[S ~string | ~[]byte](dst []byte, op, flags uint8, ttlMS uint32, tenant, key S, val []byte) []byte {
	dst = append(append(append(append(append(dst, verbs[op].verb...), ' '), tenant...), ' '), key...)
	switch op {
	case OpTouch:
		dst = strconv.AppendUint(append(dst, ' '), uint64(ttlMS), 10)
	case OpPut:
		dst = strconv.AppendInt(append(dst, ' '), int64(len(val)), 10)
		if flags&FlagTTL != 0 {
			dst = strconv.AppendUint(append(dst, " EXPIRE "...), uint64(ttlMS), 10)
		}
		dst = append(append(dst, "\r\n"...), val...)
	}
	return append(dst, "\r\n"...)
}

// AppendTextMGet appends the MGET line reading keys, the text twin of
// AppendBMGet.
func AppendTextMGet[S ~string | ~[]byte](dst []byte, tenant S, keys []S) []byte {
	dst = strconv.AppendInt(append(append(append(dst, "MGET "...), tenant...), ' '), int64(len(keys)), 10)
	for _, k := range keys {
		dst = append(append(dst, ' '), k...)
	}
	return append(dst, "\r\n"...)
}

// AppendTextResp appends the text reply to a request of opcode op that
// named tenant, given its binary response (status, payload): the text twin
// of AppendResp. A node renders its text replies with it and the proxy maps
// its backends' binary answers with it, so the two send the same bytes. A
// GET hit is a VALUE block, a TEXT frame's payload is the reply verbatim,
// an OK BMGET is the END after its per-key replies, a MISS is MISS, a SHED
// is the shed ERR line and an ERR carries its payload (AppendTextErr).
func AppendTextResp(dst []byte, op, status uint8, payload, tenant []byte) []byte {
	switch status {
	case StOK:
		switch op {
		case OpGet:
			return AppendTextValue(dst, payload)
		case OpPut:
			return append(dst, "STORED\r\n"...)
		case OpDel:
			return append(dst, "DELETED\r\n"...)
		case OpTouch:
			return append(dst, "TOUCHED\r\n"...)
		case OpPing:
			return append(dst, "PONG\r\n"...)
		case OpBMGet:
			return append(dst, "END\r\n"...)
		case OpText:
			return append(dst, payload...)
		}
	case StMiss:
		return append(dst, "MISS\r\n"...)
	case StShed:
		return AppendTextErr(dst, Shed, nil)
	}
	return AppendTextErr(dst, payload, tenant)
}

// AppendTextValue appends the VALUE block of a hit on val.
func AppendTextValue(dst, val []byte) []byte {
	dst = strconv.AppendInt(append(dst, "VALUE "...), int64(len(val)), 10)
	return append(append(append(dst, "\r\n"...), val...), "\r\n"...)
}

// AppendTextErr appends the ERR line of msg. The binary refusal of an
// unknown tenant, UnknownTenant, becomes the line that names tenant.
func AppendTextErr[S ~string | ~[]byte](dst []byte, msg S, tenant []byte) []byte {
	if string(msg) == UnknownTenant {
		// AppendQuote keeps no reference to its string, so the tenant's bytes
		// are quoted in place: a copy would allocate past 32 bytes.
		name := unsafe.String(unsafe.SliceData(tenant), len(tenant))
		return append(appendUnknownTenant(append(dst, "ERR "...), name), "\r\n"...)
	}
	return append(append(append(dst, "ERR "...), msg...), "\r\n"...)
}

// SplitText splits a command line into r's fields, the first half of the
// text protocol's one parser, and returns the length of the value block
// that follows the line on a text connection: a PUT's declared <bytes>, 0
// after any other line. The reader reads that block and hands both to
// DecodeText, so each line is tokenized once.
func (r *Req) SplitText(line []byte) int {
	r.fields, r.split = textwire.SplitFields(line, r.fields[:0]), line
	return blockLen(r.fields)
}

// blockLen is the length of the value block that follows a text line with
// fields f: a PUT's declared <bytes>, 0 after any other line.
func blockLen(f [][]byte) int {
	if len(f) < 4 || !textwire.CmdEq(f[0], "PUT") {
		return 0
	}
	n, _ := textwire.ParseUint(f[3])
	return n
}

// DecodeText decodes the line SplitText last split, and the value block it
// sized, into r and returns the message of the ERR line a node answers
// with, "" when the line decodes. line is the split line or the copy of it
// textwire.ReadBlock returns; a TEXT frame's Parse splits its line as
// SplitText does, so DecodeText(r.Key, r.Val) follows it. With no split
// since the last DecodeText, DecodeText splits line itself. A data command becomes the request its
// frame would carry, under the limits Parse and batch apply to frames: GET,
// DEL, TOUCH (alias EXPIRE) and PUT with their opcode, flags and ttl_ms,
// and MGET as a BMGET with Count and Keys. Any other line is a control
// line: Op is TEXT, Key the line, Val the block and Keys its fields. A
// blank line decodes to Op 0 and has no reply; after an error only the
// message counts. r's slices alias line and block; DecodeText allocates
// only for an error.
func (r *Req) DecodeText(line, block []byte) string {
	f := r.fields
	switch {
	case r.split == nil:
		f = textwire.SplitFields(line, f[:0])
	case len(f) > 0 && &line[0] != &r.split[0]:
		// The block's read moved the line: each field keeps its offset.
		for i, x := range f {
			at := cap(r.split) - cap(x)
			f[i] = line[at : at+len(x)]
		}
	}
	// Field by field: a composite literal would zero and copy all of r.
	r.fields, r.split, r.Op, r.Flags, r.ID, r.TTLms, r.Count, r.Err = f, nil, 0, 0, 0, 0, 0, ""
	r.Tenant, r.Key, r.Val, r.Keys = nil, nil, nil, r.Keys[:0]
	if len(f) == 0 {
		return ""
	}
	switch verb := f[0]; {
	case textwire.CmdEq(verb, "GET"):
		r.Op = OpGet
	case textwire.CmdEq(verb, "DEL"):
		r.Op = OpDel
	case textwire.CmdEq(verb, "TOUCH"), textwire.CmdEq(verb, "EXPIRE"):
		r.Op = OpTouch
	case textwire.CmdEq(verb, "PUT"):
		r.Op = OpPut
	case textwire.CmdEq(verb, "MGET"):
		r.Op = OpBMGet
	default:
		r.Op, r.Key, r.Val, r.Keys = OpText, line, block, f
		return ""
	}
	switch {
	case len(f) > 1 && len(f[1]) > MaxTenant:
		return "bad tenant length"
	case r.Op == OpPut:
		return r.decodePut(f, block)
	case r.Op == OpBMGet:
		return r.decodeMGet(f)
	}
	if len(f) != verbs[r.Op].arity {
		return verbs[r.Op].usage
	}
	r.Tenant, r.Key = f[1], f[2]
	if len(r.Key) > MaxKey {
		return "bad key length"
	}
	if r.Op == OpTouch {
		ms, ok := parseTTL(f[3])
		if !ok {
			return fmt.Sprintf("bad TTL milliseconds %q", f[3])
		}
		r.TTLms = ms
	}
	return ""
}

// decodePut decodes PUT <tenant> <key> <bytes> [EXPIRE <ms>]. Its block was
// read whenever <bytes> parses, so an error never desyncs the stream.
func (r *Req) decodePut(f [][]byte, block []byte) string {
	if len(f) < 4 {
		return verbs[OpPut].usage
	}
	n, ok := textwire.ParseUint(f[3])
	switch {
	case !ok:
		return fmt.Sprintf("bad value length %q", f[3])
	case n > MaxValue:
		return ErrValueLen(n).Error()
	case len(f) != 4 && len(f) != 6:
		return verbs[OpPut].usage
	case len(f[2]) > MaxKey:
		return "key too long"
	case len(block) != n:
		return "short value"
	}
	if len(f) == 6 {
		ms, ok := parseTTL(f[5])
		if !ok || !textwire.CmdEq(f[4], "EXPIRE") {
			return "bad EXPIRE clause (want EXPIRE <ms>)"
		}
		r.Flags, r.TTLms = FlagTTL, ms
	}
	r.Tenant, r.Key, r.Val = f[1], f[2], block
	return ""
}

// decodeMGet decodes MGET <tenant> <count> <key...> into a BMGET.
func (r *Req) decodeMGet(f [][]byte) string {
	if len(f) < 3 {
		return verbs[OpBMGet].usage
	}
	k, ok := textwire.ParseUint(f[2])
	switch {
	case !ok || k < 1 || k > MaxBatchKeys:
		return fmt.Sprintf("bad MGET count %q (max %d)", f[2], MaxBatchKeys)
	case len(f) != 3+k:
		return fmt.Sprintf("MGET count %d does not match %d keys", k, len(f)-3)
	}
	for _, key := range f[3:] {
		if len(key) > MaxKey {
			return "bad key length"
		}
	}
	r.Tenant, r.Keys, r.Count = f[1], f[3:], k
	return ""
}

// parseTTL parses a TTL in milliseconds that fits the u32 ttl_ms field.
func parseTTL(b []byte) (uint32, bool) {
	ms, ok := textwire.ParseUint(b)
	return uint32(ms), ok && ms <= math.MaxUint32
}
