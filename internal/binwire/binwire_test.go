package binwire

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"vantage/internal/textwire"
)

// rule is one row of the framing table: a request frame (without its
// length prefix), whether Parse accepts it, and for an accepted BMGET the
// frame-level ERR it earns.
type rule struct {
	name     string
	f        []byte
	ok       bool
	batchErr string
}

// frame encodes a request frame without its length prefix and lets edit
// change any header byte before the body is attached.
func frame(op, flags uint8, ttlMS uint32, tenant, key, val string, edit func(h []byte)) []byte {
	f := AppendReq(nil, op, flags, 1, ttlMS, tenant, key, []byte(val))[4:]
	if edit != nil {
		edit(f[:ReqHdr])
	}
	return f
}

// bmget encodes a BMGET frame whose header declares count keys.
func bmget(count int, flags uint8, ttlMS uint32, body string) []byte {
	f := frame(OpBMGet, flags, ttlMS, "t", "", body, nil)
	binary.LittleEndian.PutUint16(f[12:14], uint16(count))
	return f
}

// keyList encodes (u16 length, key) entries.
func keyList(keys ...string) string {
	var b []byte
	for _, k := range keys {
		b = AppendKey(b, k)
	}
	return string(b)
}

func set(off int, v byte) func([]byte) { return func(h []byte) { h[off] = v } }

// text encodes a TEXT frame carrying line and block.
func text(line, block string) []byte {
	return AppendText(nil, 1, []byte(line), []byte(block))[4:]
}

// putLine is a PUT line of exactly n bytes declaring a block of v bytes.
func putLine(n, v int) string {
	tail := " " + strconv.Itoa(v)
	return "PUT t " + strings.Repeat("k", n-len("PUT t ")-len(tail)) + tail
}

// frameRules has one row per framing rule and one for the accepted edge of
// each. Every verdict is the one a node gave before the rule moved into
// this package.
func frameRules() []rule {
	maxFrame := frame(OpPut, 0, 0, "t", "k", strings.Repeat("v", MaxFrame-ReqHdr-2), nil)
	maxLine := strings.Repeat("v", MaxValue)
	many := make([]string, MaxBatchKeys+1)
	return []rule{
		{"GET", frame(OpGet, 0, 0, "t", "k", "", nil), true, ""},
		// Length.
		{"shorter than the header", frame(OpPing, 0, 0, "", "", "", nil)[:ReqHdr-1], false, ""},
		{"exactly the header", frame(OpPing, 0, 0, "", "", "", nil), true, ""},
		{"exactly the max frame", maxFrame, true, ""},
		{"over the max frame", append(maxFrame, 'v'), false, ""},
		{"the largest PUT data frame", frame(OpPut, 0, 0, strings.Repeat("t", 255), strings.Repeat("k", MaxKey), maxLine, nil), true, ""},
		{"the largest TEXT frame is the max frame", text(putLine(textwire.MaxLine, MaxValue), maxLine), true, ""},
		// Reserved bytes.
		{"reserved u8", frame(OpGet, 0, 0, "t", "k", "", set(3, 1)), false, ""},
		{"reserved u16 low", frame(OpGet, 0, 0, "t", "k", "", set(14, 1)), false, ""},
		{"reserved u16 high", frame(OpGet, 0, 0, "t", "k", "", set(15, 0x80)), false, ""},
		// Opcodes.
		{"opcode 0", frame(0, 0, 0, "", "", "", nil), false, ""},
		{"opcode 13", frame(13, 0, 0, "", "", "", nil), false, ""},
		{"opcode 99", frame(99, 0, 0, "", "", "", nil), false, ""},
		// Flags.
		{"GET with the TTL flag", frame(OpGet, FlagTTL, 0, "t", "k", "", nil), true, ""},
		{"GET with flag 0x80", frame(OpGet, 0x80, 0, "t", "k", "", nil), false, ""},
		{"PUT with the TTL flag", frame(OpPut, FlagTTL, 100, "t", "k", "v", nil), true, ""},
		{"PUT with flag 0x02", frame(OpPut, 0x02, 0, "t", "k", "v", nil), false, ""},
		{"DEL with flag 0x04", frame(OpDel, 0x04, 0, "t", "k", "", nil), false, ""},
		{"TOUCH with flag 0x40", frame(OpTouch, 0x40, 5, "t", "k", "", nil), false, ""},
		{"REHOME with the TTL flag", frame(OpRehome, FlagTTL, 5, "t", "k", "v", nil), true, ""},
		{"REHOME with flags 0x05", frame(OpRehome, 0x05, 5, "t", "k", "v", nil), false, ""},
		{"TENANT_DEL", frame(OpTenantDel, 0, 0, "t", "", "", nil), true, ""},
		{"TENANT_DEL with a flag", frame(OpTenantDel, 0x01, 0, "t", "", "", nil), false, ""},
		{"REG_PULL", frame(OpRegPull, 0, 0, "", "", "", nil), true, ""},
		{"REG_PULL with a flag", frame(OpRegPull, 0x01, 0, "", "", "", nil), false, ""},
		{"REG_OP add", frame(OpRegOp, FlagRegAdd, 0, "u", "", "12345678", nil), true, ""},
		{"REG_OP with flag 0x80", frame(OpRegOp, 0x81, 0, "u", "", "12345678", nil), false, ""},
		{"PING with every flag", frame(OpPing, 0xff, 0, "", "", "", nil), true, ""},
		{"TENANT_ADD with every flag", frame(OpTenantAdd, 0xff, 0, "u", "", "", nil), true, ""},
		// TEXT.
		{"TEXT", text("PING", ""), true, ""},
		{"TEXT of a blank line", text("", ""), true, ""},
		{"TEXT PUT with its block", text("PUT t k 5", "hello"), true, ""},
		{"TEXT PUT with a bad length and no block", text("PUT t k five", ""), true, ""},
		{"TEXT PUT with a long key", text("PUT t "+strings.Repeat("k", MaxKey+1)+" 1", "v"), true, ""},
		{"TEXT line at the line bound", text(putLine(textwire.MaxLine, 1), "v"), true, ""},
		{"TEXT line over the line bound", text(putLine(textwire.MaxLine+1, 1), "v"), false, ""},
		{"TEXT without its LF", frame(OpText, 0, 0, "", "", "PING", nil), false, ""},
		{"TEXT PUT block cut short", text("PUT t k 5", "hell"), false, ""},
		{"TEXT PUT block with its CRLF", text("PUT t k 5", "hello\r\n"), false, ""},
		{"TEXT bytes after a GET", text("GET t k", "x"), false, ""},
		{"TEXT PUT over MaxValue", text(putLine(40, MaxValue+1), maxLine+"v"), false, ""},
		{"TEXT QUIT", text("quit", ""), false, ""},
		{"TEXT with a tenant", frame(OpText, 0, 0, "t", "", "PING\n", nil), false, ""},
		{"TEXT with a key", frame(OpText, 0, 0, "", "k", "PING\n", nil), false, ""},
		{"TEXT with a TTL", frame(OpText, 0, 5, "", "", "PING\n", nil), false, ""},
		{"TEXT with a flag", frame(OpText, FlagTTL, 0, "", "", "PING\n", nil), false, ""},
		// Tenant and key inside the frame.
		{"tenant overruns the frame", frame(OpGet, 0, 0, "t", "k", "", set(2, 200)), false, ""},
		{"PING's tenant overruns the frame", frame(OpPing, 0, 0, "", "", "", set(2, 1)), false, ""},
		{"key overruns the frame", frame(OpGet, 0, 0, "t", "k", "", set(12, 2)), false, ""},
		{"key ends the frame", frame(OpDel, 0, 0, "t", "kk", "", nil), true, ""},
		// Semantic errors are not framing violations.
		{"GET with no key", frame(OpGet, 0, 0, "t", "", "", nil), true, ""},
		{"GET with a value", frame(OpGet, 0, 0, "t", "k", "v", nil), true, ""},
		{"key over MaxKey", frame(OpGet, 0, 0, "t", strings.Repeat("k", MaxKey+1), "", nil), true, ""},
		{"REG_OP with a short version", frame(OpRegOp, 0, 0, "u", "", "1234", nil), true, ""},
		// BMGET.
		{"BMGET", bmget(2, 0, 0, keyList("a", "bb")), true, ""},
		{"BMGET with a flag", bmget(1, FlagTTL, 0, keyList("a")), false, ""},
		{"BMGET with a TTL", bmget(1, 0, 5, keyList("a")), false, ""},
		{"BMGET list truncated in a length", bmget(2, 0, 0, keyList("a")+"\x01"), false, ""},
		{"BMGET list truncated in a key", bmget(1, 0, 0, keyList("abc")[:3]), false, ""},
		{"BMGET list with trailing bytes", bmget(1, 0, 0, keyList("a")+"junk"), false, ""},
		{"BMGET count over the list", bmget(65535, 0, 0, keyList("a")), false, ""},
		{"BMGET of no keys", bmget(0, 0, 0, ""), true, "empty key list"},
		{"BMGET over the batch cap", bmget(len(many), 0, 0, keyList(many...)), true, "too many keys"},
		{"BMGET at the batch cap with empty keys", bmget(MaxBatchKeys, 0, 0, keyList(many[1:]...)), true, "bad key length"},
		{"BMGET with an empty key", bmget(2, 0, 0, keyList("ok", "")), true, "bad key length"},
		{"BMGET with a key over MaxKey", bmget(1, 0, 0, keyList(strings.Repeat("k", MaxKey+1))), true, "bad key length"},
		{"BMGET with a key at MaxKey", bmget(1, 0, 0, keyList(strings.Repeat("k", MaxKey))), true, ""},
	}
}

func TestParseFramingRules(t *testing.T) {
	var r Req
	for _, c := range frameRules() {
		if ok := r.Parse(c.f); ok != c.ok {
			t.Errorf("%s: Parse = %v, want %v", c.name, ok, c.ok)
		} else if ok && r.Op == OpBMGet && r.BatchErr != c.batchErr {
			t.Errorf("%s: BatchErr = %q, want %q", c.name, r.BatchErr, c.batchErr)
		}
	}
}

// TestParseFields: an accepted frame's fields alias the frame, and a BMGET's
// keys come back in order.
func TestParseFields(t *testing.T) {
	var r Req
	if !r.Parse(frame(OpPut, FlagTTL, 1500, "ten", "key", "value", set(4, 9))) {
		t.Fatal("PUT refused")
	}
	if r.Op != OpPut || r.Flags != FlagTTL || r.ID != 9 || r.TTLms != 1500 ||
		string(r.Tenant) != "ten" || string(r.Key) != "key" || string(r.Val) != "value" {
		t.Fatalf("PUT decoded as %+v", r)
	}
	if !r.Parse(bmget(3, 0, 0, keyList("a", "bb", "ccc"))) || r.Count != 3 || len(r.Keys) != 3 ||
		string(r.Keys[0]) != "a" || string(r.Keys[1]) != "bb" || string(r.Keys[2]) != "ccc" || r.Key != nil {
		t.Fatalf("BMGET decoded as %+v", r)
	}
	if !r.Parse(text("PUT t k 2 EXPIRE 9", "hi")) || r.Op != OpText || len(r.Tenant) != 0 ||
		string(r.Key) != "PUT t k 2 EXPIRE 9" || string(r.Val) != "hi" {
		t.Fatalf("TEXT decoded as %+v", r)
	}
}

func TestParseAllocs(t *testing.T) {
	var r Req
	get, bm, txt := frame(OpGet, 0, 0, "t", "k", "", nil), bmget(2, 0, 0, keyList("a", "b")), text("PUT t k 1", "v")
	r.Parse(bm)
	if n := testing.AllocsPerRun(100, func() { r.Parse(get); r.Parse(bm); r.Parse(txt) }); n != 0 {
		t.Fatalf("Parse allocates %.1f times", n)
	}
}

// TestTTL: a TTL past the u32 field saturates instead of wrapping. A 50-day
// TTL once went out as 25,032,704 ms, about seven hours.
func TestTTL(t *testing.T) {
	for _, c := range []struct {
		ms    int64
		flags uint8
		field uint32
	}{
		{-1, 0, 0},
		{0, FlagTTL, 0},
		{1500, FlagTTL, 1500},
		{1<<32 - 1, FlagTTL, 1<<32 - 1},
		{50 * 24 * 3600 * 1000, FlagTTL, 1<<32 - 1},
	} {
		if flags, field := TTL(c.ms); flags != c.flags || field != c.field {
			t.Errorf("TTL(%d) = %d, %d; want %d, %d", c.ms, flags, field, c.flags, c.field)
		}
	}
}

func TestReadResp(t *testing.T) {
	var in []byte
	in = AppendResp(in, StOK, OpGet, 7, "value")
	in = AppendResp(in, StErr, OpPut, 8, "")
	r, buf := bytes.NewReader(append(in, 0xff, 0xff, 0xff, 0xff)), []byte(nil)
	for _, want := range []Resp{{StOK, OpGet, 7, []byte("value")}, {StErr, OpPut, 8, nil}} {
		got, err := ReadResp(r, &buf)
		if err != nil || got.Status != want.Status || got.Op != want.Op || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("ReadResp = %+v, %v; want %+v", got, err, want)
		}
	}
	if _, err := ReadResp(r, &buf); err == nil {
		t.Fatal("a 4 GiB response length was accepted")
	}
}

func TestHandshake(t *testing.T) {
	var sent bytes.Buffer
	if err := Handshake(&sent, bytes.NewReader(Preamble[:])); err != nil || sent.String() != string(Preamble[:]) {
		t.Fatalf("Handshake sent %q: %v", sent.Bytes(), err)
	}
	if err := Handshake(&sent, strings.NewReader("BUSY\r\n")); err != ErrNotBinary {
		t.Fatalf("a BUSY answer: %v", err)
	}
	if err := Handshake(&sent, strings.NewReader("\x83VB\x02")); err == nil {
		t.Fatal("a v2 ack was accepted")
	}
	var ack bytes.Buffer
	if ok, err := Accept(strings.NewReader("\x83VB\x02"), &ack); ok || err != nil || ack.String() != string(Preamble[:]) {
		t.Fatalf("Accept of a v2 preamble: %v %v, acked %q", ok, err, ack.Bytes())
	}
	if ok, _ := Accept(strings.NewReader("\x83XB\x01"), &ack); ok {
		t.Fatal("a malformed preamble was accepted")
	}
}

func TestCheckReply(t *testing.T) {
	var p []byte
	p = binary.LittleEndian.AppendUint16(p, 3)
	p = AppendEntry(p, StOK, []byte("v0"))
	p = AppendEntry(p, StMiss, nil)
	p = AppendEntry(p, StShed, nil)
	b, err := CheckReply(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for len(b) > 0 {
		st, val, rest := NextEntry(b)
		got, b = append(got, string(rune('0'+st))+string(val)), rest
	}
	if strings.Join(got, ",") != "0v0,1,3" {
		t.Fatalf("entries %q", got)
	}
	for name, bad := range map[string][]byte{
		"count":     p[:len(p):len(p)],
		"truncated": p[:len(p)-1],
		"trailing":  append(p[:len(p):len(p)], 0),
		"empty":     nil,
	} {
		want := 3
		if name == "count" {
			want = 2
		}
		if _, err := CheckReply(bad, want); err == nil {
			t.Errorf("%s: a malformed reply was accepted", name)
		}
	}
}

// FuzzFrame: every frame Parse accepts re-encodes to the identical bytes
// through the append helpers, and so does a coalesced reply CheckReply
// accepts; what Parse refuses must not panic it.
func FuzzFrame(f *testing.F) {
	for _, c := range frameRules() {
		if len(c.f) < 4096 {
			f.Add(c.f)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var r Req
		if r.Parse(b) {
			var re []byte
			switch {
			case r.Op == OpBMGet && r.Count <= MaxBatchKeys:
				re = AppendBMGet(nil, r.ID, r.Tenant, r.Keys)
			case r.Op == OpBMGet:
				re = AppendReq(nil, r.Op, r.Flags, r.ID, r.TTLms, r.Tenant, nil, r.Val)
				binary.LittleEndian.PutUint16(re[4+12:], uint16(r.Count))
			case r.Op == OpText:
				re = AppendText(nil, r.ID, r.Key, r.Val)
			default:
				re = AppendReq(nil, r.Op, r.Flags, r.ID, r.TTLms, r.Tenant, r.Key, r.Val)
			}
			if !bytes.Equal(re[4:], b) || !ReqLen(int(binary.LittleEndian.Uint32(re))) {
				t.Fatalf("%x re-encodes as %x", b, re[4:])
			}
		}
		// The same bytes as a coalesced reply of as many entries as it
		// claims.
		if len(b) < 2 {
			return
		}
		n := int(binary.LittleEndian.Uint16(b))
		entries, err := CheckReply(b, n)
		if err != nil {
			return
		}
		re := binary.LittleEndian.AppendUint16(nil, uint16(n))
		for len(entries) > 0 {
			st, val, rest := NextEntry(entries)
			re, entries = AppendEntry(re, st, val), rest
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("reply %x re-encodes as %x", b, re)
		}
	})
}
