package binwire

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestDecodeText: each data verb decodes to the request its frame carries,
// each limit is the one Parse applies to frames, and every other line is a
// control line. The messages are the ERR lines a node answers with.
func TestDecodeText(t *testing.T) {
	long, tooLong := strings.Repeat("k", MaxKey), strings.Repeat("k", MaxKey+1)
	for _, c := range []struct {
		line, block string
		op          uint8
		msg         string
	}{
		{"GET t " + long, "", OpGet, ""},
		{"get t k", "", OpGet, ""},
		{"GET t", "", 0, "usage: GET <tenant> <key>"},
		{"GET t " + tooLong, "", 0, "bad key length"},
		{"GET " + strings.Repeat("t", MaxTenant+1) + " k", "", 0, "bad tenant length"},
		{"DEL t k x", "", 0, "usage: DEL <tenant> <key>"},
		{"DEL t " + tooLong, "", 0, "bad key length"},
		{"TOUCH t k 4294967295", "", OpTouch, ""},
		{"EXPIRE t k 0", "", OpTouch, ""},
		{"TOUCH t k", "", 0, "usage: TOUCH <tenant> <key> <ms>"},
		{"TOUCH t k 4294967296", "", 0, `bad TTL milliseconds "4294967296"`},
		{"TOUCH t k -1", "", 0, `bad TTL milliseconds "-1"`},
		{"PUT t k 2 EXPIRE 4294967295", "hi", OpPut, ""},
		{"PUT t k 0", "", OpPut, ""},
		{"PUT t k", "", 0, "usage: PUT <tenant> <key> <bytes> [EXPIRE <ms>]"},
		{"PUT t k x", "", 0, `bad value length "x"`},
		{"PUT t k 1048577", "", 0, "value length 1048577 exceeds maximum 1048576"},
		{"PUT t k 2 EXPIRE", "hi", 0, "usage: PUT <tenant> <key> <bytes> [EXPIRE <ms>]"},
		{"PUT " + strings.Repeat("t", MaxTenant+1) + " k 2", "hi", 0, "bad tenant length"},
		{"PUT t " + tooLong + " 2", "hi", 0, "key too long"},
		{"PUT t k 2 EXPIRE 4294967296", "hi", 0, "bad EXPIRE clause (want EXPIRE <ms>)"},
		{"PUT t k 2 EXPIRES 5", "hi", 0, "bad EXPIRE clause (want EXPIRE <ms>)"},
		{"PUT t k 2", "h", 0, "short value"},
		{"MGET t 2 a " + long, "", OpBMGet, ""},
		{"MGET t", "", 0, "usage: MGET <tenant> <count> <key...>"},
		{"MGET t 0", "", 0, `bad MGET count "0" (max 1024)`},
		{"MGET t 1025 k", "", 0, `bad MGET count "1025" (max 1024)`},
		{"MGET t 2 k", "", 0, "MGET count 2 does not match 1 keys"},
		{"MGET t 1 " + tooLong, "", 0, "bad key length"},
		{"MGET " + strings.Repeat("t", MaxTenant+1) + " 1 k", "", 0, "bad tenant length"},
		{"STATS t", "", OpText, ""},
		{"FROB", "", OpText, ""},
		{" \t ", "", 0, ""},
	} {
		var r Req
		msg := r.DecodeText([]byte(c.line), []byte(c.block))
		if msg != c.msg || (msg == "" && r.Op != c.op) {
			t.Errorf("%.40q: op %d %q, want op %d %q", c.line, r.Op, msg, c.op, c.msg)
		}
	}

	// A stream reader splits the line, then decodes the copy textwire.ReadBlock
	// made of it before reading the block over the original.
	var r Req
	line := []byte("PUT ten key 5 EXPIRE 1500")
	if n := r.SplitText(line); n != 5 {
		t.Fatalf("SplitText sized a PUT's block at %d", n)
	}
	moved := append([]byte(nil), line...)
	copy(line, "XXXXXXXXXXXXXXXXXXXXXXXXX")
	if r.DecodeText(moved, []byte("value")) != "" || r.Flags != FlagTTL ||
		r.TTLms != 1500 || string(r.Tenant) != "ten" || string(r.Key) != "key" || string(r.Val) != "value" {
		t.Fatalf("PUT decoded as %+v", r)
	}
	if r.DecodeText([]byte("MGET ten 3 a bb ccc"), nil) != "" || r.Count != 3 || string(r.Tenant) != "ten" ||
		!slices.EqualFunc(r.Keys, []string{"a", "bb", "ccc"}, func(k []byte, s string) bool { return string(k) == s }) {
		t.Fatalf("MGET decoded as %+v", r)
	}
	if r.DecodeText([]byte("TENANT ADD x"), nil) != "" || r.Op != OpText || len(r.Keys) != 3 ||
		string(r.Keys[2]) != "x" || string(r.Key) != "TENANT ADD x" || r.Count != 0 {
		t.Fatalf("control line decoded as %+v", r)
	}
}

func TestDecodeTextAllocs(t *testing.T) {
	var r Req
	lines, block := [][]byte{[]byte("GET t k"), []byte("PUT t k 1 EXPIRE 5"), []byte("MGET t 3 a b c"), []byte("STATS")}, []byte("v")
	if n := testing.AllocsPerRun(100, func() {
		for _, l := range lines {
			r.DecodeText(l, block)
			r.SplitText(l)
			r.DecodeText(l, block)
		}
	}); n != 0 {
		t.Fatalf("DecodeText allocates %.1f times", n)
	}
}

// FuzzTextDecode: no line and block panic the decoder; decoding a copy of
// the split line, as a stream reader does, gives what one DecodeText call
// does; and every data request it returns is one a frame carries:
// re-encoded, it parses back to the same fields with no frame-level ERR.
// Re-encoded as text, it decodes back to the request that was encoded.
func FuzzTextDecode(f *testing.F) {
	long := strings.Repeat("k", MaxKey)
	for _, s := range [][2]string{
		{"GET t k", ""},
		{"PUT t k 5 EXPIRE 100", "hello"},
		{"PUT t " + long + " 0", ""},
		{"DEL t k", ""},
		{"TOUCH t k 4294967295", ""},
		{"MGET t 3 a " + long + " c", ""},
		{"MGET t 2 k", ""},
		{"PUT t k 2 EXPIRE 4294967296", "hi"},
		{"GET t " + long + "k", ""},
		{"TENANT ADD t", ""},
	} {
		f.Add([]byte(s[0]), []byte(s[1]))
	}
	f.Fuzz(func(t *testing.T, line, block []byte) {
		var q, p, s Req
		msg := q.DecodeText(line, block)
		if s.SplitText(line) != len(block) && msg == "" && q.Op == OpPut {
			t.Fatalf("%q: SplitText sized a decoded PUT's %d-byte block at %d", line, len(block), s.SplitText(line))
		}
		if s.DecodeText(bytes.Clone(line), block) != msg || !sameReq(&s, &q) {
			t.Fatalf("%q: split and copied, decodes as %+v, not %+v", line, s, q)
		}
		if msg != "" || q.Op == 0 || q.Op == OpText {
			return
		}
		var fr []byte
		if q.Op == OpBMGet {
			fr = AppendBMGet(nil, 7, q.Tenant, q.Keys)
		} else {
			fr = AppendReq(nil, q.Op, q.Flags, 7, q.TTLms, q.Tenant, q.Key, q.Val)
		}
		if !p.Parse(fr[4:]) || p.Err != "" {
			t.Fatalf("%q: frame %x refused (%q)", line, fr, p.Err)
		}
		if p.ID != 7 || !sameReq(&p, &q) {
			t.Fatalf("%q decodes as %+v, its frame as %+v", line, q, p)
		}
		if tx := encodeText(&q); decodeEncoded(t, tx, &s) != "" || !sameReq(&s, &q) {
			t.Fatalf("%q decodes as %+v, its text %q as %+v", line, q, tx, s)
		}
	})
}

// encodeText encodes q with the text encoder.
func encodeText(q *Req) []byte {
	if q.Op == OpBMGet {
		return AppendTextMGet(nil, q.Tenant, q.Keys)
	}
	return AppendTextReq(nil, q.Op, q.Flags, q.TTLms, q.Tenant, q.Key, q.Val)
}

// decodeEncoded decodes one encoded text command into r as a stream reader
// does: the line, then the block SplitText sizes and its CRLF, which must
// end the command.
func decodeEncoded(t *testing.T, b []byte, r *Req) string {
	line, rest, ok := bytes.Cut(b, []byte("\r\n"))
	if !ok {
		t.Fatalf("%q has no CRLF", b)
	}
	n := r.SplitText(line)
	if n > 0 || len(rest) > 0 {
		if len(rest) != n+2 || string(rest[n:]) != "\r\n" {
			t.Fatalf("%q: a %d-byte block is not followed by CRLF alone", b, n)
		}
		rest = rest[:n]
	}
	return r.DecodeText(line, rest)
}

// TestAppendText: the encoder writes each verb's line as a text client
// types it, and a PUT's TTL only with FlagTTL.
func TestAppendText(t *testing.T) {
	for _, c := range []struct {
		got  []byte
		want string
	}{
		{AppendTextReq(nil, OpGet, 0, 0, "t", "k", nil), "GET t k\r\n"},
		{AppendTextReq(nil, OpDel, 0, 0, "t", "k", nil), "DEL t k\r\n"},
		{AppendTextReq(nil, OpTouch, 0, 1500, "t", "k", nil), "TOUCH t k 1500\r\n"},
		{AppendTextReq(nil, OpPut, 0, 99, "t", "k", []byte("hello")), "PUT t k 5\r\nhello\r\n"},
		{AppendTextReq(nil, OpPut, FlagTTL, 4294967295, "t", "k", nil), "PUT t k 0 EXPIRE 4294967295\r\n\r\n"},
		{AppendTextMGet(nil, "t", []string{"a", "bb"}), "MGET t 2 a bb\r\n"},
	} {
		if string(c.got) != c.want {
			t.Errorf("encoded %q, want %q", c.got, c.want)
		}
	}
}

// sameReq reports whether a and b carry the same request. A BMGET's Val,
// which holds its frame's key list, is not compared.
func sameReq(a, b *Req) bool {
	return a.Op == b.Op && a.Flags == b.Flags && a.TTLms == b.TTLms && bytes.Equal(a.Tenant, b.Tenant) &&
		bytes.Equal(a.Key, b.Key) && a.Count == b.Count && slices.EqualFunc(a.Keys, b.Keys, bytes.Equal) &&
		(a.Op == OpBMGet || bytes.Equal(a.Val, b.Val))
}
