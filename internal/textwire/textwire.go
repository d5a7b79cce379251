// Package textwire holds the line bound and the allocation-free line,
// value-block and token readers of the CRLF text protocol. A node and the
// proxy's text front read each command line and its value block with them
// and hand both to binwire.Req's SplitText and DecodeText, the protocol's
// one parser; the cluster package cannot import service, and binwire
// builds on these helpers, so they live in this leaf.
package textwire

import (
	"bufio"
	"errors"
	"io"
)

// MaxLine bounds one command line on a node and at the proxy. The largest
// legitimate line, an MGET of 1,024 keys of 250 bytes, is ~256 KiB.
const MaxLine = 512 << 10

// ErrLineTooLong marks a command line over the caller's maximum.
var ErrLineTooLong = errors.New("line exceeds maximum length")

// ReadLine returns the next line with its EOL trimmed. The returned slice
// aliases the reader's buffer and is valid until the next read. Lines
// longer than the buffer (large MGETs) fall back to an allocated copy,
// bounded at max (ErrLineTooLong beyond that — an unbounded line would
// otherwise grow the copy until memory ran out).
func ReadLine(r *bufio.Reader, max int) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == nil {
		return trimEOL(line), nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	buf := append([]byte(nil), line...)
	for {
		// Enforce the cap before reading more: buf holds no newline yet, so
		// at best its last byte is a '\r' about to be completed — anything
		// past max+1 accumulated bytes cannot trim to a legal line.
		if len(buf) > max+1 {
			return nil, ErrLineTooLong
		}
		line, err = r.ReadSlice('\n')
		buf = append(buf, line...)
		if err == nil {
			out := trimEOL(buf)
			if len(out) > max {
				return nil, ErrLineTooLong
			}
			return out, nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// SplitFields splits line on ASCII spaces and tabs into out (reused across
// commands). Each field is line[i:j], so its offset in line is
// cap(line) - cap(field).
func SplitFields(line []byte, out [][]byte) [][]byte {
	for i := 0; i < len(line); {
		if line[i] == ' ' || line[i] == '\t' {
			i++
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	return out
}

// ReadBlock reads the n-byte value block that follows line on r, and the
// EOL after it, into buf, grown as needed. The read may overwrite the
// reader's buffer that line aliases, so line is copied into buf first; the
// line and block returned alias the grown buf.
func ReadBlock(r *bufio.Reader, line []byte, n int, buf []byte) (l, block, grown []byte, err error) {
	if cap(buf) < len(line)+n {
		buf = make([]byte, len(line)+n)
	}
	buf = buf[:len(line)+n]
	copy(buf, line)
	l, block = buf[:len(line)], buf[len(line):]
	if _, err := io.ReadFull(r, block); err != nil {
		return nil, nil, buf, err
	}
	DiscardEOL(r)
	return l, block, buf, nil
}

// CmdEq reports whether b equals the upper-case command word s,
// ASCII-case-insensitively.
func CmdEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// ParseUint parses a small non-negative decimal integer.
func ParseUint(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 10 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// DiscardEOL consumes the \r\n (or bare \n) terminating a value block.
func DiscardEOL(r *bufio.Reader) {
	if b, err := r.ReadByte(); err == nil && b != '\n' {
		if b == '\r' {
			if b2, err := r.ReadByte(); err == nil && b2 != '\n' {
				r.UnreadByte()
			}
		} else {
			r.UnreadByte()
		}
	}
}
