// Package textwire holds the allocation-free line reading and tokenizing
// helpers of the CRLF text protocol. Both internal/service (the node's text
// dispatcher) and internal/cluster (the proxy's text front) read command
// lines with them; the cluster package cannot import service, so they live
// in this leaf.
package textwire

import (
	"bufio"
	"errors"
)

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
// commands). The sub-slices alias line.
func SplitFields(line []byte, out [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
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

// AppendUint appends n in decimal to dst.
func AppendUint(dst []byte, n uint64) []byte {
	if n == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, buf[i:]...)
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
