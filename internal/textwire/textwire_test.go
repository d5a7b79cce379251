package textwire

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

// TestReadLineBound: lines up to max pass whatever the reader's buffer size,
// max+1 is refused, and an endless line is refused once max is exceeded —
// before the stream ends, so the copy never grows past the bound.
func TestReadLineBound(t *testing.T) {
	const max = 100
	read := func(in string) (string, error) {
		line, err := ReadLine(bufio.NewReaderSize(strings.NewReader(in), 16), max)
		return string(line), err
	}
	for _, n := range []int{0, 5, 16, 17, max} {
		want := strings.Repeat("x", n)
		for _, eol := range []string{"\r\n", "\n"} {
			if got, err := read(want + eol + "next\r\n"); err != nil || got != want {
				t.Fatalf("%d-byte line, eol %q: got %q, %v", n, eol, got, err)
			}
		}
	}
	if _, err := read(strings.Repeat("x", max+1) + "\r\n"); err != ErrLineTooLong {
		t.Fatalf("line of max+1: %v, want ErrLineTooLong", err)
	}
	endless := io.MultiReader(strings.NewReader(strings.Repeat("x", 4*max)), neverEnds{})
	if _, err := ReadLine(bufio.NewReaderSize(endless, 16), max); err != ErrLineTooLong {
		t.Fatalf("endless line: %v, want ErrLineTooLong", err)
	}
	if _, err := read("no newline"); err != io.EOF {
		t.Fatalf("unterminated short stream: %v, want EOF", err)
	}
}

// neverEnds fails the test's premise if ReadLine keeps reading past the bound.
type neverEnds struct{}

func (neverEnds) Read([]byte) (int, error) { panic("ReadLine read past its bound") }

func TestTokenHelpers(t *testing.T) {
	f := SplitFields([]byte("  mGet\talice 2  k1 k2 "), nil)
	if len(f) != 5 || string(f[0]) != "mGet" || string(f[4]) != "k2" {
		t.Fatalf("SplitFields = %q", f)
	}
	if !CmdEq(f[0], "MGET") || CmdEq(f[0], "MGE") || CmdEq(f[1], "MGET") {
		t.Fatal("CmdEq")
	}
	for in, want := range map[string]int{"0": 0, "42": 42, "9999999999": 9999999999, "": -1, "-1": -1, "+1": -1, "12345678901": -1, "1x": -1} {
		if n, ok := ParseUint([]byte(in)); (ok && n != want) || (!ok && want != -1) {
			t.Fatalf("ParseUint(%q) = %d, %v", in, n, ok)
		}
	}
	for in, rest := range map[string]string{"\r\nX": "X", "\nX": "X", "X": "X", "\rX": "X", "": ""} {
		r := bufio.NewReader(strings.NewReader(in))
		DiscardEOL(r)
		if got, _ := io.ReadAll(r); string(got) != rest {
			t.Fatalf("DiscardEOL(%q) left %q, want %q", in, got, rest)
		}
	}
}
