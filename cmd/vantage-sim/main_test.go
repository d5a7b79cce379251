package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vantage/internal/exp"
)

func TestCheckFig8(t *testing.T) {
	m := exp.SmallCMP(exp.ScaleUnit)
	for _, c := range []struct {
		mix  string
		part int
		err  string // "" for accepted flags
	}{
		{"ttnn4", 0, ""},
		{"nntt4", 3, ""}, // any letter order names the same mix
		{"zzzz", 0, `-mix "zzzz"`},
		{"ttnn", 0, `-mix "ttnn"`},
		{"ttnn11", 0, `-mix "ttnn11"`}, // index past MixesPerClass
		{"ttnn4", 4, "-partition 4 is outside 0..3"},
		{"ttnn4", 99, "-partition 99 is outside 0..3"},
		{"ttnn4", -1, "-partition -1 is outside 0..3"},
	} {
		err := checkFig8(m, c.mix, c.part)
		if c.err == "" && err != nil {
			t.Errorf("-mix %s -partition %d: unexpected error %v", c.mix, c.part, err)
		}
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("-mix %s -partition %d: got error %v, want one containing %q", c.mix, c.part, err, c.err)
		}
	}
}

// TestConfigPrintsRegistrySection: -config X prints what the registry's
// entry X returns, which is the text of X's REPORT.md section, and -csv
// writes its CSV; checked for an analytical and a simulated entry.
func TestConfigPrintsRegistrySection(t *testing.T) {
	for _, name := range []string{"fig1", "fig8"} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-config", name, "-q", "-csv", dir}, &stdout, &stderr); code != 0 {
			t.Fatalf("-config %s: exit %d: %s", name, code, stderr.String())
		}
		e, _ := exp.Lookup(name)
		m := exp.Machine{}
		if e.Machine != nil {
			m = e.Machine(exp.ScaleUnit)
		}
		text, csv := e.Run(m, 35, nil)
		if stdout.String() != text {
			t.Errorf("-config %s printed\n%s\nwant the entry's text\n%s", name, stdout.String(), text)
		}
		if got, err := os.ReadFile(filepath.Join(dir, name+".csv")); err != nil || string(got) != csv {
			t.Errorf("-config %s -csv: wrote %d bytes (%v), want the entry's %d", name, len(got), err, len(csv))
		}
		if stderr.Len() != 0 {
			t.Errorf("-config %s -q wrote to stderr: %s", name, stderr.String())
		}
	}
}

// TestBadFlagsExit2: a flag value the command cannot honour ends it with
// status 2 and one line on stderr, before any run.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-mixes", "-1"},
		{"-mixes", "-350", "-config", "all"},
		{"-config", "nope"},
		{"-scale", "huge"},
		{"-config", "fig8", "-mix", "zzzz"},
		{"-config", "fig8", "-partition", "99"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line on stderr", args, code, stdout.String(), stderr.String())
		}
	}
}
