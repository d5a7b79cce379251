package main

import (
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
