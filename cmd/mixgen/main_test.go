package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		cores, lines, mrcRefs int
		mrc                   bool
		class                 string
		filter, err           string // err "" for accepted flags
	}{
		{4, 32768, 200000, false, "", "", ""},
		{32, 32768, 200000, true, "sftn", "nfts", ""},
		{4, 0, 0, false, "nnnn", "nnnn", ""}, // -lines and -mrc-refs matter only with -mrc
		{4, 4, 1, true, "", "", ""},
		{6, 32768, 200000, false, "", "", "-cores 6"},
		{0, 32768, 200000, false, "", "", "-cores 0"},
		{4, 32768, 0, true, "", "", "-mrc-refs 0"},
		{4, 0, 200000, true, "", "", "-lines of at least 4, not 0"},
		{4, 3, 200000, true, "", "", "-lines of at least 4, not 3"},
		{4, 32768, 200000, false, "s", "", `-class "s"`},
		{4, 32768, 200000, false, "zzzz", "", `-class "zzzz"`},
		{4, 32768, 200000, false, "sftn5", "", `-class "sftn5"`},
	} {
		filter, err := checkFlags(c.cores, c.lines, c.mrcRefs, c.mrc, c.class)
		if c.err == "" && (err != nil || filter != c.filter) {
			t.Errorf("%+v: got (%q, %v), want (%q, nil)", c, filter, err, c.filter)
		}
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("%+v: got error %v, want one containing %q", c, err, c.err)
		}
	}
}
