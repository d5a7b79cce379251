package main

import "testing"

func TestParseTenantSpecs(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		conns      []int // per-tenant connection counts; nil means an error is expected
	}{
		{"defaults", "a=friendly,b=stream:3", []int{1, 3}},
		{"letters and spaces", " a=f:2 , b=s ,", []int{2, 1}},
		{"bad class", "a=bogus", nil},
		{"bad conns", "a=friendly:x", nil},
		{"zero conns", "a=friendly:0", nil},
		{"no class", "a", nil},
		{"empty spec", "", nil},
		{"only separators", " , ,", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs, err := parseTenantSpecs(tc.spec, 4096, 1)
			if tc.conns == nil {
				if err == nil {
					t.Fatalf("parseTenantSpecs(%q) = %d tenants, want an error", tc.spec, len(specs))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(specs) != len(tc.conns) {
				t.Fatalf("got %d tenants, want %d", len(specs), len(tc.conns))
			}
			for i, s := range specs {
				if s.Conns != tc.conns[i] {
					t.Errorf("tenant %q: conns = %d, want %d", s.Name, s.Conns, tc.conns[i])
				}
				if s.MakeApp(0) == nil {
					t.Errorf("tenant %q: MakeApp returned nil", s.Name)
				}
			}
		})
	}
}

func TestLinesPerShard(t *testing.T) {
	for _, tc := range []struct {
		lines, shards int
		want          int // 0 means an error is expected
	}{
		{131072, 4, 32768},
		{4, 4, 1},
		{9, 4, 2},
		{3, 4, 0},
		{0, 1, 0},
		{1024, 0, 0},
		{1024, -2, 0},
	} {
		got, err := linesPerShard(tc.lines, tc.shards)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("linesPerShard(%d, %d) = %d, want an error", tc.lines, tc.shards, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("linesPerShard(%d, %d) = %d, %v; want %d", tc.lines, tc.shards, got, err, tc.want)
		}
	}
}
