package main

import (
	"bytes"
	"strings"
	"testing"

	"memwall/internal/trace"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"64K", 64 << 10, true},
		{"64KB", 64 << 10, true},
		{"2M", 2 << 20, true},
		{"2MB", 2 << 20, true},
		{"512", 512, true},
		{" 16k ", 16 << 10, true},
		{"abc", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseSize(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestReadTraceAutoDetectDin(t *testing.T) {
	refs, ifetches, err := readTrace(strings.NewReader("0 1000\n2 2000\n1 3000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || ifetches != 1 {
		t.Errorf("refs=%d ifetches=%d", len(refs), ifetches)
	}
}

func TestReadTraceAutoDetectCompact(t *testing.T) {
	orig := []trace.Ref{{Kind: trace.Read, Addr: 0x40}, {Kind: trace.Write, Addr: 0x44}}
	var buf bytes.Buffer
	if _, err := trace.WriteCompact(&buf, orig); err != nil {
		t.Fatal(err)
	}
	refs, _, err := readTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[1].Kind != trace.Write {
		t.Errorf("refs = %v", refs)
	}
}

func TestReadTraceGarbage(t *testing.T) {
	if _, _, err := readTrace(strings.NewReader("not a trace at all")); err == nil {
		t.Error("garbage accepted")
	}
}
