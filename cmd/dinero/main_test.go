package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"memwall/internal/trace"
)

// TestMain runs dinero's main instead of the tests when the test binary
// is re-executed with DINERO_TEST_MAIN=1, so a test can check the exit
// status and output of the real command.
func TestMain(m *testing.M) {
	if os.Getenv("DINERO_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// A compact header whose count claims about 658 million references, with
// no records behind it, is an error, not a 10 GB allocation.
func TestCompactCountBeyondInputFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.mwt")
	if err := os.WriteFile(path, []byte("MWT1\x96\xa9\xe6\xb9\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], path)
	cmd.Env = append(os.Environ(), "DINERO_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("dinero on a 9-byte trace claiming 658M references: %v, want a non-zero exit", err)
	}
	if !strings.HasPrefix(stderr.String(), "dinero: trace: ") {
		t.Errorf("stderr = %q, want a dinero trace error", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
}
