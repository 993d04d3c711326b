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

// runDinero runs dinero's main in a re-executed test binary and returns
// its stdout, stderr and exit status.
func runDinero(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DINERO_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("dinero %v: %v", args, err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// A compact header whose count claims about 658 million references, with
// no records behind it, is an error, not a 10 GB allocation.
func TestCompactCountBeyondInputFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.mwt")
	if err := os.WriteFile(path, []byte("MWT1\x96\xa9\xe6\xb9\x02"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runDinero(t, path)
	if code == 0 {
		t.Fatal("dinero on a 9-byte trace claiming 658M references exited 0, want a non-zero exit")
	}
	if !strings.HasPrefix(stderr, "dinero: trace: ") {
		t.Errorf("stderr = %q, want a dinero trace error", stderr)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want nothing", stdout)
	}
}

// A negative -assoc, which cache.Config would read as fully associative,
// a -scale below 1 with -emit, an unknown workload, format or policy,
// and a cache shape cache.New rejects are usage errors: exit 2, nothing
// on stdout, and a message naming the flag. They are checked before any
// trace is read, so a missing trace file does not mask them.
func TestFlagsOutsideDomain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.din")
	if err := os.WriteFile(path, []byte("0 1000\n1 2000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-assoc", "-3", path}, "-assoc -3"},
		{[]string{"-assoc=-1", "-mtc", path}, "-assoc -1"},
		{[]string{"-emit", "compress", "-scale", "0"}, "-scale 0"},
		{[]string{"-emit", "compress", "-scale", "-2", "-format", "compact"}, "-scale -2"},
		{[]string{"-emit", "nosuch"}, "-emit nosuch"},
		{[]string{"-emit", "compress", "-format", "xml"}, "-format xml"},
		{[]string{"-repl", "bogus", path}, "-repl bogus"},
		{[]string{"-write", "bogus", path}, "-write bogus"},
		{[]string{"-alloc", "bogus", path}, "-alloc bogus"},
		{[]string{"-size", "3K", path}, "-size 3K"},
		{[]string{"-block", "24", path}, "-block 24"},
		{[]string{"-sub", "7", path}, "-sub 7"},
		{[]string{"-sub", "7", filepath.Join(dir, "missing.din")}, "-sub 7"},
	} {
		stdout, stderr, code := runDinero(t, tc.args...)
		if code != 2 {
			t.Errorf("dinero %v: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if stdout != "" {
			t.Errorf("dinero %v: stdout = %q, want nothing", tc.args, stdout)
		}
		if !strings.HasPrefix(stderr, "dinero: "+tc.flag+": ") {
			t.Errorf("dinero %v: stderr = %q, want a usage error naming %s", tc.args, stderr, tc.flag)
		}
	}
	// The domain's edges still run: 0 is fully associative.
	if stdout, stderr, code := runDinero(t, "-assoc", "0", path); code != 0 || !strings.Contains(stdout, "fully-assoc") {
		t.Errorf("dinero -assoc 0: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
