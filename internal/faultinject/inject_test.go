package faultinject

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memwall/internal/telemetry"
)

func TestParseEmpty(t *testing.T) {
	for _, s := range []string{"", "  "} {
		in, err := Parse(s)
		if err != nil || in != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil, nil", s, in, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"shortwrite", "bogus@1", "panic@0", "panic@-3", "panic@x", "@2"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestParseAndString(t *testing.T) {
	in, err := Parse(" panic@5 , shortwrite@2 ,bitflip@1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := in.String(), "shortwrite@2,bitflip@1,panic@5"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	in.CellStart(0, func() { t.Error("cancel fired on nil injector") })
	if fs := in.Wrap(OS()); fs != OS() {
		t.Error("nil injector did not pass the base FS through")
	}
	if in.Injected(Panic) != 0 {
		t.Error("nil injector reports injections")
	}
	in.Bind(telemetry.NewRegistry())
}

// writeVia writes content to path through fsys using the atomic helper.
func writeVia(fsys FS, path, content string) (int64, error) {
	return WriteAtomic(fsys, path, func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
}

func TestWriteAtomicPlain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	n, err := writeVia(OS(), path, "hello")
	if err != nil || n != 5 {
		t.Fatalf("WriteAtomic = %d, %v", n, err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v", b, err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

func TestShortWriteLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	in, err := Parse("shortwrite@1")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.Bind(reg)
	path := filepath.Join(dir, "out.json")
	if _, err := writeVia(in.Wrap(OS()), path, "hello world"); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("want ErrShortWrite, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("destination exists after failed atomic write: %v", err)
	}
	if got := in.Injected(ShortWrite); got != 1 {
		t.Errorf("Injected(ShortWrite) = %d, want 1", got)
	}
	if got := reg.Snapshot().Counters["fault.injected.shortwrite"]; got != 1 {
		t.Errorf("telemetry counter = %d, want 1", got)
	}
	// The schedule is one-shot: the second write succeeds.
	if _, err := writeVia(in.Wrap(OS()), path, "hello world"); err != nil {
		t.Fatalf("second write failed: %v", err)
	}
}

func TestENOSPCLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	in, _ := Parse("enospc@1")
	path := filepath.Join(dir, "out.json")
	if _, err := writeVia(in.Wrap(OS()), path, "hello"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("destination exists after injected ENOSPC: %v", err)
	}
	if in.Injected(ENOSPC) != 1 {
		t.Error("ENOSPC not counted")
	}
}

func TestSlowWriteDelaysButSucceeds(t *testing.T) {
	dir := t.TempDir()
	in, err := Parse("slowwrite@1")
	if err != nil {
		t.Fatal(err)
	}
	in.SetSlowWriteDelay(50 * time.Millisecond)
	path := filepath.Join(dir, "out.json")
	//memlint:allow detlint measuring the injected host latency is the point of the test
	start := time.Now()
	if _, err := writeVia(in.Wrap(OS()), path, "hello"); err != nil {
		t.Fatalf("slowwrite write failed: %v", err)
	}
	//memlint:allow detlint measuring the injected host latency is the point of the test
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond {
		t.Errorf("write took %v, want >= 50ms of injected latency", elapsed)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v; slowwrite must not corrupt the file", b, err)
	}
	if in.Injected(SlowWrite) != 1 {
		t.Error("SlowWrite not counted")
	}
	// The schedule is one-shot: the second write is not delayed.
	//memlint:allow detlint measuring the injected host latency is the point of the test
	start = time.Now()
	if _, err := writeVia(in.Wrap(OS()), path, "hello"); err != nil {
		t.Fatalf("second write failed: %v", err)
	}
	//memlint:allow detlint measuring the injected host latency is the point of the test
	if again := time.Since(start); again >= 50*time.Millisecond {
		t.Errorf("second write took %v, want no injected latency", again)
	}
}

func TestSlowWriteDelayDefault(t *testing.T) {
	in, _ := Parse("slowwrite@1")
	if got := in.slowWriteDelay(); got != DefaultSlowWriteDelay {
		t.Errorf("default delay = %v, want %v", got, DefaultSlowWriteDelay)
	}
	in.SetSlowWriteDelay(time.Second)
	if got := in.slowWriteDelay(); got != time.Second {
		t.Errorf("delay after set = %v, want 1s", got)
	}
	in.SetSlowWriteDelay(0)
	if got := in.slowWriteDelay(); got != DefaultSlowWriteDelay {
		t.Errorf("delay after reset = %v, want %v", got, DefaultSlowWriteDelay)
	}
}

func TestTornRenameReportsSuccessLeavesHalfFile(t *testing.T) {
	dir := t.TempDir()
	in, _ := Parse("tornrename@1")
	path := filepath.Join(dir, "out.json")
	content := "0123456789abcdef"
	if _, err := writeVia(in.Wrap(OS()), path, content); err != nil {
		t.Fatalf("torn rename should report success, got %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != content[:len(content)/2] {
		t.Errorf("destination = %q, want first half %q", b, content[:len(content)/2])
	}
	if in.Injected(TornRename) != 1 {
		t.Error("torn rename not counted")
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(left) != 0 {
		t.Errorf("source temp left behind after torn rename: %v", left)
	}
}

func TestBitFlipIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	content := bytes.Repeat([]byte{0x00}, 64)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	read := func() []byte {
		in, _ := Parse("bitflip@1")
		b, err := in.Wrap(OS()).ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if in.Injected(BitFlip) != 1 {
			t.Fatal("bit flip not counted")
		}
		return b
	}
	a, b := read(), read()
	if bytes.Equal(a, content) {
		t.Error("no bit was flipped")
	}
	if !bytes.Equal(a, b) {
		t.Error("bit flip position differs between identical schedules")
	}
	// Unarmed occurrences read clean.
	in, _ := Parse("bitflip@2")
	if got, _ := in.Wrap(OS()).ReadFile(path); !bytes.Equal(got, content) {
		t.Error("occurrence 1 corrupted under a bitflip@2 schedule")
	}
}

func TestCellStartPanicAndCancel(t *testing.T) {
	in, _ := Parse("panic@2,cancel@1")
	cancelled := false
	in.CellStart(0, func() { cancelled = true })
	if !cancelled {
		t.Fatal("cancel@1 did not fire on first cell")
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic@2 did not fire on second cell")
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "cell 7") {
				t.Errorf("panic message %v does not carry the cell index", r)
			}
		}()
		in.CellStart(7, nil)
	}()
	if in.Injected(Panic) != 1 || in.Injected(Cancel) != 1 {
		t.Errorf("injection counts = panic %d cancel %d, want 1/1", in.Injected(Panic), in.Injected(Cancel))
	}
}
