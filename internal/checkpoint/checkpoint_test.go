package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memwall/internal/faultinject"
	"memwall/internal/telemetry"
)

const fp = "scale1-cachescale16"

func open(t *testing.T, opts Options) *Ledger {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestOpenValidatesOptions(t *testing.T) {
	if _, err := Open(Options{Dir: t.TempDir()}); err == nil {
		t.Error("Open accepted an empty configuration name")
	}
	if _, err := Open(Options{Fingerprint: fp}); err == nil {
		t.Error("Open accepted an empty directory")
	}
}

func TestNilLedgerIsNoop(t *testing.T) {
	var l *Ledger
	if _, ok := l.Lookup("x"); ok {
		t.Error("nil ledger served a cell")
	}
	l.Record("x", []byte(`1`))
	if l.Corruptions() != 0 || l.WriteFailed() {
		t.Error("nil ledger accessors not zero-valued")
	}
	l.Close()
}

func TestRecordReopenLookup(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l := open(t, Options{Dir: dir, Fingerprint: fp, Metrics: reg})
	l.Record("cell-a", []byte(`{"v":1}`))
	l.Record("cell-b", []byte(`{"v":2}`))
	if len(l.cells) != 2 {
		t.Fatalf("Len = %d, want 2", len(l.cells))
	}

	// Reopen: both cells come back byte-for-byte.
	reg2 := telemetry.NewRegistry()
	r := open(t, Options{Dir: dir, Fingerprint: fp, Metrics: reg2})
	if got, ok := r.Lookup("cell-a"); !ok || string(got) != `{"v":1}` {
		t.Fatalf("Lookup(cell-a) = %q, %v", got, ok)
	}
	if got, ok := r.Lookup("cell-b"); !ok || string(got) != `{"v":2}` {
		t.Fatalf("Lookup(cell-b) = %q, %v", got, ok)
	}
	if _, ok := r.Lookup("cell-c"); ok {
		t.Fatal("Lookup hit an unrecorded cell")
	}
	snap := reg2.Snapshot()
	if snap.Counters["checkpoint.hits"] != 2 || snap.Counters["checkpoint.misses"] != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1",
			snap.Counters["checkpoint.hits"], snap.Counters["checkpoint.misses"])
	}
	if got := reg.Snapshot().Counters["checkpoint.writes"]; got != 2 {
		t.Errorf("writes = %d, want 2", got)
	}
}

func TestColdOpenIsFresh(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := open(t, Options{Dir: filepath.Join(t.TempDir(), "nonexistent"), Fingerprint: fp, Metrics: reg})
	if len(l.cells) != 0 || l.Corruptions() != 0 {
		t.Error("cold open not fresh")
	}
	if c := reg.Snapshot().Counters; c["checkpoint.corrupt"] != 0 || c["checkpoint.stale"] != 0 {
		t.Errorf("cold open counted corruption %d, staleness %d", c["checkpoint.corrupt"], c["checkpoint.stale"])
	}
}

// corruptionCases mutate a valid ledger file in ways load must detect.
func TestCorruptLedgerDegradesToFresh(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"not-json", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a ledger"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"checksum-mismatch", func(t *testing.T, path string) {
			// Flip a payload byte while keeping valid JSON: silent media
			// corruption that only the checksum can catch.
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s := strings.Replace(string(b), `"v":1`, `"v":7`, 1)
			if s == string(b) {
				t.Fatal("mutation did not apply")
			}
			if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := open(t, Options{Dir: dir, Fingerprint: fp})
			l.Record("cell-a", []byte(`{"v":1}`))
			tc.mutate(t, l.path)

			reg := telemetry.NewRegistry()
			r := open(t, Options{Dir: dir, Fingerprint: fp, Metrics: reg})
			if _, ok := r.Lookup("cell-a"); ok {
				t.Fatal("corrupt ledger served a cell")
			}
			if r.Corruptions() != 1 {
				t.Errorf("Corruptions = %d, want 1", r.Corruptions())
			}
			if got := reg.Snapshot().Counters["checkpoint.corrupt"]; got != 1 {
				t.Errorf("checkpoint.corrupt = %d, want 1", got)
			}
			// The degraded ledger still journals: the re-run is protected.
			r.Record("cell-a", []byte(`{"v":1}`))
			if r.WriteFailed() {
				t.Error("journaling disabled after degraded open")
			}
		})
	}
}

func TestStaleFingerprintDegradesToFresh(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, Fingerprint: fp})
	l.Record("cell-a", []byte(`{"v":1}`))

	// Same file, another configuration: rename the ledger to the name the
	// other configuration uses, simulating a hand-copied ledger.
	other := "scale2-cachescale16"
	reg := telemetry.NewRegistry()
	r := open(t, Options{Dir: dir, Fingerprint: other, Metrics: reg})
	if err := os.Rename(l.path, r.path); err != nil {
		t.Fatal(err)
	}
	r = open(t, Options{Dir: dir, Fingerprint: other, Metrics: reg})
	if _, ok := r.Lookup("cell-a"); ok {
		t.Fatal("stale ledger served a cell")
	}
	if r.Corruptions() != 0 {
		t.Errorf("Corruptions = %d, want 0", r.Corruptions())
	}
	if got := reg.Snapshot().Counters["checkpoint.stale"]; got != 1 {
		t.Errorf("checkpoint.stale = %d, want 1", got)
	}
}

func TestFormatBumpDegradesToStale(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, Fingerprint: fp})
	l.Record("cell-a", []byte(`{"v":1}`))
	b, err := os.ReadFile(l.path)
	if err != nil {
		t.Fatal(err)
	}
	var lf ledgerFile
	if err := json.Unmarshal(b, &lf); err != nil {
		t.Fatal(err)
	}
	lf.Format = Format + 1
	out, _ := json.Marshal(lf)
	if err := os.WriteFile(l.path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r := open(t, Options{Dir: dir, Fingerprint: fp, Metrics: reg})
	if _, ok := r.Lookup("cell-a"); ok {
		t.Fatal("future-format ledger served a cell")
	}
	if reg.Snapshot().Counters["checkpoint.stale"] != 1 {
		t.Error("format mismatch not counted as stale")
	}
}

func TestRecordFailureDisablesJournaling(t *testing.T) {
	in, err := faultinject.Parse("enospc@1")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.Bind(reg)
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, Fingerprint: fp, FS: in.Wrap(faultinject.OS()), Metrics: reg})

	l.Record("cell-a", []byte(`{"v":1}`)) // hits the injected ENOSPC
	if !l.WriteFailed() {
		t.Fatal("write failure did not disable journaling")
	}
	if len(l.cells) != 0 {
		t.Errorf("failed cell retained in memory: Len = %d", len(l.cells))
	}
	l.Record("cell-b", []byte(`{"v":2}`)) // no-op while disabled
	snap := reg.Snapshot()
	if snap.Counters["checkpoint.errors"] != 1 {
		t.Errorf("checkpoint.errors = %d, want 1", snap.Counters["checkpoint.errors"])
	}
	if snap.Counters["fault.injected.enospc"] != 1 {
		t.Errorf("fault.injected.enospc = %d, want 1", snap.Counters["fault.injected.enospc"])
	}
	// The failed atomic write left nothing behind.
	if _, err := os.Stat(l.path); !os.IsNotExist(err) {
		t.Errorf("ledger file exists after failed write: %v", err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

func TestTornRenameDetectedOnReopen(t *testing.T) {
	in, err := faultinject.Parse("tornrename@2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, Fingerprint: fp, FS: in.Wrap(faultinject.OS())})
	l.Record("cell-a", []byte(`{"v":1}`)) // rename 1: clean
	l.Record("cell-b", []byte(`{"v":2}`)) // rename 2: torn — half a ledger on disk
	if in.Injected(faultinject.TornRename) != 1 {
		t.Fatal("torn rename did not fire")
	}

	reg := telemetry.NewRegistry()
	r := open(t, Options{Dir: dir, Fingerprint: fp, Metrics: reg})
	if _, ok := r.Lookup("cell-a"); ok {
		t.Fatal("torn ledger served a cell")
	}
	if r.Corruptions() != 1 {
		t.Errorf("Corruptions = %d, want 1", r.Corruptions())
	}
}

func TestBitFlipDetectedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l := open(t, Options{Dir: dir, Fingerprint: fp})
	l.Record("cell-a", []byte(`{"v":1}`))

	in, err := faultinject.Parse("bitflip@1")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.Bind(reg)
	r := open(t, Options{Dir: dir, Fingerprint: fp, FS: in.Wrap(faultinject.OS()), Metrics: reg})
	if _, ok := r.Lookup("cell-a"); ok {
		t.Fatal("bit-flipped ledger served a cell")
	}
	// Depending on which field the deterministic flip lands in, the defect
	// reads as corruption (payload/checksum) or staleness (configuration
	// or code byte) — either way it must be detected and degraded.
	if stale := reg.Snapshot().Counters["checkpoint.stale"]; r.Corruptions() != 1 && stale != 1 {
		t.Errorf("flip not detected: Corruptions = %d, checkpoint.stale = %d", r.Corruptions(), stale)
	}
	if got := reg.Snapshot().Counters["fault.injected.bitflip"]; got != 1 {
		t.Errorf("fault.injected.bitflip = %d, want 1", got)
	}
}
