// Kill-and-resume determinism tests: a grid run interrupted by an
// injected worker kill after k cells, then resumed from its checkpoint
// ledger at a different worker count, must emit byte-identical output to
// an uninterrupted run — the acceptance contract of -checkpoint-dir /
// -resume (see DESIGN.md §11). The injected panic must also fail the
// interrupted run with the dying cell's identity in the error, never
// crash the process.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memwall/internal/attr"
	"memwall/internal/telemetry"
)

// runObservedCapture runs one full observed CLI invocation — the global
// envelope (checkpoint ledger, fault injector, telemetry sinks) around a
// subcommand — capturing stdout and returning the command's error instead
// of failing on it, since the interrupted runs here are supposed to fail.
func runObservedCapture(t *testing.T, opts globalOpts, name string, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		r.Close() // keep the capture fd-neutral (the fd-leak tests count)
		done <- buf.String()
	}()
	runErr := runObserved(name, args, opts, func() error { return dispatch(name, args) })
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// testKillAndResume is the shared scenario: uninterrupted baseline at one
// worker count, a checkpointed run killed mid-grid by an injected worker
// panic, then a -resume at a different worker count that must reproduce
// the baseline byte-for-byte.
func testKillAndResume(t *testing.T, name string, args []string, kill string) {
	t.Helper()
	dir := t.TempDir()
	base := globalOpts{}

	want, err := runObservedCapture(t, base, name, append(args, "-j", "2")...)
	if err != nil {
		t.Fatalf("uninterrupted %s run failed: %v", name, err)
	}

	interrupted := base
	interrupted.checkpointDir = dir
	interrupted.faultSchedule = kill
	_, err = runObservedCapture(t, interrupted, name, append(args, "-j", "2")...)
	if err == nil {
		t.Fatalf("%s run with %s did not fail — the injected worker kill was swallowed", name, kill)
	}
	// The panic must surface as a task error naming the dying cell, per
	// the runner's worker-boundary recover — never a bare process crash
	// (reaching this assertion at all proves the recover worked).
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), name+":") {
		t.Errorf("interrupted %s run error lacks the cell identity: %v", name, err)
	}

	// Some cells completed and were journaled before the kill; the ledger
	// file must exist for -resume to have anything to serve.
	ledgers, globErr := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if globErr != nil || len(ledgers) == 0 {
		t.Fatalf("interrupted run left no checkpoint ledger in %s (glob err %v)", dir, globErr)
	}

	resumed := base
	resumed.checkpointDir = dir
	resumed.resume = true
	resumed.metricsPath = filepath.Join(dir, "resume-metrics.json")
	got, err := runObservedCapture(t, resumed, name, append(args, "-j", "5")...)
	if err != nil {
		t.Fatalf("resumed %s run failed: %v", name, err)
	}
	if got != want {
		t.Errorf("resumed %s output differs from an uninterrupted run:\n uninterrupted:\n%s\n resumed:\n%s", name, want, got)
	}

	// The resumed run must actually have served cells from the ledger, not
	// silently recomputed everything (a stale fingerprint would do that).
	raw, err := os.ReadFile(resumed.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Counters["checkpoint.hits"] <= 0 {
		t.Errorf("resumed %s run served no cells from the ledger (checkpoint.hits = %v)",
			name, rep.Metrics.Counters["checkpoint.hits"])
	}
}

func TestTable7KillAndResume(t *testing.T) {
	testKillAndResume(t, "table7", nil, "panic@3")
}

func TestTable6KillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	testKillAndResume(t, "table6", []string{"-suite", "92"}, "panic@3")
}

func TestSelfcheckKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	testKillAndResume(t, "selfcheck", []string{"-benches", "compress,li,su2cor"}, "panic@3")
}

// TestExplainResumeOverFormat2Ledger: format-2 ledgers journaled explain
// cells whose attribution records held name-keyed "series" and "ledgers"
// maps. Read as today's record, such a cell decodes without an error to
// no samples and every ledger cause zero, under an unchanged fingerprint,
// so the format bump must make the ledger a counted stale re-run instead.
func TestExplainResumeOverFormat2Ledger(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir, out := t.TempDir(), t.TempDir()
	// The report path is part of the fingerprinted arguments, so both
	// runs write it.
	reportPath := filepath.Join(out, "report.json")
	args := []string{"-suite", "92", "-benches", "compress", "-j", "2", "-json", reportPath}
	want, err := runObservedCapture(t, globalOpts{checkpointDir: dir}, "explain", args...)
	if err != nil {
		t.Fatal(err)
	}
	ledgers, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil || len(ledgers) != 1 {
		t.Fatalf("expected one ledger in %s, got %v (err %v)", dir, ledgers, err)
	}
	raw, err := os.ReadFile(ledgers[0])
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Format      int                        `json:"format"`
		Fingerprint string                     `json:"fingerprint"`
		Cells       map[string]json.RawMessage `json:"cells"`
		Sum         string                     `json:"sum"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Cells) != 6 {
		t.Fatalf("ledger holds %d cells, want 6", len(file.Cells))
	}
	for key, cell := range file.Cells {
		var res map[string]json.RawMessage
		var rec attr.RunRecord
		if err := json.Unmarshal(cell, &res); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(res["Attr"], &rec); err != nil {
			t.Fatal(err)
		}
		type namedLedger struct {
			Name string `json:"name"`
			attr.LedgerSnapshot
		}
		res["Attr"] = mustMarshal(t, map[string]any{
			"interval": rec.Interval,
			"series":   map[string]attr.Series{"attr.core.samples": rec.Samples},
			"ledgers":  map[string]namedLedger{"attr.core.stalls": {"attr.core.stalls", rec.Stalls}},
		})
		file.Cells[key] = mustMarshal(t, res)
	}
	sum := sha256.Sum256(mustMarshal(t, file.Cells))
	file.Format, file.Sum = 2, hex.EncodeToString(sum[:])
	if err := os.WriteFile(ledgers[0], mustMarshal(t, file), 0o644); err != nil {
		t.Fatal(err)
	}

	opts := globalOpts{checkpointDir: dir, resume: true, metricsPath: filepath.Join(out, "metrics.json")}
	got, err := runObservedCapture(t, opts, "explain", args...)
	if err != nil {
		t.Fatal(err)
	}
	if stripWallLines(got) != stripWallLines(want) {
		t.Errorf("resumed explain differs from the run that wrote the ledger:\n wrote:\n%s\n resumed:\n%s", want, got)
	}
	var metrics telemetry.Report
	if err := json.Unmarshal(mustRead(t, opts.metricsPath), &metrics); err != nil {
		t.Fatal(err)
	}
	if c := metrics.Metrics.Counters; c["checkpoint.stale"] != 1 || c["checkpoint.hits"] != 0 {
		t.Errorf("checkpoint.stale = %d, checkpoint.hits = %d; want 1 and 0", c["checkpoint.stale"], c["checkpoint.hits"])
	}
	var rep attr.Report
	if err := json.Unmarshal(mustRead(t, reportPath), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Wall.ComputedCells != 6 || rep.Wall.CheckpointCells != 0 {
		t.Errorf("%d cells computed, %d from the ledger; want 6 and 0", rep.Wall.ComputedCells, rep.Wall.CheckpointCells)
	}
	for _, c := range rep.Configs {
		if c.CauseCycles["latency"]+c.CauseCycles["bandwidth"] <= 0 {
			t.Errorf("%s/%s: no ledger cycles charged to memory: %v", c.Benchmark, c.Experiment, c.CauseCycles)
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
