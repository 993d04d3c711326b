// Serve-subcommand and cancellation-robustness tests at the CLI layer:
// the -smoke self-test against its committed golden output, a batch
// ledger warming the server, and the cancel-then-resume regression — an
// injected mid-grid cancellation must leave the checkpoint ledger
// loadable (and leak no file descriptors), with the rerun byte-identical
// to an uninterrupted one.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"memwall/internal/telemetry"
)

// TestServeSmokeGolden runs the full `memwall serve -smoke` path
// in-process — listener, healthz, one POSTed cell, drain, drainz — and
// diffs its stdout against the committed golden file. This is the CI
// gate that the served cell payload stays byte-identical release to
// release (see examples/serve_smoke_golden.json).
func TestServeSmokeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	got, err := runObservedCapture(t, globalOpts{}, "serve", "-smoke")
	if err != nil {
		t.Fatalf("serve -smoke failed: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "examples", "serve_smoke_golden.json"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("serve -smoke output differs from examples/serve_smoke_golden.json\n got:\n%s\nwant:\n%s", got, want)
	}
}

// countFDs returns the number of open file descriptors, or skips on
// platforms without /proc.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count fds: %v", err)
	}
	return len(ents)
}

// TestCancelThenResume kills a checkpointed grid mid-run with an
// injected cancel@N. The failure must surface as context.Canceled (not a crash),
// leak no file descriptors, and leave a ledger from which a rerun
// reproduces the uninterrupted output byte-for-byte.
func TestCancelThenResume(t *testing.T) {
	dir := t.TempDir()
	base := globalOpts{}

	want, err := runObservedCapture(t, base, "table7", "-j", "2")
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}

	fdsBefore := countFDs(t)
	interrupted := base
	interrupted.checkpointDir = dir
	interrupted.faultSchedule = "cancel@3"
	_, err = runObservedCapture(t, interrupted, "table7", "-j", "2")
	if err == nil {
		t.Fatal("cancelled run did not fail — the injected cancel was swallowed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run error is not context.Canceled: %v", err)
	}
	if fdsAfter := countFDs(t); fdsAfter != fdsBefore {
		t.Errorf("cancelled run leaked file descriptors: %d before, %d after", fdsBefore, fdsAfter)
	}

	// The cells completed before the cancel are journaled; the ledger
	// must exist and be loadable.
	ledgers, globErr := filepath.Glob(filepath.Join(dir, "ledger-*.json"))
	if globErr != nil || len(ledgers) == 0 {
		t.Fatalf("cancelled run left no checkpoint ledger in %s (glob err %v)", dir, globErr)
	}

	resumed := base
	resumed.checkpointDir = dir
	resumed.metricsPath = filepath.Join(dir, "resume-metrics.json")
	got, err := runObservedCapture(t, resumed, "table7", "-j", "3")
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if got != want {
		t.Errorf("resumed output differs from an uninterrupted run:\n uninterrupted:\n%s\n resumed:\n%s", want, got)
	}

	raw, err := os.ReadFile(resumed.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Counters["checkpoint.hits"] <= 0 {
		t.Errorf("resumed run served no cells from the ledger (checkpoint.hits = %v)",
			rep.Metrics.Counters["checkpoint.hits"])
	}
}

// TestServeRegistered: the serve command is registered but excluded from
// `memwall all` (a long-running service would keep `all` from
// terminating).
func TestServeRegistered(t *testing.T) {
	found := false
	for _, c := range commands {
		if c.name == "serve" {
			found = true
		}
	}
	if !found {
		t.Fatal("serve is not registered")
	}
	if !allExcluded["serve"] {
		t.Error("serve must be excluded from `memwall all`")
	}
	for _, n := range allOrder() {
		if n == "serve" {
			t.Error("allOrder includes serve")
		}
	}
}

// TestServeSmokeWithFaultSchedule: the global -fault-schedule flag
// threads into the server's ledger I/O — a slowwrite fault delays the
// journal write but the smoke run still succeeds with identical output.
func TestServeSmokeWithFaultSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir := t.TempDir()
	opts := globalOpts{checkpointDir: dir, faultSchedule: "slowwrite@1"}
	got, err := runObservedCapture(t, opts, "serve", "-smoke")
	if err != nil {
		t.Fatalf("serve -smoke under slowwrite failed: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "examples", "serve_smoke_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("smoke output under slowwrite differs from golden:\n%s", got)
	}
	// The delayed journal write still landed: the ledger exists.
	if ledgers, _ := filepath.Glob(filepath.Join(dir, "ledger-*.json")); len(ledgers) == 0 {
		t.Errorf("no ledger written under slowwrite fault")
	}
}
