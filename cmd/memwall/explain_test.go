// Tests for the explain subcommand and for the observability plumbing it
// rides on: interval-sample exports must be byte-identical at any -j,
// the report must validate and reconcile, and the shared progress
// heartbeat must aggregate deterministically under a parallel grid.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"memwall/internal/attr"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
)

// captureStderr runs fn with os.Stderr redirected to a pipe and returns
// everything written there.
func captureStderr(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stderr = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v", ferr)
	}
	return out
}

// TestExplainParallelDeterminism is the tentpole acceptance test: every
// interval-sample export (JSONL, CSV, Perfetto) must be byte-identical
// between -j 1 and -j 8, and the human tables must agree everywhere
// except the wall-clock line (the one host-dependent datum).
func TestExplainParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	run := func(j string) (samples, csv, perfetto []byte, stdout string) {
		dir := t.TempDir()
		sp := filepath.Join(dir, "samples.jsonl")
		cp := filepath.Join(dir, "samples.csv")
		pp := filepath.Join(dir, "perfetto.jsonl")
		out := capture(t, func() error {
			return runCommand("explain", []string{
				"-suite", "92", "-benches", "compress", "-j", j,
				"-interval", "2048", "-samples", sp, "-csv", cp, "-perfetto", pp,
			})
		})
		read := func(p string) []byte {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Fatalf("export %s is empty", p)
			}
			return b
		}
		return read(sp), read(cp), read(pp), out
	}
	s1, c1, p1, out1 := run("1")
	s8, c8, p8, out8 := run("8")
	if !bytes.Equal(s1, s8) {
		t.Error("JSONL sample export differs between -j 1 and -j 8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("CSV sample export differs between -j 1 and -j 8")
	}
	if !bytes.Equal(p1, p8) {
		t.Error("Perfetto export differs between -j 1 and -j 8")
	}
	if a, b := stripWallLines(out1), stripWallLines(out8); a != b {
		t.Errorf("explain tables differ between -j 1 and -j 8:\n serial:\n%s\n parallel:\n%s", a, b)
	}
	if !strings.HasPrefix(string(c1), attr.SamplesCSVHeader+"\n") {
		t.Errorf("CSV export missing header, starts %q", string(c1[:min(len(c1), 80)]))
	}
}

// TestGoldenExplainExports pins what explain's exports contain, where
// TestExplainParallelDeterminism only pins that -j does not change them:
// the SHA-256 of the JSONL, CSV and Perfetto sample exports and of the
// -json -record report without its host-dependent wall section.
func TestGoldenExplainExports(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	capture(t, func() error {
		return runCommand("explain", []string{
			"-suite", "92", "-benches", "compress", "-interval", "2048", "-j", "1",
			"-samples", path("samples"), "-csv", path("csv"), "-perfetto", path("perfetto"),
			"-json", path("report"), "-record",
		})
	})
	var report map[string]json.RawMessage
	if err := json.Unmarshal(mustRead(t, path("report")), &report); err != nil {
		t.Fatal(err)
	}
	delete(report, "wall")
	got := map[string][]byte{
		"samples":  mustRead(t, path("samples")),
		"csv":      mustRead(t, path("csv")),
		"perfetto": mustRead(t, path("perfetto")),
		"report":   mustMarshal(t, report),
	}
	for name, want := range map[string]string{
		"samples":  "bf78ec68d51e46dc6169f144231a32190be7f602994dae1f7cd4b2e2e592e5e3",
		"csv":      "9eb17a5a352ac5101a1eac7f63e5d4e916f4e7029896f65402a0164d605c1d06",
		"perfetto": "a0ed7ba5318a28d41d0029040bac7dfea379b17d5dc41769240d12053eda4577",
		"report":   "671094fdede283b7622d2616306986a5688cdf9cda1da42d972543ef3efa045a",
	} {
		if sum := sha256.Sum256(got[name]); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s export: sha256 %x, want %s", name, sum, want)
		}
	}
}

// stripWallLines drops the host-dependent wall-clock summary from
// explain stdout.
func stripWallLines(s string) string {
	var keep []string
	for _, ln := range strings.Split(s, "\n") {
		if strings.HasPrefix(ln, "explain: wall clock") {
			continue
		}
		keep = append(keep, ln)
	}
	return strings.Join(keep, "\n")
}

// TestExplainReportReconciles runs explain with -json -record -check and
// verifies the written report: schema validates, T_P+T_L+T_B matches T
// within the acceptance bound for every config, the embedded ledgers
// settle their exact slot identity, and the wall breakdown covers the
// whole grid.
func TestExplainReportReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir := t.TempDir()
	jp := filepath.Join(dir, "report.json")
	capture(t, func() error {
		return runCommand("explain", []string{
			"-suite", "92", "-benches", "compress,eqntott", "-j", "4",
			"-json", jp, "-record", "-check",
		})
	})
	raw, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	var rep attr.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Configs) != 2*6 {
		t.Errorf("%d configs, want 12 (2 benchmarks x experiments A-F)", len(rep.Configs))
	}
	for _, c := range rep.Configs {
		if got := c.TP + c.TL + c.TB; got != c.T {
			t.Errorf("%s/%s: TP+TL+TB = %d, T = %d (identity should be exact)", c.Benchmark, c.Experiment, got, c.T)
		}
		if c.Record == nil {
			t.Errorf("%s/%s: -record did not embed the attribution record", c.Benchmark, c.Experiment)
			continue
		}
		if led := c.Record.Stalls; led.Cycles != c.T {
			t.Errorf("%s/%s: ledger closed at %d cycles, full run took %d", c.Benchmark, c.Experiment, led.Cycles, c.T)
		}
	}
	if len(rep.TopCauses) == 0 {
		t.Error("report has no top-causes table")
	}
	if got := len(rep.Wall.Cells); got != len(rep.Configs) {
		t.Errorf("wall breakdown covers %d cells, grid has %d", got, len(rep.Configs))
	}
	if rep.Wall.ComputedCells != len(rep.Configs) || rep.Wall.CheckpointCells != 0 {
		t.Errorf("wall attribution = %d computed / %d checkpoint, want %d / 0",
			rep.Wall.ComputedCells, rep.Wall.CheckpointCells, len(rep.Configs))
	}
}

// TestExplainRejectsUnknownBench: a typoed -benches name is a usage
// error (exit 2), not a silently empty grid.
func TestExplainRejectsUnknownBench(t *testing.T) {
	err := runCommand("explain", []string{"-benches", "nosuchbench"})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	var ue usageError
	if !errors.As(err, &ue) {
		t.Errorf("error %v is not a usage error", err)
	}
}

// TestExplainBothSuitesSplitsBenches: under -suite both, each suite's
// panel runs the -benches names among its own timing benchmarks, so a
// list naming one benchmark of each suite reports both panels.
func TestExplainBothSuitesSplitsBenches(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	jp := filepath.Join(t.TempDir(), "report.json")
	capture(t, func() error {
		return runCommand("explain", []string{"-suite", "both", "-benches", "compress,li", "-json", jp})
	})
	raw, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	var rep attr.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range rep.Configs {
		got = append(got, c.Suite+":"+c.Benchmark+"/"+c.Experiment)
	}
	var want []string
	for _, panel := range []string{"SPEC92:compress", "SPEC95:li"} {
		for _, exp := range []string{"A", "B", "C", "D", "E", "F"} {
			want = append(want, panel+"/"+exp)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("configs = %v, want %v", got, want)
	}
}

// TestProgressHeartbeatParallelDeterminism drives the shared progress
// reporter through a parallel grid: the final summary totals must be
// identical at any worker count, and concurrent beats must never
// interleave partial lines (run under -race by the Makefile race
// target).
func TestProgressHeartbeatParallelDeterminism(t *testing.T) {
	run := func(j int) string {
		var buf bytes.Buffer
		prog := telemetry.NewProgress(&buf, time.Nanosecond) // heartbeat on (nearly) every beat
		_, err := runner.Map(context.Background(), runner.Config{Workers: j}, 16,
			func(ctx context.Context, i int, _ *telemetry.Tracer) (int, error) {
				for k := 0; k < 4; k++ {
					prog.Beat(100, 250)
				}
				return i, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		insts, cycles, ok := prog.Totals()
		if !ok {
			t.Fatal("Totals not ok after beats")
		}
		if insts != 16*4*100 || cycles != 16*4*250 {
			t.Errorf("j=%d: totals = (%d, %d), want (%d, %d)", j, insts, cycles, 16*4*100, 16*4*250)
		}
		prog.Done()
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		for _, ln := range lines {
			if !strings.HasPrefix(ln, "progress: ") {
				t.Errorf("j=%d: corrupt heartbeat line %q", j, ln)
			}
		}
		final := lines[len(lines)-1]
		if !strings.HasPrefix(final, "progress: done") {
			t.Errorf("j=%d: final line is not the done summary: %q", j, final)
		}
		// The totals prefix is deterministic; the trailing wall time and
		// rate are host measurements.
		if i := strings.Index(final, " in "); i >= 0 {
			final = final[:i]
		}
		return final
	}
	if d1, d4 := run(1), run(4); d1 != d4 {
		t.Errorf("final progress summary differs between -j 1 and -j 4:\n %q\n %q", d1, d4)
	}
}

// TestExplainProgressStderrParallelDeterminism covers the observe.go
// envelope end to end: `explain -progress` at -j 1 and -j 4 must emit a
// final stderr summary with identical simulated totals.
func TestExplainProgressStderrParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	run := func(j string) string {
		var stderr string
		stderr = captureStderr(t, func() error {
			capture(t, func() error {
				return runCommand("explain", []string{"-progress", "-suite", "92", "-benches", "compress", "-j", j})
			})
			return nil
		})
		idx := strings.LastIndex(stderr, "progress: done")
		if idx < 0 {
			t.Fatalf("j=%s: no final progress summary on stderr:\n%s", j, stderr)
		}
		final := stderr[idx:]
		if i := strings.Index(final, " in "); i >= 0 {
			final = final[:i]
		}
		return strings.TrimSpace(final)
	}
	if d1, d4 := run("1"), run("4"); d1 != d4 {
		t.Errorf("explain -progress summary differs between -j 1 and -j 4:\n %q\n %q", d1, d4)
	}
}
