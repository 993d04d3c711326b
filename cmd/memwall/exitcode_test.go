// Exit-status taxonomy tests: scripts and CI distinguish "a cell
// failed" (1) from "your flags are wrong" (2) from "output correct but
// corrupted persisted state was detected and recomputed" (3) purely by
// exit code, so the classification is contract, not cosmetics.
package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestExitStatusTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"run failure", errors.New("cell exploded"), 1},
		{"usage error", usageErr(errors.New("bad flag")), 2},
		{"wrapped usage error", usageErr(errors.New("inner")), 2},
		{"help", flag.ErrHelp, 2},
		{"corruption notice", corruptionNotice{n: 2}, 3},
	}
	for _, c := range cases {
		if got := exitStatus(c.err); got != c.want {
			t.Errorf("exitStatus(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

// A malformed -fault-schedule is a usage error (2), not a run failure.
func TestBadFaultScheduleIsUsageError(t *testing.T) {
	_, err := runObservedCapture(t, globalOpts{faultSchedule: "nonsense@x"}, "table3")
	if got := exitStatus(err); got != 2 {
		t.Errorf("malformed -fault-schedule: exit status %d (err %v), want 2", got, err)
	}
	_, err = runObservedCapture(t, globalOpts{resume: true}, "table3")
	if got := exitStatus(err); got != 2 {
		t.Errorf("-resume without -checkpoint-dir: exit status %d (err %v), want 2", got, err)
	}
}

// A subcommand flag typo classifies as usage, via parseFlags.
func TestBadSubcommandFlagIsUsageError(t *testing.T) {
	_, err := runObservedCapture(t, globalOpts{}, "table7", "-no-such-flag")
	if got := exitStatus(err); got != 2 {
		t.Errorf("unknown subcommand flag: exit status %d (err %v), want 2", got, err)
	}
}

// A corrupted checkpoint ledger degrades to a full re-run with correct
// output — but the run must exit 3 so someone looks at the disk.
func TestCorruptLedgerExitsThree(t *testing.T) {
	dir := t.TempDir()
	want, err := runObservedCapture(t, globalOpts{checkpointDir: dir}, "table7")
	if err != nil {
		t.Fatalf("checkpointed table7 run failed: %v", err)
	}
	ledgers, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil || len(ledgers) != 1 {
		t.Fatalf("expected one ledger in %s, got %v (err %v)", dir, ledgers, err)
	}
	if err := os.WriteFile(ledgers[0], []byte("{definitely not a ledger"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := runObservedCapture(t, globalOpts{checkpointDir: dir, resume: true}, "table7")
	if status := exitStatus(err); status != 3 {
		t.Errorf("corrupt-ledger resume: exit status %d (err %v), want 3", status, err)
	}
	if got != want {
		t.Errorf("corrupt-ledger resume output differs from the clean run:\n clean:\n%s\n resume:\n%s", want, got)
	}
}
