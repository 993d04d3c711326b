// Ledger sharing tests at the CLI layer: a cell key names every input
// the ledger file (scale, cachescale) and the code identity do not, so
// a ledger hit is always the cell the run would compute. Runs that
// differ only in an output path, a suite subset or the command share a
// directory's cells, and a batch ledger warms `memwall serve`.
package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"memwall/internal/telemetry"
)

// ledgerCells reads every ledger in dir: file name, then cell key, then
// payload.
func ledgerCells(t *testing.T, dir string) map[string]map[string]json.RawMessage {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "ledger-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]json.RawMessage{}
	for _, f := range files {
		var lf struct {
			Cells map[string]json.RawMessage `json:"cells"`
		}
		if err := json.Unmarshal(mustRead(t, f), &lf); err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = lf.Cells
	}
	return out
}

// counters reads the counters of a -metrics report.
func counters(t *testing.T, path string) map[string]int64 {
	t.Helper()
	var rep telemetry.Report
	if err := json.Unmarshal(mustRead(t, path), &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Metrics.Counters
}

// keyInputs lists every grid command with the arguments its test runs
// share and, for each of its flags, one value other than the default. An
// output path names a file under the test's directory.
var keyInputs = []struct {
	cmd  string
	args []string
	alt  map[string]string
}{
	{"fig3", []string{"-suite", "92"}, map[string]string{"scale": "2", "cachescale": "8", "j": "3", "suite": "95"}},
	{"table1", nil, map[string]string{"scale": "2", "cachescale": "8", "j": "3", "bench": "li"}},
	{"table6", []string{"-suite", "92"}, map[string]string{"scale": "2", "cachescale": "8", "j": "3", "suite": "95"}},
	{"table7", nil, map[string]string{"scale": "2", "j": "3"}},
	{"table8", nil, map[string]string{"scale": "2", "j": "3"}},
	{"table9", nil, map[string]string{"scale": "2", "j": "3"}},
	{"export", nil, map[string]string{"scale": "2", "cachescale": "8", "j": "3", "notiming": "true", "headline": "true"}},
	{"explain", []string{"-benches", "compress"}, map[string]string{
		"scale": "2", "cachescale": "8", "j": "3", "suite": "both", "benches": "eqntott",
		"interval": "4096", "max-samples": "16", "top": "2", "record": "true", "check": "true",
		"json": "report.json", "samples": "samples.jsonl", "csv": "samples.csv", "perfetto": "perfetto.jsonl",
	}},
	{"selfcheck", []string{"-benches", "compress"}, map[string]string{"scale": "2", "cachescale": "8", "j": "3", "timing": "false", "benches": "li"}},
}

// TestCellKeysNameEveryInput runs each grid command once per flag its -h
// lists, with that flag at another value and every other flag at its
// default, each into a fresh checkpoint directory. The -j run goes first
// and journals the command's cells at every other flag's default. Every
// (ledger file, cell key) pair that two runs of any commands both hold
// must hold byte-identical payloads: a flag that changes a cell must
// change its key or its ledger file, and two commands that share a key
// must compute the same cell for it.
func TestCellKeysNameEveryInput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	flagLine := regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)
	out := t.TempDir()
	type cell struct{ file, key string }
	type journaled struct{ payload, run string }
	seen := map[cell]journaled{}
	for _, c := range keyInputs {
		status, _, usage := runCLI(t, c.cmd, "-h")
		if status != 2 {
			t.Fatalf("%s -h: exit status %d", c.cmd, status)
		}
		var flags []string
		for _, m := range flagLine.FindAllStringSubmatch(usage, -1) {
			flags = append(flags, m[1])
		}
		if listed := slices.Sorted(maps.Keys(c.alt)); !slices.Equal(flags, listed) {
			t.Errorf("%s -h lists flags %v; the test has values for %v", c.cmd, flags, listed)
			continue
		}
		for _, name := range append([]string{"j"}, slices.DeleteFunc(flags, func(f string) bool { return f == "j" })...) {
			value := c.alt[name]
			if strings.Contains(value, ".") {
				value = filepath.Join(out, value)
			}
			args := append(slices.Clone(c.args), "-"+name+"="+value)
			run := fmt.Sprintf("%s %s", c.cmd, strings.Join(args, " "))
			dir := t.TempDir()
			if _, err := runObservedCapture(t, globalOpts{checkpointDir: dir}, c.cmd, args...); err != nil {
				t.Fatalf("%s: %v", run, err)
			}
			n := 0
			for file, cells := range ledgerCells(t, dir) {
				for key, payload := range cells {
					n++
					k := cell{file, key}
					if prev, ok := seen[k]; !ok {
						seen[k] = journaled{string(payload), run}
					} else if string(payload) != prev.payload {
						t.Errorf("%s: %s cell %q differs from the one `%s` journaled", run, file, key, prev.run)
					}
				}
			}
			if name == "j" && n == 0 {
				t.Errorf("%s journaled no cells", run)
			}
		}
	}
}

// TestExplainOutputPathsShareLedger: explain's output paths are not
// inputs of its cells, so a rerun that names another report file is
// served every cell from the one ledger the first run wrote.
func TestExplainOutputPathsShareLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir, out := t.TempDir(), t.TempDir()
	args := []string{"-suite", "92", "-benches", "compress"}
	if _, err := runObservedCapture(t, globalOpts{checkpointDir: dir}, "explain",
		append(args, "-json", filepath.Join(out, "a.json"))...); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(out, "metrics.json")
	if _, err := runObservedCapture(t, globalOpts{checkpointDir: dir, metricsPath: metrics}, "explain",
		append(args, "-json", filepath.Join(out, "b.json"))...); err != nil {
		t.Fatal(err)
	}
	if c := counters(t, metrics); c["checkpoint.hits"] != 6 || c["checkpoint.misses"] != 0 {
		t.Errorf("rerun with another -json: checkpoint.hits %d, misses %d; want 6 and 0", c["checkpoint.hits"], c["checkpoint.misses"])
	}
	if ledgers := ledgerCells(t, dir); len(ledgers) != 1 {
		t.Errorf("%d ledgers in %s, want 1", len(ledgers), dir)
	}
}

// TestBatchLedgerWarmsServe: one ledger per configuration serves every
// command and the server. `fig3 -suite both` is served the SPEC92 cells
// a `fig3 -suite 92` run journaled, and `serve -smoke` over the same
// directory serves its one cell from that ledger, byte-identical to the
// golden payload but for its source.
func TestBatchLedgerWarmsServe(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir, out := t.TempDir(), t.TempDir()
	if _, err := runObservedCapture(t, globalOpts{checkpointDir: dir}, "fig3", "-suite", "92"); err != nil {
		t.Fatal(err)
	}
	both := filepath.Join(out, "both.json")
	if _, err := runObservedCapture(t, globalOpts{checkpointDir: dir, metricsPath: both}, "fig3", "-suite", "both"); err != nil {
		t.Fatal(err)
	}
	if c := counters(t, both); c["checkpoint.hits"] != 36 || c["checkpoint.misses"] != 42 {
		t.Errorf("fig3 -suite both after -suite 92: checkpoint.hits %d, misses %d; want 36 and 42", c["checkpoint.hits"], c["checkpoint.misses"])
	}

	smoke := filepath.Join(out, "smoke.json")
	got, err := runObservedCapture(t, globalOpts{checkpointDir: dir, metricsPath: smoke}, "serve", "-smoke")
	if err != nil {
		t.Fatalf("serve -smoke: %v", err)
	}
	if c := counters(t, smoke); c["checkpoint.hits"] != 1 || c["serve.cells.computed"] != 0 {
		t.Errorf("serve -smoke over a batch ledger: checkpoint.hits %d, serve.cells.computed %d; want 1 and 0",
			c["checkpoint.hits"], c["serve.cells.computed"])
	}
	golden := string(mustRead(t, filepath.Join("..", "..", "examples", "serve_smoke_golden.json")))
	if want := strings.Replace(golden, `"source": "computed"`, `"source": "cached"`, 1); got != want {
		t.Errorf("serve -smoke over a batch ledger:\n%s\nwant:\n%s", got, want)
	}
	if ledgers := ledgerCells(t, dir); len(ledgers) != 1 {
		t.Errorf("%d ledgers in %s, want one for the one configuration", len(ledgers), dir)
	}
}
