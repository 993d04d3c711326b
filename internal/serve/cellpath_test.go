package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"memwall/internal/checkpoint"
	"memwall/internal/core"
	"memwall/internal/faultinject"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// TestServePanickingCellIs500: a cell that panics while the Flight
// computes it fails its request with a 500 naming the panic, and the
// server keeps serving: the error is not memoized, so the next request
// for the same cell computes it.
func TestServePanickingCellIs500(t *testing.T) {
	inject, err := faultinject.Parse("panic@1")
	if err != nil {
		t.Fatal(err)
	}
	_, hs := testServer(t, Options{Fault: inject})
	status, body, _ := post(t, hs.URL, smallSpec())
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "panicked") {
		t.Fatalf("panicking cell: status %d (%s), want 500 naming the panic", status, body)
	}
	status, body, _ = post(t, hs.URL, smallSpec())
	if status != http.StatusOK {
		t.Fatalf("retry: status %d (%s)", status, body)
	}
	if src := decodeResult(t, body).Cells[0].Source; src != "computed" {
		t.Errorf("retry source = %q, want computed", src)
	}
}

// TestServeObservedPanelSpanCounts: serve always attaches a progress
// hook, and a traced server must still share perfect runs: a SPEC92 A–F
// panel costs exactly 3 perfect, 6 infinite-bandwidth and 6 full
// simulations, as core.Figure3Pool does.
func TestServeObservedPanelSpanCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	var buf bytes.Buffer
	sink := telemetry.NewEventSink(&buf)
	progress := telemetry.NewProgress(io.Discard, time.Hour)
	_, hs := testServer(t, Options{Obs: telemetry.Observation{Tracer: telemetry.NewTracer(sink), Progress: progress.Beat}})
	spec := Spec{Kind: "fig3", Suite: "92", Benchmarks: []string{"compress"}}
	if status, body, _ := post(t, hs.URL, spec); status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, body)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if strings.HasPrefix(e.Name, "sim:") {
			got[e.Name]++
		}
	}
	want := map[string]int{"sim:perfect": 3, "sim:infinite-bw": 6, "sim:full": 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("simulation spans %v, want %v", got, want)
	}
}

// servedPanel is the byte-level view of a response: each cell's
// decomposition and counts exactly as served.
type servedPanel struct {
	Cells []struct {
		Key           string          `json:"key"`
		Source        string          `json:"source"`
		Decomposition json.RawMessage `json:"decomposition"`
		Counts        json.RawMessage `json:"counts"`
	} `json:"cells"`
}

// compactJSON strips the response's indentation from one payload.
func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestServeMatchesFigure3Pool is the batch-vs-serve differential test of
// the one cell path: for a SPEC92 and a SPEC95 benchmark, the A–F panel
// served over HTTP carries byte-identical decomposition and counts JSON
// to core.Figure3Pool's, and a second server over the same ledger
// directory serves the same bytes from disk. A spec that still carries
// the retired "twin" field is served the same cells: the field is
// ignored like any unknown one.
func TestServeMatchesFigure3Pool(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		suite       workload.Suite
		name, bench string
	}{{workload.SPEC92, "92", "compress"}, {workload.SPEC95, "95", "li"}} {
		prog, err := workload.Generate(tc.bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := core.Figure3Pool(tc.suite, []*workload.Program{prog}, 16, runner.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(batch))
		for i, c := range batch {
			d, err := json.Marshal(c.Result.Decomposition)
			if err != nil {
				t.Fatal(err)
			}
			n, err := json.Marshal(c.Result.Full)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = core.Figure3CellKey(tc.suite, c.Benchmark, c.Experiment) + " " + string(d) + " " + string(n)
		}

		spec := Spec{Kind: "fig3", Suite: tc.name, Benchmarks: []string{tc.bench}}
		var hs *httptest.Server
		var body []byte
		for round, wantSource := range []string{"computed", "cached"} {
			// Every cell is journaled before its response is written, so
			// the second server reads the first one's complete ledger.
			_, hs = testServer(t, Options{CheckpointDir: dir})
			var status int
			status, body, _ = post(t, hs.URL, spec)
			if status != http.StatusOK {
				t.Fatalf("%s round %d: status %d (%s)", tc.bench, round, status, body)
			}
			var got servedPanel
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Cells) != len(want) {
				t.Fatalf("%s round %d: %d cells, want %d", tc.bench, round, len(got.Cells), len(want))
			}
			for i, c := range got.Cells {
				line := c.Key + " " + compactJSON(t, c.Decomposition) + " " + compactJSON(t, c.Counts)
				if line != want[i] {
					t.Errorf("%s round %d cell %d:\n served: %s\n batch:  %s", tc.bench, round, i, line, want[i])
				}
				if c.Source != wantSource {
					t.Errorf("%s round %d cell %s: source %q, want %q", tc.bench, round, c.Key, c.Source, wantSource)
				}
			}
		}

		raw := fmt.Sprintf(`{"kind":"fig3","suite":%q,"benchmarks":[%q],"twin":true}`, tc.name, tc.bench)
		status, twinBody, _ := postRaw(t, hs.URL, []byte(raw))
		if status != http.StatusOK {
			t.Fatalf("%s with \"twin\":true: status %d (%s)", tc.bench, status, twinBody)
		}
		if got, want := cellsJSON(t, twinBody), cellsJSON(t, body); !bytes.Equal(got, want) {
			t.Errorf("%s with \"twin\":true served other cells:\n%s\nwant:\n%s", tc.bench, got, want)
		}
	}
}

// cellsJSON returns a response's cells exactly as served.
func cellsJSON(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	var r struct {
		Cells json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	return r.Cells
}

// TestServeFormat1LedgerIsStale: a format-1 serve ledger journaled
// {"decomposition","counts"} payloads. Read as today's DecomposeResult
// they would decode to zeros without an error, so the format bump must
// make such a ledger a counted stale re-run instead, even when the
// program that wrote it is this one.
func TestServeFormat1LedgerIsStale(t *testing.T) {
	dir := t.TempDir()
	flights := checkpoint.NewFlights(dir, nil, nil, nil)
	if _, _, err := flights.For(1, 16).Do(context.Background(), smallKey, func(context.Context) ([]byte, error) {
		return []byte(`{"decomposition":{"TP":7,"TI":8,"T":9},"counts":{"Cycles":9}}`), nil
	}); err != nil {
		t.Fatal(err)
	}
	flights.Close()
	ledgers, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(ledgers) != 1 {
		t.Fatalf("want one ledger in %s, got %v (%v)", dir, ledgers, err)
	}
	raw, err := os.ReadFile(ledgers[0])
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	file["format"] = json.RawMessage("1")
	old, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ledgers[0], old, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	_, hs := testServer(t, Options{CheckpointDir: dir, Obs: telemetry.Observation{Metrics: reg}})
	status, body, _ := post(t, hs.URL, smallSpec())
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, body)
	}
	c := decodeResult(t, body).Cells[0]
	if c.Source != "computed" || c.Decomposition.TP <= 0 || c.Decomposition.T == 9 {
		t.Errorf("format-1 ledger served: source %q, decomposition %+v; want a fresh computation", c.Source, c.Decomposition)
	}
	if got := reg.Snapshot().Counters["checkpoint.stale"]; got != 1 {
		t.Errorf("checkpoint.stale = %d, want 1", got)
	}
}
