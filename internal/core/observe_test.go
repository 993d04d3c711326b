package core

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// Decompose with an Observation attached must time all three phases, emit
// one span per simulation, and publish the full-system run's counters.
func TestDecomposeObserved(t *testing.T) {
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MachineByName(workload.SPEC92, "C", 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := telemetry.NewEventSink(&buf)
	reg := telemetry.NewRegistry()
	m.Obs = telemetry.Observation{Metrics: reg, Tracer: telemetry.NewTracer(sink)}

	res, err := Decompose(m, prog.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall.Perfect <= 0 || res.Wall.InfiniteBW <= 0 || res.Wall.Full <= 0 {
		t.Errorf("phase wall times not recorded: %+v", res.Wall)
	}
	if res.Wall.Total() < res.Wall.Full {
		t.Error("total wall less than one phase")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		names = append(names, e.Name)
	}
	for _, want := range []string{"sim:perfect", "sim:infinite-bw", "sim:full"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q span in trace (got %v)", want, names)
		}
	}

	snap := reg.Snapshot()
	// Only the full-system run publishes: instructions counted once.
	if got := snap.Counters["cpu.insts_retired"]; got != res.Full.Insts {
		t.Errorf("cpu.insts_retired = %d, want %d (full run only)", got, res.Full.Insts)
	}
	if snap.Counters["mem.l1.misses"] != res.Full.Mem.L1Misses {
		t.Error("full-run L1 misses not published")
	}
	if _, ok := snap.Histograms["mem.l1.mshr_occupancy"]; !ok {
		t.Error("MSHR occupancy histogram not registered through Decompose")
	}
}

// An observed Figure3Pool wraps each benchmark in a span and aggregates
// counters across experiments.
func TestFigure3Observed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := telemetry.NewEventSink(&buf)
	reg := telemetry.NewRegistry()
	obs := telemetry.Observation{Metrics: reg, Tracer: telemetry.NewTracer(sink)}
	cells, err := Figure3Pool(workload.SPEC92, []*workload.Program{prog}, 16, runner.Config{Workers: 1, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	sink.Close()
	if !strings.Contains(buf.String(), "bench:compress") {
		t.Error("no benchmark span emitted")
	}
	var wantInsts int64
	for _, c := range cells {
		wantInsts += c.Result.Full.Insts
	}
	if got := reg.Snapshot().Counters["cpu.insts_retired"]; got != wantInsts {
		t.Errorf("aggregated insts = %d, want %d", got, wantInsts)
	}
}

// simSpans counts the "sim:<mode>" spans in a JSONL Chrome trace.
func simSpans(t *testing.T, trace string) map[string]int {
	t.Helper()
	n := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(trace), "\n") {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if strings.HasPrefix(e.Name, "sim:") {
			n[e.Name]++
		}
	}
	return n
}

// TestFigure3PoolObservedSpanCounts: observing a grid must not change
// what it computes. A SPEC92 A–F panel has three cores (A/B/C, D/E, F),
// so a traced and heartbeat-observed Figure3Pool runs exactly 3 perfect,
// 6 infinite-bandwidth and 6 full simulations — 15, not 18 — at any
// worker count.
func TestFigure3PoolObservedSpanCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 3} {
		var buf bytes.Buffer
		sink := telemetry.NewEventSink(&buf)
		progress := telemetry.NewProgress(io.Discard, time.Hour)
		obs := telemetry.Observation{Tracer: telemetry.NewTracer(sink), Progress: progress.Beat}
		if _, err := Figure3Pool(workload.SPEC92, []*workload.Program{prog}, 16, runner.Config{Workers: j, Obs: obs}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"sim:perfect": 3, "sim:infinite-bw": 6, "sim:full": 6}
		if got := simSpans(t, buf.String()); !reflect.DeepEqual(got, want) {
			t.Errorf("j=%d: simulation spans %v, want %v", j, got, want)
		}
	}
}

func TestObservationEnabled(t *testing.T) {
	var o telemetry.Observation
	if o.Enabled() {
		t.Error("zero Observation reports enabled")
	}
	o.Metrics = telemetry.NewRegistry()
	if !o.Enabled() {
		t.Error("Observation with registry reports disabled")
	}
}
