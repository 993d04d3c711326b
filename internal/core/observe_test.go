package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memwall/internal/attr"
	"memwall/internal/checkpoint"
	"memwall/internal/cpu"
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

	res, err := Decompose(m, prog.Insts)
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

// TestFigure3ProgressMatchesPlain is the observed-vs-unobserved
// differential for the heartbeat that serve and -progress attach: a
// Figure 3 panel over one program per suite (A–F, so both cores) returns
// the same decompositions with Obs.Progress set as without it, Wall
// aside. Each program runs past cpu.ProgressEvery instructions, so every
// simulation beats between chunks of its drain loop, not only at its
// end.
func TestFigure3ProgressMatchesPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	for _, tc := range []struct {
		suite workload.Suite
		bench string
	}{{workload.SPEC92, "compress"}, {workload.SPEC95, "li"}} {
		prog, err := workload.Generate(tc.bench, 6)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(len(prog.Insts))
		if n <= cpu.ProgressEvery {
			t.Fatalf("%s: %d insts never reach a periodic beat", tc.bench, n)
		}
		progs := []*workload.Program{prog}
		plain, err := Figure3Pool(tc.suite, progs, 16, runner.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var insts, periodic atomic.Int64
		beat := func(di, _ int64) {
			insts.Add(di)
			if di == cpu.ProgressEvery {
				periodic.Add(1)
			}
		}
		observed, err := Figure3Pool(tc.suite, progs, 16,
			runner.Config{Workers: 2, Obs: telemetry.Observation{Progress: beat}})
		if err != nil {
			t.Fatal(err)
		}
		for _, cells := range [][]BenchmarkDecomposition{plain, observed} {
			for i := range cells {
				cells[i].Result.Wall = PhaseWall{}
			}
		}
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("%s: the heartbeat changed the panel:\nplain    %+v\nobserved %+v", tc.bench, plain, observed)
		}
		sims := insts.Load() / n
		if insts.Load() != sims*n || sims == 0 || periodic.Load() != sims*(n/cpu.ProgressEvery) {
			t.Errorf("%s: heartbeat reported %d insts in %d periodic beats, want %d-instruction runs beating every %d",
				tc.bench, insts.Load(), periodic.Load(), n, cpu.ProgressEvery)
		}
	}
}

// TestAttributedFigure3MatchesPlain: attribution rides on the Figure 3
// cell path without changing what it computes. A compress A–F panel
// resolved with Machine.Attr set matches the plain Figure3Pool panel
// byte for byte, every attributed cell's core ledger closes at that
// cell's T, the traced attributed panel still shares its perfect runs
// (3/6/6 simulations), and a Flight holding the plain panel serves none
// of the attributed cells, which are keyed apart.
func TestAttributedFigure3MatchesPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	fl := checkpoint.NewFlight(nil, nil)
	plain, err := Figure3Pool(workload.SPEC92, []*workload.Program{prog}, 16, runner.Config{Workers: 2, Flight: fl})
	if err != nil {
		t.Fatal(err)
	}

	opts := attr.Options{Interval: 2048}
	var cells []Figure3Cell
	for _, m := range MachinesScaled(workload.SPEC92, 16) {
		m.Attr = &opts
		cells = append(cells, Figure3Cell{Suite: workload.SPEC92, Program: prog, Machine: m})
	}
	var buf bytes.Buffer
	sink := telemetry.NewEventSink(&buf)
	stats := &runner.CellStats{}
	pool := runner.Config{Workers: 2, Flight: fl, Cells: stats, Obs: telemetry.Observation{Tracer: telemetry.NewTracer(sink)}}
	attributed, err := ResolveFigure3(context.Background(), cells, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(attributed) != len(plain) {
		t.Fatalf("%d attributed cells, %d plain", len(attributed), len(plain))
	}
	if sum := stats.Summary(); sum.Computed != len(cells) {
		t.Errorf("attributed panel summary %+v: want all %d cells computed, none served from the plain panel", sum, len(cells))
	}
	for i, c := range cells {
		p, a := plain[i].Result, attributed[i]
		for _, f := range []struct {
			name string
			p, a any
		}{{"Decomposition", p.Decomposition, a.Decomposition}, {"Full", p.Full, a.Full}} {
			pj, err := json.Marshal(f.p)
			if err != nil {
				t.Fatal(err)
			}
			aj, err := json.Marshal(f.a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pj, aj) {
				t.Errorf("%s: %s differs:\n plain      %s\n attributed %s", c.Machine.Name, f.name, pj, aj)
			}
		}
		if p.Attr != nil {
			t.Errorf("%s: plain cell carries an attribution record", c.Machine.Name)
		}
		if a.Attr == nil {
			t.Errorf("%s: attributed cell has no attribution record", c.Machine.Name)
			continue
		}
		if led := a.Attr.Stalls; led.Cycles != int64(a.T) {
			t.Errorf("%s: ledger closed at %d cycles, cell T = %d", c.Machine.Name, led.Cycles, a.T)
		}
	}
	want := map[string]int{"sim:perfect": 3, "sim:infinite-bw": 6, "sim:full": 6}
	if got := simSpans(t, buf.String()); !reflect.DeepEqual(got, want) {
		t.Errorf("attributed panel simulation spans %v, want %v", got, want)
	}
}
