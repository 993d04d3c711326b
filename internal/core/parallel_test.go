package core

import (
	"fmt"
	"strings"
	"testing"

	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// TestFigure3ParallelMatchesSerial runs the same two-benchmark grid
// serially and on eight workers and requires identical cells — the
// runner's ordered-collection guarantee applied to real simulations.
func TestFigure3ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	var progs []*workload.Program
	for _, name := range []string{"compress", "espresso"} {
		p, err := workload.Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	render := func(workers int) string {
		cells, err := Figure3Pool(workload.SPEC92, progs, 16, runner.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&b, "%s/%s %+v %.6f\n", c.Benchmark, c.Experiment, c.Result.Decomposition, c.NormTime)
		}
		return b.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Errorf("parallel Figure 3 differs from serial:\n serial:\n%s\n parallel:\n%s", serial, parallel)
	}
}

// TestFigure3ParallelAggregatesMetrics: the shared metrics registry must
// collect the same totals whether cells run serially or concurrently
// (counter adds commute).
func TestFigure3ParallelAggregatesMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	p, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	totals := func(workers int) int64 {
		reg := telemetry.NewRegistry()
		_, err := Figure3Pool(workload.SPEC92, []*workload.Program{p}, 16,
			runner.Config{Workers: workers, Obs: telemetry.Observation{Metrics: reg}})
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters["cpu.insts_retired"]
	}
	if s, par := totals(1), totals(6); s != par {
		t.Errorf("aggregated insts differ: serial %d, parallel %d", s, par)
	}
}

// TestFigure3MissingBaseError: a benchmark whose experiment A processing
// time is missing or zero must fail loudly instead of silently emitting
// NormTime 0 (which rendered as garbage bars downstream).
func TestFigure3MissingBaseError(t *testing.T) {
	prog := &workload.Program{Name: "broken", Suite: workload.SPEC92}
	machines := MachinesScaled(workload.SPEC92, 16)

	// Zero T_P for experiment A.
	zero := make([]DecomposeResult, len(machines))
	if _, err := normalizeFigure3([]*workload.Program{prog}, machines, zero); err == nil {
		t.Error("zero-T_P benchmark normalised without error")
	} else if !strings.Contains(err.Error(), "experiment A") {
		t.Errorf("error %q does not name the experiment A base", err)
	}

	// Experiment A absent from the machine list entirely.
	var noA []Machine
	for _, m := range machines {
		if m.Name != "A" {
			noA = append(noA, m)
		}
	}
	results := make([]DecomposeResult, len(noA))
	for i := range results {
		results[i].TP, results[i].TI, results[i].T = 100, 120, 150
	}
	if _, err := normalizeFigure3([]*workload.Program{prog}, noA, results); err == nil {
		t.Error("grid without experiment A normalised without error")
	}

	// Healthy grid normalises with A's own bar at T/T_P.
	good := make([]DecomposeResult, len(machines))
	for i := range good {
		good[i].TP, good[i].TI, good[i].T = 100, 120, 150
	}
	cells, err := normalizeFigure3([]*workload.Program{prog}, machines, good)
	if err != nil {
		t.Fatal(err)
	}
	if got := cells[0].NormTime; got != 1.5 {
		t.Errorf("experiment A NormTime = %v, want 1.5", got)
	}
}
