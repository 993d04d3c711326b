// Determinism regression tests: the run manifest fingerprints results for
// cross-run comparison, so every simulated count — and every emitted
// table — must be byte-identical between in-process replays. These tests
// are the dynamic counterpart of the detlint analyzer.
package main

import (
	"fmt"
	"testing"

	"memwall/internal/core"
	"memwall/internal/workload"
)

// TestExperimentADeterministicReplay runs the experiment-A timing
// decomposition twice on the same generated workload and requires the
// rendered results (everything except simulator wall time) to agree
// exactly.
func TestExperimentADeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	p, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.MachineByName(p.Suite, "A", 16)
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		res, err := core.Decompose(m, p.Insts)
		if err != nil {
			t.Fatal(err)
		}
		// Wall is deliberately excluded: it measures the host, not the model.
		return fmt.Sprintf("%+v|%+v", res.Decomposition, res.Full)
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("experiment A decomposition differs between replays:\n run 1: %s\n run 2: %s", first, second)
	}
}

// TestTable7DeterministicReplay captures the full Table 7 traffic-ratio
// emission twice and requires byte-identical output.
func TestTable7DeterministicReplay(t *testing.T) {
	first := capture(t, func() error { return runTable7(nil) })
	second := capture(t, func() error { return runTable7(nil) })
	if first != second {
		t.Errorf("table7 output differs between replays:\n run 1:\n%s\n run 2:\n%s", first, second)
	}
}

// TestFig3ParallelDeterminism requires the Figure 3 emission under a
// parallel worker pool to be byte-identical to the serial path: the
// runner's ordered collection means -j only changes wall time, never
// output.
func TestFig3ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	serial := capture(t, func() error { return runFig3([]string{"-suite", "92", "-j", "1"}) })
	parallel := capture(t, func() error { return runFig3([]string{"-suite", "92", "-j", "8"}) })
	if serial != parallel {
		t.Errorf("fig3 output differs between -j 1 and -j 8:\n serial:\n%s\n parallel:\n%s", serial, parallel)
	}
}

// TestSelfcheckParallelDeterminism requires the selfcheck report under a
// parallel worker pool to be byte-identical to the serial path. The
// -benches subset keeps the runtime test-sized while still covering the
// sharded timing checks (li and su2cor appear in the decomposition-
// ordering and bus-width grids).
func TestSelfcheckParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	args := func(j string) []string { return []string{"-benches", "compress,li,su2cor", "-j", j} }
	serial := capture(t, func() error { return runSelfcheck(args("1")) })
	parallel := capture(t, func() error { return runSelfcheck(args("8")) })
	if serial != parallel {
		t.Errorf("selfcheck output differs between -j 1 and -j 8:\n serial:\n%s\n parallel:\n%s", serial, parallel)
	}
}

// TestTrafficTablesParallelDeterminism requires Tables 8 and 9, which
// run one pool task per trace, to print byte-identical tables under a
// serial and a parallel worker pool.
func TestTrafficTablesParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func([]string) error
	}{{"table8", runTable8}, {"table9", runTable9}} {
		serial := capture(t, func() error { return tc.run([]string{"-j", "1"}) })
		parallel := capture(t, func() error { return tc.run([]string{"-j", "8"}) })
		if serial != parallel {
			t.Errorf("%s output differs between -j 1 and -j 8:\n serial:\n%s\n parallel:\n%s", tc.name, serial, parallel)
		}
	}
}
