// Analytical-twin cost benchmarks: one Figure 3 grid point computed by
// the full three-simulation decomposition vs. predicted by the calibrated
// closed-form twin. benchjson pairs the Sim/Twin suffixes into a
// before/after row with its speedup, so the twin's per-point cost
// reduction is recorded in the bench-json artifact as data, not prose.
package memwall

import (
	"sync"
	"testing"

	"memwall/internal/core"
	"memwall/internal/runner"
	"memwall/internal/twin"
	"memwall/internal/workload"
)

var twinBench struct {
	once  sync.Once
	prog  *workload.Program
	model *twin.Model
	err   error
}

// twinBenchSetup generates the workload and calibrates a one-benchmark
// model once per process; the calibration's simulator grid is setup
// cost, never measured time.
func twinBenchSetup(b *testing.B) (*workload.Program, *twin.WorkloadModel, twin.MachinePoint) {
	b.Helper()
	twinBench.once.Do(func() {
		twinBench.prog, twinBench.err = workload.Generate("compress", 1)
		if twinBench.err != nil {
			return
		}
		twinBench.model, twinBench.err = twin.Calibrate(twin.CalibrateOptions{
			Grids:      []twin.SuiteGrid{{Suite: workload.SPEC92, Benches: []string{"compress"}}},
			Scale:      1,
			CacheScale: 16,
			Pool:       runner.Config{Workers: 0},
		})
	})
	if twinBench.err != nil {
		b.Fatal(twinBench.err)
	}
	w := twinBench.model.Find(workload.SPEC92, "compress")
	if w == nil {
		b.Fatal("calibrated model lacks compress")
	}
	m, err := core.MachineByName(workload.SPEC92, "D", 16)
	if err != nil {
		b.Fatal(err)
	}
	return twinBench.prog, w, twin.PointFromMachine(m)
}

// BenchmarkFig3PointSim is the before side: one (benchmark, experiment)
// cell by the full decomposition — three complete timing simulations
// (Perfect, InfiniteBW, Full).
func BenchmarkFig3PointSim(b *testing.B) {
	prog, _, _ := twinBenchSetup(b)
	m, err := core.MachineByName(workload.SPEC92, "D", 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompose(m, prog.Stream()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3PointTwin is the after side: the same cell predicted by
// the calibrated closed-form predictor (WorkloadModel.Predict, which
// calibration calls for every fitted and held-out point).
func BenchmarkFig3PointTwin(b *testing.B) {
	_, w, pt := twinBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := w.Predict(&pt); !p.Valid() {
			b.Fatal("invalid prediction")
		}
	}
}
