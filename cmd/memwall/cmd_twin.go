// The twin subcommand: calibrate the analytical twin against the cycle
// simulator, report its in-sample and held-out accuracy, and gate the
// in-sample accuracy. The twin is an analysis tool; no command serves
// cells from it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"memwall/internal/core"
	"memwall/internal/tablefmt"
	"memwall/internal/twin"
	"memwall/internal/workload"
)

func init() {
	register("twin", "calibrate the analytical twin (closed-form T_P/T_L/T_B) against the simulator", runTwin)
}

func runTwin(args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return usageErr(fmt.Errorf("usage: memwall twin calibrate [flags]"))
	}
	switch args[0] {
	case "calibrate":
		return runTwinCalibrate(args[1:])
	default:
		return usageErr(fmt.Errorf("unknown twin verb %q (want calibrate)", args[0]))
	}
}

// suiteList resolves the shared -suite flag value into a suite set.
func suiteList(name string) ([]workload.Suite, error) {
	if name == "both" {
		return []workload.Suite{workload.SPEC92, workload.SPEC95}, nil
	}
	s, err := parseSuite(name)
	if err != nil {
		return nil, err
	}
	return []workload.Suite{s}, nil
}

// calibrationGrids builds the per-suite benchmark grids: the full Figure 3
// panel by default, or the -benches subset (each name must belong to the
// suite it is requested for).
func calibrationGrids(suites []workload.Suite, benches string) ([]twin.SuiteGrid, error) {
	var grids []twin.SuiteGrid
	for _, suite := range suites {
		names := core.Figure3Benchmarks(suite)
		if benches != "" {
			have := make(map[string]bool, len(names))
			for _, n := range names {
				have[n] = true
			}
			var sel []string
			for _, n := range strings.Split(benches, ",") {
				n = strings.TrimSpace(n)
				if n == "" {
					continue
				}
				if have[n] {
					sel = append(sel, n)
				}
			}
			names = sel
		}
		if len(names) > 0 {
			grids = append(grids, twin.SuiteGrid{Suite: suite, Benches: names})
		}
	}
	if len(grids) == 0 {
		return nil, usageErr(fmt.Errorf("no calibration benchmarks selected"))
	}
	return grids, nil
}

func runTwinCalibrate(args []string) error {
	fs := flag.NewFlagSet("twin calibrate", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	workers := workersFlag(fs)
	suiteName := fs.String("suite", "both", "92, 95, or both")
	benches := fs.String("benches", "", "comma-separated benchmark subset (default: the full Figure 3 panel)")
	outPath := fs.String("o", "", "write the fitted model to this JSON file")
	check := fs.Bool("check", false, "fail when the global in-sample accuracy misses -max-mape or -min-r")
	maxMAPE := fs.Float64("max-mape", 10, "with -check: maximum global MAPE over Figure 3, percent")
	minR := fs.Float64("min-r", 0.98, "with -check: minimum global Pearson r over Figure 3")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	suites, err := suiteList(*suiteName)
	if err != nil {
		return usageErr(err)
	}
	grids, err := calibrationGrids(suites, *benches)
	if err != nil {
		return err
	}
	m, err := twin.Calibrate(twin.CalibrateOptions{
		Grids:      grids,
		Scale:      *scale,
		CacheScale: *cacheScale,
		Corpus:     activeCorpus(),
		Pool:       gridPool(*workers, nil),
	})
	if err != nil {
		return err
	}

	t := tablefmt.New(fmt.Sprintf("Analytical twin calibration (scale %d, cachescale %d)", m.Scale, m.CacheScale),
		"benchmark", "suite", "MAPE%", "r", "max err%", "held-out MAPE%", "held-out max%")
	for _, w := range m.Workloads {
		t.AddRow(w.Name, w.Suite,
			fmt.Sprintf("%.2f", 100*w.MAPE),
			fmt.Sprintf("%.4f", w.PearsonR),
			fmt.Sprintf("%.2f", 100*w.MaxRelErr),
			fmt.Sprintf("%.2f", 100*w.HeldOutMAPE),
			fmt.Sprintf("%.2f", 100*w.HeldOutMaxRelErr))
	}
	fmt.Println(t)
	cells := 0
	worst := m.Workloads[0]
	for _, w := range m.Workloads {
		if suite, err := parseSuite(w.Suite); err == nil {
			cells += len(core.MachinesScaled(suite, m.CacheScale))
		}
		if w.HeldOutMaxRelErr > worst.HeldOutMaxRelErr {
			worst = w
		}
	}
	fmt.Printf("global (normalized Figure 3, %d cells): MAPE %.2f%%, Pearson r %.4f\n",
		cells, 100*m.MAPE, m.PearsonR)
	fmt.Printf("held-out (T of each machine, refitted without it, %d cells): MAPE %.2f%%, worst %.2f%% (%s)\n",
		cells, 100*m.HeldOutMAPE, 100*worst.HeldOutMaxRelErr, worst.Name)
	fmt.Printf("prediction cost: %.2f µs/point (closed form; the simulator re-runs three full simulations per point)\n",
		predictMicros(m))
	fmt.Println()

	if *outPath != "" {
		if err := m.WriteFile(*outPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "twin: model written to %s\n", *outPath)
	}
	if *check {
		if 100*m.MAPE > *maxMAPE {
			return fmt.Errorf("twin accuracy check failed: global MAPE %.2f%% > %.2f%%", 100*m.MAPE, *maxMAPE)
		}
		if m.PearsonR < *minR {
			return fmt.Errorf("twin accuracy check failed: global Pearson r %.4f < %.4f", m.PearsonR, *minR)
		}
	}
	return nil
}

// predictMicros times the fitted predictor over the full calibrated grid
// and returns the mean microseconds per grid point. Host wall time, like
// the profile subcommand's throughput table — never part of simulated
// results.
func predictMicros(m *twin.Model) float64 {
	type wp struct {
		w  *twin.WorkloadModel
		pt twin.MachinePoint
	}
	var pts []wp
	for _, w := range m.Workloads {
		suite, err := parseSuite(w.Suite)
		if err != nil {
			continue
		}
		for _, mach := range core.MachinesScaled(suite, m.CacheScale) {
			pts = append(pts, wp{w, twin.PointFromMachine(mach)})
		}
	}
	if len(pts) == 0 {
		return 0
	}
	const reps = 2000
	//memlint:allow detlint predictor wall-clock cost measures the host, not simulated time
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := range pts {
			pts[i].w.Predict(&pts[i].pt)
		}
	}
	//memlint:allow detlint predictor wall-clock cost measures the host, not simulated time
	elapsed := time.Since(start)
	den := float64(reps * len(pts))
	if den < 1 {
		den = 1
	}
	return elapsed.Seconds() * 1e6 / den
}
