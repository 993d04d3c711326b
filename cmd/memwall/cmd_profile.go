// The `profile` subcommand: simulator-throughput measurement. It runs the
// full three-simulation decomposition for each of the paper's experiments
// A–F on one benchmark and reports how fast the simulator itself is —
// simulated cycles and instructions per wall-clock second — so performance
// regressions in the simulator show up as numbers, not vibes.
package main

import (
	"flag"
	"fmt"

	"memwall/internal/core"
	"memwall/internal/tablefmt"
	"memwall/internal/workload"
)

func init() {
	register("profile", "simulation-throughput table (sim-cycles/sec), experiments A-F", runProfile)
}

// parseSuite resolves profile's -suite value, which names one suite.
func parseSuite(s string) (workload.Suite, error) {
	suites, err := workload.ParseSuites(s)
	if err != nil || len(suites) != 1 {
		return 0, fmt.Errorf("unknown suite %q (want 92 or 95)", s)
	}
	return suites[0], nil
}

func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	suiteName := fs.String("suite", "92", "92 or 95")
	bench := benchFlag(fs, "bench", "compress", "`benchmark` to profile on")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	suite, err := parseSuite(*suiteName)
	if err != nil {
		return err
	}
	p, err := corpusProgram(*bench, *scale)
	if err != nil {
		return err
	}

	// The profile sweep is deliberately serial — it measures the
	// simulator's own single-stream throughput, which a worker pool would
	// distort — so there is no -j flag here.
	t := tablefmt.New(
		fmt.Sprintf("Simulator throughput on %s (%s, scale %d): three-run decomposition per experiment",
			*bench, suite, *scale),
		"exp", "insts/run", "T cycles", "wall ms", "sim-cycles/s", "sim-MIPS", "mem-refs/s")
	for _, m := range core.MachinesScaled(suite, *cacheScale) {
		m.Obs = observation()
		res, err := core.Decompose(m, p.Insts)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", m.Name, err)
		}
		wall := res.Wall.Total().Seconds()
		if wall <= 0 {
			wall = 1e-9
		}
		// Each of the three runs executes the same instruction stream, so
		// the simulator retired 3x the program's dynamic count; simulated
		// cycles are the three runs' execution times summed.
		simCycles := res.TP + res.TI + res.T
		simInsts := 3 * res.Full.Insts
		memRefs := res.Full.Mem.Loads + res.Full.Mem.Stores
		// Clamp like wall above: on a very fast run a zero-resolution
		// clock would otherwise put +Inf/NaN in the mem-refs/s column.
		fullWall := res.Wall.Full.Seconds()
		if fullWall <= 0 {
			fullWall = 1e-9
		}
		t.AddRow(m.Name,
			fmt.Sprintf("%d", res.Full.Insts),
			fmt.Sprintf("%d", res.T),
			fmt.Sprintf("%.1f", wall*1e3),
			fmt.Sprintf("%.2fM", float64(simCycles)/wall/1e6),
			fmt.Sprintf("%.2f", float64(simInsts)/wall/1e6),
			fmt.Sprintf("%.2fM", float64(memRefs)/fullWall/1e6))
	}
	// Table-level guard: the divisions above are all clamped, so a
	// non-finite cell means a guard regressed.
	if bad := t.NonFinite(); len(bad) > 0 {
		return fmt.Errorf("profile: non-finite table cells (division guard regressed): %v", bad)
	}
	fmt.Println(t)
	fmt.Println("(wall = all three simulations; mem-refs/s over the full-system run only)")
	fmt.Println()
	return nil
}
