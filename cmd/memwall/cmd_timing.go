// Subcommands for the execution-driven timing studies: Figure 3 and
// Tables 1 and 6.
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"memwall/internal/core"
	"memwall/internal/mem"
	"memwall/internal/runner"
	"memwall/internal/tablefmt"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

func init() {
	register("fig3", "Figure 3: execution-time decomposition, experiments A-F", runFig3)
	register("table6", "Table 6: latency vs bandwidth stalls, experiments A vs F", runTable6)
	register("table1", "Table 1: measured direction of f_P/f_L/f_B under machine changes", runTable1)
}

// generatePrograms returns the named programs in order.
func generatePrograms(names []string, scale int) ([]*workload.Program, error) {
	var progs []*workload.Program
	for _, name := range names {
		// Programs come from the corpus so fig3/table6 runs in the same
		// invocation (e.g. `memwall all`) share one generation each.
		p, err := corpusProgram(name, scale)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

func runFig3(args []string) error {
	fs := flag.NewFlagSet("fig3", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	workers := workersFlag(fs)
	suiteName := fs.String("suite", "both", "92, 95, or both")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	suites, err := workload.ParseSuites(*suiteName)
	if err != nil {
		return usageErr(err)
	}
	for _, suite := range suites {
		progs, err := generatePrograms(core.Figure3Benchmarks(suite), *scale)
		if err != nil {
			return err
		}
		// gridPool threads the run's Flight and fault injector through;
		// Figure3Pool names the cells (suite-qualified keys in the ledger).
		cells, err := core.Figure3Pool(suite, progs, *cacheScale, gridPool(*workers, nil))
		if err != nil {
			return err
		}
		t := tablefmt.New(fmt.Sprintf("Figure 3 (%s): normalized execution time and decomposition", suite),
			"benchmark", "exp", "norm T", "f_P", "f_L", "f_B", "IPC", "mispred%")
		for _, c := range cells {
			r := c.Result
			mp := 0.0
			if r.Full.Branches > 0 {
				mp = 100 * float64(r.Full.Mispredicts) / float64(r.Full.Branches)
			}
			t.AddRow(c.Benchmark, c.Experiment,
				fmt.Sprintf("%.2f", c.NormTime),
				fmt.Sprintf("%.2f", r.FP()),
				fmt.Sprintf("%.2f", r.FL()),
				fmt.Sprintf("%.2f", r.FB()),
				fmt.Sprintf("%.2f", r.Full.IPC()),
				fmt.Sprintf("%.1f", mp))
		}
		fmt.Println(t)
		printFig3Bars(cells)
	}
	return nil
}

// printFig3Bars renders the Figure 3 stacked bars in ASCII: '#' processing
// time, 'L' latency stalls, 'B' bandwidth stalls, scaled to normalised
// execution time.
func printFig3Bars(cells []core.BenchmarkDecomposition) {
	const unit = 30.0 // characters per 1.0 normalised time
	cur := ""
	for _, c := range cells {
		if c.Benchmark != cur {
			cur = c.Benchmark
			fmt.Printf("%s:\n", cur)
		}
		total := c.NormTime * unit
		p := int(c.Result.FP() * total)
		l := int(c.Result.FL() * total)
		b := int(total) - p - l
		if b < 0 {
			b = 0
		}
		fmt.Printf("  %s |%s%s%s .%02.0f\n", c.Experiment,
			strings.Repeat("#", p), strings.Repeat("L", l), strings.Repeat("B", b),
			c.Result.FB()*100)
	}
	fmt.Println("  (# processing, L latency stalls, B bandwidth stalls; label = f_B)")
	fmt.Println()
}

func runTable6(args []string) error {
	fs := flag.NewFlagSet("table6", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	workers := workersFlag(fs)
	suiteName := fs.String("suite", "both", "92, 95, or both")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	suites, err := workload.ParseSuites(*suiteName)
	if err != nil {
		return usageErr(err)
	}
	// Table 6 is the A and F columns of Figure 3: the same cells, keyed
	// and cached alike, resolved by the same function.
	var cells []core.Figure3Cell
	for _, suite := range suites {
		progs, err := generatePrograms(core.Figure3Benchmarks(suite), *scale)
		if err != nil {
			return err
		}
		for _, p := range progs {
			for _, expName := range []string{"A", "F"} {
				m, err := core.MachineByName(suite, expName, *cacheScale)
				if err != nil {
					return err
				}
				cells = append(cells, core.Figure3Cell{Suite: suite, Program: p, Machine: m})
			}
		}
	}
	results, err := core.ResolveFigure3(context.Background(), cells, gridPool(*workers, nil))
	if err != nil {
		return fmt.Errorf("table6: %w", err)
	}
	t := tablefmt.New("Table 6: latency vs bandwidth stalls (% of execution time), experiments A and F",
		"benchmark", "A: f_L%", "A: f_B%", "F: f_L%", "F: f_B%", "F: f_B>f_L")
	for i := 0; i < len(results); i += 2 {
		a, f := results[i], results[i+1]
		t.AddRow(cells[i].Program.Name,
			fmt.Sprintf("%.1f", a.FL()*100), fmt.Sprintf("%.1f", a.FB()*100),
			fmt.Sprintf("%.1f", f.FL()*100), fmt.Sprintf("%.1f", f.FB()*100),
			fmt.Sprintf("%v", f.FB() > f.FL()))
	}
	fmt.Println(t)
	return nil
}

// runTable1 measures the directional claims of the paper's Table 1 by
// toggling individual machine features on a composite workload and
// reporting how f_P, f_L, f_B move.
func runTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	workers := workersFlag(fs)
	bench := benchFlag(fs, "bench", "su2cor", "`benchmark` to ablate")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	p, err := corpusProgram(*bench, *scale)
	if err != nil {
		return err
	}
	base, err := core.MachineByName(workload.SPEC92, "C", *cacheScale)
	if err != nil {
		return err
	}
	base.Obs = observation()
	baseRes, err := core.Decompose(base, p.Insts)
	if err != nil {
		return err
	}

	t := tablefmt.New(fmt.Sprintf("Table 1 (measured on %s): effect of machine changes on the decomposition", *bench),
		"change", "f_P", "f_L", "f_B", "dir f_B")
	addRow := func(name string, d core.Decomposition) {
		dir := "="
		switch {
		case d.FB() > baseRes.FB()+0.005:
			dir = "up"
		case d.FB() < baseRes.FB()-0.005:
			dir = "down"
		}
		t.AddRow(name,
			fmt.Sprintf("%.2f", d.FP()),
			fmt.Sprintf("%.2f", d.FL()),
			fmt.Sprintf("%.2f", d.FB()),
			dir)
	}
	addRow("baseline (exp C)", baseRes.Decomposition)

	variants := []struct {
		name string
		mut  func(m *core.Machine)
	}{
		{"blocking cache (lockup-free off)", func(m *core.Machine) { m.Mem.L1.MSHRs = 1; m.Mem.L2.MSHRs = 1 }},
		{"larger cache blocks (64B/128B)", func(m *core.Machine) { m.Mem.L1.BlockSize = 64; m.Mem.L2.BlockSize = 128 }},
		{"tagged prefetching", func(m *core.Machine) { m.Mem.TaggedPrefetch = true }},
		{"stream buffers (4x4)", func(m *core.Machine) {
			m.Mem.StreamBuffers = mem.StreamBufferConfig{Buffers: 4, Depth: 4}
		}},
		{"victim cache (4 entries)", func(m *core.Machine) {
			m.Mem.VictimCache = mem.VictimCacheConfig{Entries: 4}
		}},
		{"out-of-order core", func(m *core.Machine) {
			m.CPU.OutOfOrder = true
			m.CPU.RUUSlots, m.CPU.LSQEntries, m.CPU.MispredictPenalty = 16, 8, 7
		}},
		{"faster clock (2x)", fasterClock},
		{"narrower buses (half width)", func(m *core.Machine) {
			m.Mem.L1L2Bus.WidthBytes /= 2
			m.Mem.MemBus.WidthBytes /= 2
		}},
		{"better packaging (2x bus width)", func(m *core.Machine) {
			m.Mem.L1L2Bus.WidthBytes *= 2
			m.Mem.MemBus.WidthBytes *= 2
		}},
	}
	decomps, err := runner.Map(context.Background(), gridPool(*workers, func(i int) string {
		return "table1:" + variants[i].name
	}), len(variants), func(ctx context.Context, i int, tracer *telemetry.Tracer) (core.Decomposition, error) {
		v := variants[i]
		m := base
		v.mut(&m)
		m.Obs = taskObservation(tracer)
		res, err := core.Decompose(m, p.Insts)
		if err != nil {
			return core.Decomposition{}, fmt.Errorf("%s: %w", v.name, err)
		}
		return res.Decomposition, nil
	})
	if err != nil {
		return err
	}
	for i, v := range variants {
		addRow(v.name, decomps[i])
	}
	fmt.Println(t)
	fmt.Println("Paper Table 1 predicts f_B rises for latency-tolerance and processor")
	fmt.Println("trends (rows A-B) and falls for packaging/memory trends (rows C).")
	fmt.Println()
	return nil
}

// fasterClock doubles m's processor clock in the same package: absolute
// memory and bus speeds are unchanged, so their costs in (now faster)
// processor cycles double.
func fasterClock(m *core.Machine) {
	m.ClockMHz *= 2
	m.Mem.L2.AccessCycles *= 2
	m.Mem.MemAccessCycles *= 2
	m.Mem.L1L2Bus.Ratio *= 2
	m.Mem.MemBus.Ratio *= 2
}
