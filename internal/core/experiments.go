// The six machine configurations of the paper's Section 3 (Tables 4–5),
// experiments A through F, for both the SPEC92 and SPEC95 parameter sets.
package core

import (
	"context"
	"fmt"
	"sync"

	"memwall/internal/cpu"
	"memwall/internal/mem"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/units"
	"memwall/internal/workload"
)

// nsToCycles converts a latency in nanoseconds to processor cycles at the
// given clock, rounding up.
func nsToCycles(ns float64, clockMHz int) int64 {
	cycles := ns * float64(clockMHz) / 1000.0
	c := int64(cycles)
	if float64(c) < cycles {
		c++
	}
	return c
}

// memConfig builds the Table 4 memory system for a suite at a clock. The
// cacheScale divisor shrinks the cache capacities to match size-reduced
// workloads (see MachinesScaled).
func memConfig(suite workload.Suite, clockMHz int, l1Block, l2Block, mshrs int, prefetch bool, cacheScale int) mem.Config {
	busRatio := 3 // bus/proc clock 1/3 (SPEC92)
	l1Size := 128 * 1024
	l2Size := 1 << 20
	if suite == workload.SPEC95 {
		busRatio = 4       // bus/proc clock 1/4 (SPEC95)
		l1Size = 64 * 1024 // 64KB data cache (the I-cache is untimed here)
		l2Size = 2 << 20
	}
	if cacheScale > 1 {
		l1Size /= cacheScale
		l2Size /= cacheScale
		if min := 8 * l1Block; l1Size < min {
			l1Size = min
		}
		if min := 16 * l2Block; l2Size < min {
			l2Size = min
		}
	}
	return mem.Config{
		L1: mem.LevelConfig{
			Size: l1Size, BlockSize: l1Block, Assoc: 1,
			AccessCycles: 1, MSHRs: mshrs,
		},
		L2: mem.LevelConfig{
			Size: l2Size, BlockSize: l2Block, Assoc: 4,
			AccessCycles: nsToCycles(30, clockMHz), MSHRs: 8,
		},
		L1L2Bus:         mem.BusConfig{WidthBytes: 16, Ratio: busRatio}, // 128 bits
		MemBus:          mem.BusConfig{WidthBytes: 8, Ratio: busRatio},  // 64 bits
		MemAccessCycles: nsToCycles(90, clockMHz),
		TaggedPrefetch:  prefetch,
	}
}

// cpuConfig builds a Table 5 core.
func cpuConfig(suite workload.Suite, ooo bool, big bool) cpu.Config {
	cfg := cpu.Config{
		IssueWidth:        4,
		LSUnits:           2,
		PredictorEntries:  8 * 1024,
		MispredictPenalty: 3,
	}
	if suite == workload.SPEC95 {
		cfg.PredictorEntries = 16 * 1024
	}
	if ooo {
		cfg.OutOfOrder = true
		cfg.MispredictPenalty = 7
		if suite == workload.SPEC92 {
			cfg.RUUSlots, cfg.LSQEntries = 16, 8
			if big {
				cfg.RUUSlots, cfg.LSQEntries = 64, 32
			}
		} else {
			cfg.RUUSlots, cfg.LSQEntries = 64, 32
			if big {
				cfg.RUUSlots, cfg.LSQEntries = 128, 64
			}
		}
	}
	return cfg
}

// Machines returns the paper's experiments A–F for a benchmark suite with
// the exact Table 4 cache sizes:
//
//	A  in-order, blocking caches, 32B/64B blocks
//	B  in-order, blocking caches, 64B/128B blocks
//	C  in-order, lockup-free caches, 32B/64B blocks
//	D  out-of-order (RUU), lockup-free
//	E  D plus tagged prefetching
//	F  E with a larger RUU/LSQ and a faster clock
func Machines(suite workload.Suite) []Machine {
	return MachinesScaled(suite, 1)
}

// MachinesScaled returns the experiments with L1 and L2 capacities divided
// by cacheScale. The surrogate workloads are size-reduced relative to the
// SPEC data sets (Table 3) so that simulations stay fast; dividing the
// caches by the same factor preserves the data-set-to-cache ratios that
// produce the paper's stall structure (the SPEC95 data sets are 4–16x the
// 2MB L2; an unscaled L2 would hold the reduced workloads entirely and
// hide every bandwidth stall).
func MachinesScaled(suite workload.Suite, cacheScale int) []Machine {
	clock := 300
	fClock := 300
	if suite == workload.SPEC95 {
		clock = 400
		fClock = 600
	}
	const lockupFree = 8 // MSHRs in the lockup-free configurations
	ms := []Machine{
		{Name: "A", CPU: cpuConfig(suite, false, false),
			Mem: memConfig(suite, clock, 32, 64, 1, false, cacheScale), ClockMHz: clock},
		{Name: "B", CPU: cpuConfig(suite, false, false),
			Mem: memConfig(suite, clock, 64, 128, 1, false, cacheScale), ClockMHz: clock},
		{Name: "C", CPU: cpuConfig(suite, false, false),
			Mem: memConfig(suite, clock, 32, 64, lockupFree, false, cacheScale), ClockMHz: clock},
		{Name: "D", CPU: cpuConfig(suite, true, false),
			Mem: memConfig(suite, clock, 32, 64, lockupFree, false, cacheScale), ClockMHz: clock},
		{Name: "E", CPU: cpuConfig(suite, true, false),
			Mem: memConfig(suite, clock, 32, 64, lockupFree, true, cacheScale), ClockMHz: clock},
		{Name: "F", CPU: cpuConfig(suite, true, true),
			Mem: memConfig(suite, fClock, 32, 64, lockupFree, true, cacheScale), ClockMHz: fClock},
	}
	return ms
}

// MachineByName returns the named experiment for a suite at the given
// cache scale (see MachinesScaled).
func MachineByName(suite workload.Suite, name string, cacheScale int) (Machine, error) {
	for _, m := range MachinesScaled(suite, cacheScale) {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("core: unknown experiment %q (want A-F)", name)
}

// perfectKey identifies a (program, core) pair for perfect-run sharing.
// cpu.Config holds hardware fields only, so the whole value is the core.
type perfectKey struct {
	prog string
	cpu  cpu.Config
}

// Figure3Benchmarks returns the Figure 3 benchmark panel for a suite:
// every benchmark of the suite, except that the paper's SPEC92 panel
// omits dnasa2 (it appears only in the trace-driven traffic studies).
func Figure3Benchmarks(suite workload.Suite) []string {
	names := workload.SuiteNames(suite)
	if suite != workload.SPEC92 {
		return names
	}
	out := names[:0:0]
	for _, n := range names {
		if n != "dnasa2" {
			out = append(out, n)
		}
	}
	return out
}

// Figure3CellKey names one cell of the Figure 3 grid: the stable
// identity under which the checkpoint ledger and its Flight journal,
// memoize and coalesce cells, whichever caller asks. Keys are
// suite-qualified so the SPEC92 and SPEC95 grids of one invocation never
// collide.
func Figure3CellKey(suite workload.Suite, benchmark, experiment string) string {
	return "fig3:" + suite.String() + ":" + benchmark + "/" + experiment
}

// Figure3Cell is one cell of a Figure 3 grid: a program run on one
// experiment machine of a suite.
type Figure3Cell struct {
	Suite   workload.Suite
	Program *workload.Program
	Machine Machine
}

// ResolveFigure3 is the one place a list of Figure 3 cells is resolved;
// Figure3Pool, `memwall table6`, `memwall explain` and the simulation
// service all call it. The cells run on pool (see internal/runner), keyed
// by Figure3CellKey and with spans named "bench:<program>/<experiment>",
// so the pool's Flight addresses cells the same way whichever caller
// asks. A cell whose machine carries attribution options (Machine.Attr)
// is keyed "explain:<suite>:<program>/<experiment>@<interval>/<max
// samples>" instead: its result carries an attribution record sampled
// under those options, so a Flight never serves one kind of cell, or one
// sampling, in place of another. Results come back in cell order.
//
// T_P depends only on the core configuration (see PerfectTime), and
// Table 5 reuses cores across machines — A/B/C share one, D/E another —
// so each (program, core) pair in cells needs a single perfect run, not
// one per machine: an A–F panel costs 15 simulations, not 18. The
// perfect run is keyed up front and filled lazily under a sync.Once, so
// concurrent cells agree on its value and cells the Flight answers
// never pay for it. Sharing holds whether or not the pool is observed
// or the cells attributed: the shared run emits its own "sim:perfect"
// span and progress beats once, and only full-system runs publish
// metrics or attribution, so observing a run never changes what it
// computes.
func ResolveFigure3(ctx context.Context, cells []Figure3Cell, pool runner.Config) ([]DecomposeResult, error) {
	obs := pool.Obs
	pool.TaskName = func(i int) string { return "bench:" + cells[i].Program.Name + "/" + cells[i].Machine.Name }
	pool.CellKey = func(i int) string {
		c := cells[i]
		if a := c.Machine.Attr; a != nil {
			return fmt.Sprintf("explain:%s:%s/%s@%d/%d", c.Suite, c.Program.Name, c.Machine.Name, a.Interval, a.MaxSamples)
		}
		return Figure3CellKey(c.Suite, c.Program.Name, c.Machine.Name)
	}
	type tpEntry struct {
		once sync.Once
		tp   units.Cycles
		err  error
	}
	tpCache := make(map[perfectKey]*tpEntry)
	for _, c := range cells {
		k := perfectKey{c.Program.Name, c.Machine.CPU}
		if tpCache[k] == nil {
			tpCache[k] = &tpEntry{}
		}
	}
	return runner.Map(ctx, pool, len(cells),
		func(ctx context.Context, i int, tracer *telemetry.Tracer) (DecomposeResult, error) {
			c := cells[i]
			m := c.Machine
			// Metrics and Progress are shared, concurrency-safe hooks; the
			// tracer is re-based onto this worker's track.
			m.Obs = telemetry.Observation{Metrics: obs.Metrics, Tracer: tracer, Progress: obs.Progress}
			e := tpCache[perfectKey{c.Program.Name, m.CPU}]
			e.once.Do(func() {
				// Stands if PerfectTime panics, so the cells waiting on
				// this Once fail instead of decomposing against T_P = 0.
				e.err = fmt.Errorf("shared perfect run on machine %s did not complete", m.Name)
				e.tp, e.err = PerfectTime(m, c.Program.Insts)
			})
			res, err := DecomposeResult{}, e.err
			if err == nil {
				res, err = DecomposeWithTP(m, c.Program.Insts, e.tp)
			}
			if err != nil {
				return DecomposeResult{}, fmt.Errorf("%s/%s: %w", c.Program.Name, m.Name, err)
			}
			return res, nil
		})
}

// BenchmarkDecomposition is one cell of Figure 3: a benchmark run on one
// experiment machine.
type BenchmarkDecomposition struct {
	Benchmark  string
	Experiment string
	Result     DecomposeResult
	// NormTime is execution time normalised to experiment A's processing
	// time T_P, the y-axis of Figure 3.
	NormTime float64
}

// Figure3 runs all six experiments over the given programs and normalises
// each benchmark's execution times to experiment A's T_P, reproducing the
// bars of the paper's Figure 3. cacheScale shrinks the hierarchy to match
// size-reduced workloads (see MachinesScaled); pass 1 for the paper-exact
// Table 4 sizes.
func Figure3(suite workload.Suite, progs []*workload.Program, cacheScale int) ([]BenchmarkDecomposition, error) {
	return Figure3Pool(suite, progs, cacheScale, runner.Config{Workers: 1})
}

// Figure3Pool is Figure3 over a caller-supplied pool: its worker count
// (<= 0 selects GOMAXPROCS, 1 reproduces the serial sweep bit-for-bit),
// telemetry hooks, and — for a crash-safe CLI run — its Flight and fault
// injector (see cmd/memwall's -checkpoint-dir and -fault-schedule). The
// (benchmark × experiment) grid resolves through
// ResolveFigure3, and results are collected in grid order, so the
// returned slice is byte-identical however the cells were scheduled.
//
// A benchmark whose experiment A processing time is unavailable or zero
// is an explicit error rather than a silent NormTime of 0 (which
// rendered as garbage bars in plots and tables).
func Figure3Pool(suite workload.Suite, progs []*workload.Program, cacheScale int, pool runner.Config) ([]BenchmarkDecomposition, error) {
	machines := MachinesScaled(suite, cacheScale)
	cells := make([]Figure3Cell, 0, len(progs)*len(machines))
	for _, p := range progs {
		for _, m := range machines {
			cells = append(cells, Figure3Cell{Suite: suite, Program: p, Machine: m})
		}
	}
	results, err := ResolveFigure3(context.Background(), cells, pool)
	if err != nil {
		return nil, err
	}
	return normalizeFigure3(progs, machines, results)
}

// normalizeFigure3 turns the raw grid results (benchmark-major, machine-
// minor, matching the cell order of Figure3Pool) into Figure 3 cells
// normalised to experiment A's processing time T_P. A benchmark with no
// experiment A result, or one whose T_P is zero, is an explicit error:
// the historical behaviour of silently emitting NormTime 0 rendered as
// garbage bars in the plots and tables downstream.
func normalizeFigure3(progs []*workload.Program, machines []Machine, results []DecomposeResult) ([]BenchmarkDecomposition, error) {
	nm := len(machines)
	out := make([]BenchmarkDecomposition, 0, len(results))
	for bi, p := range progs {
		var baseTP units.Cycles
		for mi, m := range machines {
			if m.Name == "A" {
				baseTP = results[bi*nm+mi].TP
			}
		}
		if baseTP <= 0 {
			return nil, fmt.Errorf("core: %s: experiment A missing or zero processing time (T_P=%d); cannot normalise Figure 3", p.Name, baseTP)
		}
		for mi, m := range machines {
			res := results[bi*nm+mi]
			if m.ClockMHz <= 0 {
				return nil, fmt.Errorf("core: machine %s has nonpositive clock %d MHz", m.Name, m.ClockMHz)
			}
			// Clock changes (experiment F) rescale cycle counts;
			// normalise in wall-clock terms.
			scale := float64(machines[0].ClockMHz) / float64(m.ClockMHz)
			out = append(out, BenchmarkDecomposition{
				Benchmark:  p.Name,
				Experiment: m.Name,
				Result:     res,
				NormTime:   float64(res.T) * scale / float64(baseTP),
			})
		}
	}
	return out, nil
}
