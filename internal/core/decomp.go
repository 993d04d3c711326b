// Package core implements the paper's primary analytical contribution:
//
//   - the decomposition of program execution time into processing time,
//     raw memory-latency stall time, and memory-bandwidth stall time
//     (Section 2, Equations 1–3), measured by the three-simulation method
//     of Section 3.1;
//   - traffic ratios and effective pin bandwidth (Section 4,
//     Equations 4–5);
//   - traffic inefficiency against a minimal-traffic cache and the upper
//     bound on effective pin bandwidth (Section 5, Equations 6–7), with
//     the factor-isolation experiments of Tables 9–10.
package core

import (
	"fmt"
	"time"

	"memwall/internal/attr"
	"memwall/internal/cpu"
	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/telemetry"
	"memwall/internal/units"
)

// Decomposition is the three-way split of a program's execution time.
// By construction FP + FL + FB = 1.
type Decomposition struct {
	// TP is execution time with a perfect memory system (every access
	// one cycle): pure processing time, including idle cycles caused by
	// limited ILP.
	TP units.Cycles
	// TI is execution time with infinitely-wide paths between all levels
	// of the hierarchy: processing plus intrinsic, contention-free
	// memory latency.
	TI units.Cycles
	// T is execution time with the full memory system.
	T units.Cycles
}

// FP returns the fraction of time spent processing (Equation 1).
func (d Decomposition) FP() float64 { return ratio(d.TP, d.T) }

// FL returns the fraction lost to untolerated intrinsic memory latency
// (Equation 2: (T_I - T_P) / T).
func (d Decomposition) FL() float64 { return ratio(d.TI-d.TP, d.T) }

// FB returns the fraction lost to insufficient bandwidth and memory-system
// contention (Equation 3: (T - T_I) / T).
func (d Decomposition) FB() float64 { return ratio(d.T-d.TI, d.T) }

func ratio(num, den units.Cycles) float64 {
	return units.Ratio(num, den)
}

// Validate checks the invariants the decomposition must satisfy: the
// perfect hierarchy is no slower than the infinitely-wide one, which is no
// slower than the full system.
func (d Decomposition) Validate() error {
	if d.TP <= 0 || d.TI <= 0 || d.T <= 0 {
		return fmt.Errorf("core: non-positive execution time in %+v", d)
	}
	if d.TP > d.TI {
		return fmt.Errorf("core: T_P (%d) exceeds T_I (%d)", d.TP, d.TI)
	}
	if d.TI > d.T {
		return fmt.Errorf("core: T_I (%d) exceeds T (%d)", d.TI, d.T)
	}
	return nil
}

// String renders the split, e.g. "f_P=0.61 f_L=0.17 f_B=0.22".
func (d Decomposition) String() string {
	return fmt.Sprintf("f_P=%.2f f_L=%.2f f_B=%.2f (T=%d)", d.FP(), d.FL(), d.FB(), d.T)
}

// Machine couples a processor configuration with a memory configuration —
// one column of the paper's Table 5 experiments.
type Machine struct {
	// Name labels the experiment ("A" through "F").
	Name string
	// CPU is the core configuration.
	CPU cpu.Config
	// Mem is the memory hierarchy configuration; its Mode field is
	// overridden per simulation run.
	Mem mem.Config
	// ClockMHz is the simulated processor clock, used to convert the
	// hierarchy's nanosecond latencies (recorded in Mem already as
	// cycles) and to report absolute bandwidths.
	ClockMHz int
	// Obs carries the optional telemetry hooks (metrics registry, phase
	// tracer, progress heartbeat) threaded through every simulation of
	// this machine. The zero value disables all instrumentation.
	Obs telemetry.Observation
	// Attr, when non-nil, attaches time attribution (stall ledger +
	// interval sampler, see internal/attr) with these options to the
	// full-system run only — the perfect and infinite-bandwidth runs are
	// methodological scaffolding, and attributing them would
	// double-count. Each Decompose builds the one collector for its full
	// run, so a Machine can be shared by concurrent cells.
	Attr *attr.Options
}

// PhaseWall records the wall-clock time each of the three simulations of
// Section 3.1 took — the simulator's own cost, not the simulated time.
// This is what `memwall profile` reports sim-cycles/sec against.
type PhaseWall struct {
	Perfect    time.Duration
	InfiniteBW time.Duration
	Full       time.Duration
}

// Total returns the summed wall time of the three phases.
func (w PhaseWall) Total() time.Duration {
	return w.Perfect + w.InfiniteBW + w.Full
}

// DecomposeResult bundles a decomposition with the full-system run's
// detailed statistics.
type DecomposeResult struct {
	Decomposition
	// Full is the result of the complete-memory-system simulation.
	Full cpu.Result
	// Wall is the simulator wall time per phase. It is host time, not
	// simulated, so it stays out of the JSON encoding: journaled, cached
	// and served cells carry deterministic outputs only (a cell the
	// Flight served reports zero), and a ledger's bytes depend on the
	// simulation alone.
	Wall PhaseWall `json:"-"`
	// Attr is the full run's attribution record when Machine.Attr was
	// set (nil otherwise). It serialises with the result, so checkpoint
	// ledgers replay it intact.
	Attr *attr.RunRecord
}

// Decompose measures T_P, T_I, and T for the instruction slice insts on
// machine m by running the three simulations of Section 3.1, and returns
// the decomposition. The three runs only read insts, so concurrent
// Decompose calls may share one Program.Insts.
//
// If m.Obs is populated, each simulation is traced as a span named
// "sim:<mode>", the progress heartbeat runs throughout, and the counters
// of the full-system run (only — the perfect and infinite-bandwidth runs
// are methodological scaffolding, and publishing them would triple-count
// every event) are folded into the metrics registry.
func Decompose(m Machine, insts []isa.Inst) (DecomposeResult, error) {
	return decompose(m, insts, nil)
}

// PerfectTime measures T_P alone: the perfect-memory simulation of
// Section 3.1, without the infinite-bandwidth and full runs. T_P depends
// only on the core configuration — Perfect mode answers every access in
// one cycle before touching the hierarchy — so machines that share a core
// (A/B/C, and D/E, in Table 5) share a single T_P per program, and grid
// sweeps compute it once (see ResolveFigure3). It is observed exactly as
// Decompose's perfect run is: one "sim:perfect" span and the progress
// heartbeat, no metrics.
func PerfectTime(m Machine, insts []isa.Inst) (units.Cycles, error) {
	cfg := m.Mem
	cfg.Mode = mem.Perfect
	h, err := mem.New(cfg)
	if err != nil {
		return 0, fmt.Errorf("machine %s: %w", m.Name, err)
	}
	sp := m.Obs.Tracer.StartSpan("sim:"+mem.Perfect.String(), map[string]any{"machine": m.Name})
	res, err := cpu.Run(m.CPU, h, insts, &cpu.Probe{Progress: m.Obs.Progress})
	sp.End()
	if err != nil {
		return 0, err
	}
	return units.Cycles(res.Cycles), nil
}

// DecomposeWithTP is Decompose with the perfect-memory run's cycle count
// supplied by the caller (from PerfectTime on a machine with an identical
// core). Only the infinite-bandwidth and full simulations run; Wall.Perfect
// is zero since no perfect simulation happened in this call.
func DecomposeWithTP(m Machine, insts []isa.Inst, tp units.Cycles) (DecomposeResult, error) {
	return decompose(m, insts, &tp)
}

func decompose(m Machine, insts []isa.Inst, sharedTP *units.Cycles) (DecomposeResult, error) {
	var out DecomposeResult
	var col *attr.Collector
	if m.Attr != nil {
		col = attr.New(*m.Attr, m.CPU.IssueWidth)
	}
	run := func(mode mem.Mode) (cpu.Result, time.Duration, error) {
		cfg := m.Mem
		cfg.Mode = mode
		probe := &cpu.Probe{Progress: m.Obs.Progress}
		if mode == mem.Full {
			probe.Metrics, probe.Attr = m.Obs.Metrics, col
		}
		h, err := mem.New(cfg)
		if err != nil {
			return cpu.Result{}, 0, fmt.Errorf("machine %s: %w", m.Name, err)
		}
		sp := m.Obs.Tracer.StartSpan("sim:"+mode.String(),
			map[string]any{"machine": m.Name})
		//memlint:allow detlint phase wall time measures the simulator itself, not simulated time
		start := time.Now()
		res, err := cpu.Run(m.CPU, h, insts, probe)
		wall := time.Since(start) //memlint:allow detlint simulator throughput, feeds `memwall profile`
		sp.End()
		return res, wall, err
	}
	var tp units.Cycles
	var wallP time.Duration
	if sharedTP != nil {
		tp = *sharedTP
	} else {
		perfect, w, err := run(mem.Perfect)
		if err != nil {
			return out, err
		}
		tp, wallP = units.Cycles(perfect.Cycles), w
	}
	infinite, wallI, err := run(mem.InfiniteBW)
	if err != nil {
		return out, err
	}
	full, wallF, err := run(mem.Full)
	if err != nil {
		return out, err
	}
	out.Wall = PhaseWall{Perfect: wallP, InfiniteBW: wallI, Full: wallF}
	out.TP = tp
	out.TI = units.Cycles(infinite.Cycles)
	out.T = units.Cycles(full.Cycles)
	out.Full = full
	// The infinitely-wide hierarchy can in rare corner cases finish a
	// couple of cycles "late" relative to the full system because cache
	// replacement interacts with prefetch timing; clamp monotonicity so
	// the decomposition invariant holds exactly.
	if out.TI < out.TP {
		out.TI = out.TP
	}
	if out.T < out.TI {
		out.T = out.TI
	}
	out.Attr = col.Record()
	return out, nil
}
