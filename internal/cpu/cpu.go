// Package cpu implements the processor timing models of the paper's
// Section 3 experiments: a four-way superscalar in-order core with two
// load/store units (experiments A–C) and an out-of-order core organised
// around a Register Update Unit with speculative loads and a load/store
// queue (experiments D–F), both driven by dynamic instruction slices
// (internal/isa) against a timing memory hierarchy (internal/mem).
package cpu

import (
	"fmt"

	"memwall/internal/attr"
	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/telemetry"
)

// Latency table for operation classes, in cycles. Values follow common
// mid-1990s pipelines (and SimpleScalar defaults): single-cycle integer
// ALU, 3-cycle multiply, 2-cycle FP add, 4-cycle FP multiply, 12-cycle FP
// divide. The array spans the full uint8 Op range so indexing by an Op
// compiles without a bounds check on the per-instruction path.
var latency = [256]int64{
	isa.Nop:    1,
	isa.IALU:   1,
	isa.IMul:   3,
	isa.FAdd:   2,
	isa.FMul:   4,
	isa.FDiv:   12,
	isa.Load:   1, // address generation; memory time comes from the hierarchy
	isa.Store:  1,
	isa.Branch: 1,
}

// Latency returns the execution latency of an op class in cycles.
func Latency(op isa.Op) int64 { return latency[op] }

// Config parameterises a core. It holds hardware parameters only, so it
// is comparable; instrumentation travels in a Probe.
type Config struct {
	// IssueWidth is instructions issued per cycle (4 in all experiments).
	IssueWidth int
	// LSUnits is the number of load/store units (2 in all experiments).
	LSUnits int
	// OutOfOrder selects the RUU core (experiments D–F) over the
	// in-order core (experiments A–C).
	OutOfOrder bool
	// RUUSlots is the register-update-unit window size (Table 5).
	// Ignored by the in-order core.
	RUUSlots int
	// LSQEntries is the load/store queue size. Ignored by the in-order
	// core.
	LSQEntries int
	// PredictorEntries sizes the two-level branch predictor table
	// (8K for SPEC92 runs, 16K for SPEC95 runs).
	PredictorEntries int
	// MispredictPenalty is the fetch-redirect cost in cycles after a
	// mispredicted branch resolves.
	MispredictPenalty int64
}

// ProgressEvery is the heartbeat period in retired instructions: a
// probe's Progress callback runs every ProgressEvery instructions and
// once at the end of the run.
const ProgressEvery = 1 << 20

// Probe is the instrumentation one run carries into Run, and the only
// way instrumentation reaches the core and its hierarchy: Config and
// mem.Config describe hardware alone. A nil *Probe is off, as is a Probe
// whose fields are all nil. A run without a collector takes the cores'
// fused drain loop, in chunks that end at the heartbeat's beats when
// Progress is set; only a run with a collector steps one instruction at
// a time.
type Probe struct {
	// Progress, when non-nil, is called with (instructions, cycles)
	// deltas every ProgressEvery retired instructions and once at the
	// end of the run — the heartbeat behind `memwall -progress`.
	Progress func(insts, cycles int64)
	// Metrics, when non-nil, receives the run's counters (instructions
	// retired, stall cycles by cause, branch mispredicts, and the memory
	// hierarchy's per-level statistics) at the end of Run, and the
	// hierarchy's MSHR-occupancy histograms during it.
	Metrics *telemetry.Registry
	// Attr, when non-nil, receives time attribution for the run: a
	// stall ledger charging every lost issue slot to a cause taxonomy
	// and an interval sampler of core/memory state (see internal/attr).
	// It also turns on the hierarchy's latency-only bookkeeping, so load
	// waits split into latency and bandwidth causes.
	Attr *attr.Collector
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IssueWidth < 1 {
		return fmt.Errorf("cpu: issue width %d < 1", c.IssueWidth)
	}
	if c.LSUnits < 1 {
		return fmt.Errorf("cpu: load/store units %d < 1", c.LSUnits)
	}
	if c.OutOfOrder {
		if c.RUUSlots < 1 {
			return fmt.Errorf("cpu: RUU slots %d < 1", c.RUUSlots)
		}
		if c.LSQEntries < 1 {
			return fmt.Errorf("cpu: LSQ entries %d < 1", c.LSQEntries)
		}
	}
	if c.PredictorEntries < 1 {
		return fmt.Errorf("cpu: predictor entries %d < 1", c.PredictorEntries)
	}
	return nil
}

// Result summarises one timing simulation.
type Result struct {
	// Cycles is total execution time in processor cycles.
	Cycles int64
	// Insts is the number of dynamic instructions executed.
	Insts int64
	// Loads, Stores, Branches count dynamic instruction classes.
	Loads    int64
	Stores   int64
	Branches int64
	// Mispredicts counts branch mispredictions.
	Mispredicts int64
	// Issue-stall cycle attribution. Each field counts processor cycles
	// the issue (in-order) or dispatch (out-of-order) point could not
	// advance, attributed to the binding constraint:
	//
	//   StallFetch   — fetch redirect after a branch misprediction;
	//   StallOperand — waiting on operand values (includes load-use
	//                  latency, so memory stalls surface here);
	//   StallLS      — all load/store units busy (structural);
	//   StallWindow  — RUU or LSQ full (out-of-order core only).
	StallFetch   int64
	StallOperand int64
	StallLS      int64
	StallWindow  int64
	// Mem is the memory hierarchy's statistics for the run.
	Mem mem.Stats
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Insts)
}

// Run simulates insts on a core configured by cfg against hierarchy h and
// returns the result. Run only reads insts, so concurrent runs may share
// one slice. probe, when non-nil, instruments the run (see Probe); a nil
// probe costs the simulation loop nothing.
func Run(cfg Config, h *mem.Hierarchy, insts []isa.Inst, probe *Probe) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var (
		hb  *heartbeat
		ap  *attrProbe
		reg *telemetry.Registry
	)
	if probe != nil {
		reg = probe.Metrics
		h.Instrument(reg, probe.Attr != nil)
		hb = newHeartbeat(probe.Progress)
		ap = newAttrProbe(probe.Attr, h)
	}
	var r Result
	if cfg.OutOfOrder {
		r = runOutOfOrder(cfg, h, insts, hb, ap)
	} else {
		r = runInOrder(cfg, h, insts, hb, ap)
	}
	if hb != nil {
		hb.beat(r.Insts, r.Cycles)
	}
	r.Mem = h.Stats()
	publishResult(reg, r)
	return r, nil
}

// The two run loops are duplicated per engine type rather than unified
// over the engine interface: the dynamic dispatch defeats escape analysis
// of &res and costs several percent on the simulator's hottest loop.

func runInOrder(cfg Config, h *mem.Hierarchy, insts []isa.Inst, hb *heartbeat, probe *attrProbe) Result {
	p := newInOrder(cfg, h)
	p.probe = probe
	var res Result
	if probe == nil {
		// No attribution probe: drain fuses the step loop with the issue
		// state held in registers. It loads that state from the core and
		// stores it back, so feeding it one chunk per heartbeat period
		// beats at the same instruction counts and cycles as stepping.
		hb.drive(insts, &res, func(chunk []isa.Inst) int64 {
			p.drain(chunk, &res)
			return p.time()
		})
	} else {
		for i := range insts {
			res.Insts++
			p.step(&insts[i], &res)
			if hb != nil && res.Insts >= hb.next {
				hb.beat(res.Insts, p.time())
			}
			if probe.sampler.Due(p.time()) {
				probe.take(p.time(), res.Insts, 0)
			}
		}
	}
	res.Cycles = p.finish()
	if probe != nil {
		probe.finish(&res)
	}
	return res
}

func runOutOfOrder(cfg Config, h *mem.Hierarchy, insts []isa.Inst, hb *heartbeat, probe *attrProbe) Result {
	p := newOutOfOrder(cfg, h)
	p.probe = probe
	var res Result
	if probe == nil {
		hb.drive(insts, &res, func(chunk []isa.Inst) int64 {
			p.drain(chunk, &res)
			return p.time()
		})
	} else {
		for i := range insts {
			res.Insts++
			p.step(&insts[i], &res)
			if hb != nil && res.Insts >= hb.next {
				hb.beat(res.Insts, p.time())
			}
			if probe.sampler.Due(p.time()) {
				probe.take(p.time(), res.Insts, p.ruuFill(p.time()))
			}
		}
	}
	res.Cycles = p.finish()
	if probe != nil {
		probe.finish(&res)
	}
	return res
}

// maxI64 returns the larger of a and b.
func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
