// The in-order core of experiments A–C: a four-way superscalar,
// scoreboarded, in-order-issue pipeline with two load/store units and a
// two-level branch predictor. Loads do not stall the pipeline until a
// dependent instruction needs their value (classic scoreboarding), so a
// lockup-free hierarchy (experiment C) can overlap independent misses.
package cpu

import (
	"memwall/internal/attr"
	"memwall/internal/isa"
	"memwall/internal/mem"
)

// inOrder tracks per-cycle issue bookkeeping.
type inOrder struct {
	cfg Config
	h   *mem.Hierarchy
	// pred is the concrete predictor type so the per-branch
	// Predict/Update calls devirtualize and inline (see ooo.go).
	pred  *TwoLevel
	probe *attrProbe // nil unless the run's Probe carries a collector

	// regReady spans the full uint8 Reg range (not just NumRegs) so the
	// four reads per instruction index without bounds checks.
	regReady [256]int64
	cycle    int64 // current issue cycle
	issued   int   // instructions issued in 'cycle'
	lsIssued int   // memory ops issued in 'cycle'
	// fetchReady gates issue after a branch misprediction redirect.
	fetchReady   int64
	lastComplete int64
}

// advanceTo moves the issue point to cycle c (if later), resetting the
// per-cycle slot counters.
func (p *inOrder) advanceTo(c int64) {
	if c > p.cycle {
		p.cycle = c
		p.issued = 0
		p.lsIssued = 0
	}
}

func newInOrder(cfg Config, h *mem.Hierarchy) *inOrder {
	return &inOrder{
		cfg:  cfg,
		h:    h,
		pred: NewTwoLevel(cfg.PredictorEntries, 12),
	}
}

// time reports the core's current issue cycle (for multi-core
// interleaving).
func (p *inOrder) time() int64 { return p.cycle }

// finish returns the total cycle count after the last instruction.
func (p *inOrder) finish() int64 { return maxI64(p.cycle+1, p.lastComplete) }

// step issues one instruction, respecting in-order issue, operand
// readiness, and structural limits.
//
//memwall:hot
func (p *inOrder) step(in *isa.Inst, res *Result) {
	if p.issued >= p.cfg.IssueWidth {
		p.advanceTo(p.cycle + 1)
	}
	ready := p.regReady[in.Src1]
	if r2 := p.regReady[in.Src2]; r2 > ready {
		ready = r2
	}
	t := maxI64(p.cycle, maxI64(ready, p.fetchReady))
	if t > p.cycle {
		// Attribute the issue gap to the binding constraint: a pending
		// fetch redirect, else operand readiness (which is where memory
		// latency visible to the pipeline shows up).
		if p.fetchReady >= ready {
			res.StallFetch += t - p.cycle
			if p.probe != nil {
				p.probe.chargeGap(attr.CauseFrontend, t-p.cycle)
			}
		} else {
			res.StallOperand += t - p.cycle
			if p.probe != nil {
				bind := in.Src1
				if p.regReady[in.Src2] > p.regReady[in.Src1] {
					bind = in.Src2
				}
				p.probe.chargeOperandGap(bind, t-p.cycle)
			}
		}
	}
	p.advanceTo(t)
	if in.Op.IsMem() {
		for p.lsIssued >= p.cfg.LSUnits {
			res.StallLS++
			if p.probe != nil {
				p.probe.chargeGap(attr.CauseStructural, 1)
			}
			p.advanceTo(p.cycle + 1)
		}
		p.lsIssued++
	}
	p.issued++

	var complete int64
	switch in.Op {
	case isa.Load:
		res.Loads++
		complete = p.h.Load(in.Addr, p.cycle)
		if in.Dst != 0 {
			p.regReady[in.Dst] = complete
		}
		if p.probe != nil {
			p.probe.noteLoad(in.Dst, p.h.LastLoadBWDelay())
		}
	case isa.Store:
		res.Stores++
		complete = p.h.Store(in.Addr, p.cycle)
	case isa.Branch:
		res.Branches++
		resolve := p.cycle + Latency(isa.Branch)
		if p.pred.PredictUpdate(uint32(in.PC), in.Taken) != in.Taken {
			res.Mispredicts++
			p.fetchReady = resolve + p.cfg.MispredictPenalty
		}
		complete = resolve
	default:
		complete = p.cycle + Latency(in.Op)
		if in.Dst != 0 {
			p.regReady[in.Dst] = complete
		}
		if p.probe != nil {
			p.probe.clearReg(in.Dst)
		}
	}
	if complete > p.lastComplete {
		p.lastComplete = complete
	}
}

// drain issues every instruction in insts, equivalent to calling step on
// each with no attribution probe attached. Run calls it for every run
// without a collector, in chunks that end at the heartbeat's beats; the
// chunking stays in heartbeat.drive, so this loop carries no probe
// checks. The per-cycle issue state lives in locals across the whole
// loop instead of round-tripping through the struct on every
// instruction, and is loaded from and stored back to the core, so
// consecutive chunks equal one call over their concatenation. Any change
// to step's issue model must be mirrored here — the golden and
// determinism suites diff the two paths' outputs. DESIGN.md §14 ("Why
// each core keeps step beside drain") records what folding the two
// loops cost when it was tried.
//
//memwall:hot
func (p *inOrder) drain(insts []isa.Inst, res *Result) {
	cycle, issued, lsIssued := p.cycle, p.issued, p.lsIssued
	fetchReady, lastComplete := p.fetchReady, p.lastComplete
	width, lsUnits := p.cfg.IssueWidth, p.cfg.LSUnits
	h, pred := p.h, p.pred
	for ii := range insts {
		in := &insts[ii]
		if issued >= width {
			cycle++
			issued = 0
			lsIssued = 0
		}
		ready := p.regReady[in.Src1]
		if r2 := p.regReady[in.Src2]; r2 > ready {
			ready = r2
		}
		t := maxI64(cycle, maxI64(ready, fetchReady))
		if t > cycle {
			if fetchReady >= ready {
				res.StallFetch += t - cycle
			} else {
				res.StallOperand += t - cycle
			}
			cycle = t
			issued = 0
			lsIssued = 0
		}
		if in.Op.IsMem() {
			for lsIssued >= lsUnits {
				res.StallLS++
				cycle++
				lsIssued = 0
				issued = 0
			}
			lsIssued++
		}
		issued++

		var complete int64
		switch in.Op {
		case isa.Load:
			res.Loads++
			complete = h.Load(in.Addr, cycle)
			if in.Dst != 0 {
				p.regReady[in.Dst] = complete
			}
		case isa.Store:
			res.Stores++
			complete = h.Store(in.Addr, cycle)
		case isa.Branch:
			res.Branches++
			resolve := cycle + Latency(isa.Branch)
			if pred.PredictUpdate(uint32(in.PC), in.Taken) != in.Taken {
				res.Mispredicts++
				fetchReady = resolve + p.cfg.MispredictPenalty
			}
			complete = resolve
		default:
			complete = cycle + Latency(in.Op)
			if in.Dst != 0 {
				p.regReady[in.Dst] = complete
			}
		}
		if complete > lastComplete {
			lastComplete = complete
		}
	}
	p.cycle, p.issued, p.lsIssued = cycle, issued, lsIssued
	p.fetchReady, p.lastComplete = fetchReady, lastComplete
}
