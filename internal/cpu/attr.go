// Attribution probe shared by both cores. The probe charges every issue
// slot a core loses to the attr cause taxonomy and records interval
// samples; it exists only when the run's Probe carries a collector, so
// the simulation loops pay a single nil check when attribution is off
// (the same zero-cost-when-disabled contract as the telemetry
// heartbeat).
//
// The latency/bandwidth split rides on register provenance: when a load
// writes a register the probe remembers the memory system's
// bandwidth-attributable share of that load's delay (mem.LastLoadBWDelay).
// A later operand stall on that register is charged to bandwidth up to
// the remembered share and to latency for the rest; stalls on registers
// produced by plain ALU ops are charged to compute (limited ILP). The
// out-of-order core additionally propagates provenance one hop through
// ALU results whose execution waited on a memory-produced operand, since
// its dataflow issue hides single-hop dependences the in-order core
// would have exposed at the issue point.
package cpu

import (
	"memwall/internal/attr"
	"memwall/internal/isa"
	"memwall/internal/mem"
)

type attrProbe struct {
	ledger  *attr.Ledger
	sampler *attr.Sampler
	h       *mem.Hierarchy
	// Per-register provenance: regMem marks a value produced (directly
	// or one hop away) by a load; regBW is that load's
	// bandwidth-attributable delay in cycles.
	regMem [isa.NumRegs]bool
	regBW  [isa.NumRegs]int64
}

// newAttrProbe returns nil when c is nil, keeping the disabled path to
// one pointer check in the cores.
func newAttrProbe(c *attr.Collector, h *mem.Hierarchy) *attrProbe {
	if c == nil {
		return nil
	}
	return &attrProbe{ledger: c.Ledger(), sampler: c.Sampler(), h: h}
}

// chargeGap charges a whole-machine stall of gap cycles (every issue
// slot idle) to cause c.
func (p *attrProbe) chargeGap(c attr.Cause, gap int64) {
	p.ledger.ChargeCycles(c, gap)
}

// chargeOperandGap charges an in-order issue-point stall of gap cycles
// waiting on register reg, splitting by the register's provenance. The
// whole machine width idles, so the charge is in cycles.
func (p *attrProbe) chargeOperandGap(reg isa.Reg, gap int64) {
	if !p.regMem[reg] {
		p.ledger.ChargeCycles(attr.CauseCompute, gap)
		return
	}
	bw := p.regBW[reg]
	if bw > gap {
		bw = gap
	}
	p.ledger.ChargeCycles(attr.CauseBandwidth, bw)
	p.ledger.ChargeCycles(attr.CauseLatency, gap-bw)
}

// chargeOperandWait charges an out-of-order instruction's wait of wait
// cycles on register reg. Only this instruction idles (the window keeps
// issuing around it), so the charge is one slot per cycle.
func (p *attrProbe) chargeOperandWait(reg isa.Reg, wait int64) {
	if !p.regMem[reg] {
		p.ledger.Charge(attr.CauseCompute, wait)
		return
	}
	bw := p.regBW[reg]
	if bw > wait {
		bw = wait
	}
	p.ledger.Charge(attr.CauseBandwidth, bw)
	p.ledger.Charge(attr.CauseLatency, wait-bw)
}

// noteLoad records provenance for a load's destination register.
func (p *attrProbe) noteLoad(dst isa.Reg, bwDelay int64) {
	if dst == 0 {
		return
	}
	p.regMem[dst] = true
	p.regBW[dst] = bwDelay
}

// clearReg clears provenance for an ALU destination (in-order core: the
// operand wait was already charged at the issue point, so the result
// carries no memory debt forward).
func (p *attrProbe) clearReg(dst isa.Reg) {
	if dst == 0 {
		return
	}
	p.regMem[dst] = false
	p.regBW[dst] = 0
}

// noteResult records provenance for an out-of-order ALU result: if
// execution waited on operand bind and that operand was memory-produced,
// the result inherits the provenance (one-hop propagation); otherwise it
// is cleared. bind is 0 when the instruction did not wait.
func (p *attrProbe) noteResult(dst, bind isa.Reg) {
	if dst == 0 {
		return
	}
	if bind != 0 && p.regMem[bind] {
		p.regMem[dst] = true
		p.regBW[dst] = p.regBW[bind]
	} else {
		p.regMem[dst] = false
		p.regBW[dst] = 0
	}
}

// take records one interval sample at simulated time now.
func (p *attrProbe) take(now, insts, ruuFill int64) {
	s := attr.Sample{Cycle: now, Insts: insts, RUUFill: ruuFill}
	p.h.FillAttrSample(&s, now)
	p.sampler.Record(s)
}

// finish records the end-of-run boundary sample and settles the ledger
// against the run's exact cycle and instruction totals.
func (p *attrProbe) finish(res *Result) {
	p.take(res.Cycles, res.Insts, 0)
	p.ledger.Close(res.Cycles, res.Insts)
}
