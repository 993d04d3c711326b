// The out-of-order core of experiments D–F, modelled after the Register
// Update Unit organisation the paper cites (Sohi's RUU): instructions
// dispatch in order into a finite window, execute when their operands are
// ready (dataflow order), and retire in order. Loads issue speculatively
// as soon as their address is available — they do not wait for earlier
// stores — matching the paper's "out-of-order issue mechanism based on the
// RUU, with support for speculative loads".
//
// The model is event-driven rather than cycle-stepped: for each dynamic
// instruction it computes dispatch, execute, complete, and retire times
// under the structural constraints (RUU capacity, LSQ capacity, dispatch
// and retire width, load/store units) and dependence constraints (operand
// ready times, branch-misprediction fetch redirect). This is the standard
// dataflow-with-finite-window approximation of an RUU pipeline.
package cpu

import (
	"memwall/internal/attr"
	"memwall/internal/isa"
	"memwall/internal/mem"
)

type outOfOrder struct {
	cfg Config
	h   *mem.Hierarchy
	// pred is the concrete two-level predictor: PredictUpdate runs once
	// per branch in the issue loop, and the direct call lets it inline.
	pred  *TwoLevel
	probe *attrProbe // nil unless the run's Probe carries a collector

	// regReady spans the full uint8 Reg range (not just NumRegs) so the
	// four reads per instruction index without bounds checks.
	regReady [256]int64

	// Ring buffers of retire times for window/LSQ occupancy: an
	// instruction cannot dispatch until the instruction RUUSlots (or
	// LSQEntries) before it has retired and freed its slot.
	ruuRetire []int64
	ruuHead   int
	lsqRetire []int64
	lsqHead   int

	// Dispatch bookkeeping: in-order, IssueWidth per cycle, gated by
	// fetch redirects.
	dispatchCycle int64
	dispatched    int
	fetchReady    int64

	// Load/store unit availability: at most LSUnits memory operations may
	// issue in any given cycle, in dataflow (not program) order.
	lsSlots slotSched

	// Retirement bookkeeping: in-order, IssueWidth per cycle.
	lastRetire   int64
	retireCycle  int64
	retiredInCyc int
}

func newOutOfOrder(cfg Config, h *mem.Hierarchy) *outOfOrder {
	return &outOfOrder{
		cfg:       cfg,
		h:         h,
		pred:      NewTwoLevel(cfg.PredictorEntries, 12),
		ruuRetire: make([]int64, cfg.RUUSlots),
		lsqRetire: make([]int64, cfg.LSQEntries),
		lsSlots:   newSlotSched(cfg.LSUnits),
	}
}

// time reports the core's current dispatch cycle (for multi-core
// interleaving).
func (p *outOfOrder) time() int64 { return p.dispatchCycle }

// finish returns the total cycle count after the last instruction.
func (p *outOfOrder) finish() int64 { return maxI64(p.lastRetire, p.dispatchCycle+1) }

// dispatchAt computes the in-order dispatch time for the next instruction
// given a lower bound t, consuming one dispatch slot.
func (p *outOfOrder) dispatchAt(t int64) int64 {
	if p.dispatched >= p.cfg.IssueWidth {
		p.dispatchCycle++
		p.dispatched = 0
	}
	if t > p.dispatchCycle {
		p.dispatchCycle = t
		p.dispatched = 0
	}
	p.dispatched++
	return p.dispatchCycle
}

// slotSched tracks per-cycle issue-slot occupancy for a pipelined
// functional-unit pool: up to width issues in any cycle. Because the RUU
// issues in dataflow order, a younger instruction may legitimately claim a
// slot in an earlier cycle than an older, operand-stalled one — a
// monotonic "next free time" per unit would wrongly serialise that case.
//
// Occupancy summary: alongside the per-cycle counts, skip[i] > 0 records
// that cycles [i, i+skip[i]) are all full, letting reserve hop over a
// saturated stretch in one step instead of probing it cycle-by-cycle
// (the historical t++ loop, O(contention span) per call). Distances are
// lengthened on traversal, union-find style, which is sound because a
// cycle's occupancy never decreases: once [i, j) is known full it stays
// full. The distances are relative, so a window slide moves them with a
// plain copy. The uncontended fast path never touches the summary: a
// cycle with free capacity books in one count check, exactly as before.
type slotSched struct {
	width int
	base  int64
	count []uint16
	skip  []uint16
}

func newSlotSched(width int) slotSched {
	return slotSched{width: width, count: make([]uint16, 8192), skip: make([]uint16, 8192)}
}

// reserve books one slot at the first cycle >= t with free capacity and
// returns it.
func (s *slotSched) reserve(t int64) int64 {
	if t < s.base {
		// The window has slid past t. Slots that far behind the dispatch
		// point are free (reservations cluster near it), so grant t
		// without booking. The historical code instead clamped t to the
		// window start and booked there, double-charging current-cycle
		// capacity against an issue that actually happened long before.
		return t
	}
	for {
		idx := t - s.base
		if idx >= int64(len(s.count)) {
			s.slide(t)
			idx = t - s.base
		}
		c := s.count[idx]
		if int(c) < s.width {
			c++
			s.count[idx] = c
			if int(c) >= s.width {
				s.skip[idx] = 1
			}
			return s.base + idx
		}
		// Cycle idx is full (so skip[idx] >= 1 by the invariant): hop the
		// known-full stretch, then lengthen the entry point's distance so
		// the next reservation hops straight to where this one landed.
		j := idx + int64(s.skip[idx])
		for j < int64(len(s.skip)) && s.skip[j] > 0 {
			j += int64(s.skip[j])
		}
		s.skip[idx] = uint16(j - idx)
		t = s.base + j
	}
}

// slideKeep is how many cycles of booked history survive a window slide.
// Reservations can land behind the current issue point (dataflow order),
// but only within the span the finite RUU keeps in flight — far less than
// the retained tail. A smaller tail means each slide copies less and the
// window advances further per slide, so the amortized copy cost per
// simulated cycle drops proportionally.
const slideKeep = 1024

// slide moves the window forward so t falls inside it, keeping recent
// occupancy (and its skip summary) aligned.
func (s *slotSched) slide(t int64) {
	idx := t - s.base
	shift := idx - slideKeep
	if shift >= int64(len(s.count)) {
		// The jump clears the whole window.
		clear(s.count)
		clear(s.skip)
		b := t - slideKeep
		if b < 0 {
			b = 0
		}
		s.base = b
		return
	}
	n := copy(s.count, s.count[shift:])
	clear(s.count[n:])
	// Relative distances survive the shift unchanged, and none reaches
	// past one-past-the-old-window-end, so no entry can claim fullness
	// inside the freshly cleared tail.
	copy(s.skip, s.skip[shift:])
	clear(s.skip[n:])
	s.base += shift
}

// lsUnit reserves a load/store issue slot at or after t, returning the
// issue time.
func (p *outOfOrder) lsUnit(t int64) int64 {
	return p.lsSlots.reserve(t)
}

// ruuFill counts window slots still held by unretired instructions at
// time t (attribution sampling only; called at most once per interval).
func (p *outOfOrder) ruuFill(t int64) int64 {
	var n int64
	for _, r := range p.ruuRetire {
		if r > t {
			n++
		}
	}
	return n
}

// retireAt computes the in-order retire time for an instruction completing
// at time complete, honouring retire width.
func (p *outOfOrder) retireAt(complete int64) int64 {
	t := maxI64(complete, p.lastRetire)
	if t == p.retireCycle && p.retiredInCyc >= p.cfg.IssueWidth {
		t++
	}
	if t != p.retireCycle {
		p.retireCycle = t
		p.retiredInCyc = 0
	}
	p.retiredInCyc++
	p.lastRetire = t
	return t
}

// step issues one instruction through the RUU/LSQ model. This is the
// per-instruction inner loop of every out-of-order run — hotlint holds
// it and everything it reaches to hot-path hygiene.
//
//memwall:hot
func (p *outOfOrder) step(in *isa.Inst, res *Result) {
	// Structural: RUU slot (and LSQ slot for memory ops) must be free.
	bound := maxI64(p.fetchReady, p.ruuRetire[p.ruuHead])
	isMem := in.Op.IsMem()
	if isMem {
		bound = maxI64(bound, p.lsqRetire[p.lsqHead])
	}
	if gap := bound - p.dispatchCycle; gap > 0 {
		// Attribute the dispatch gap to the binding constraint: fetch
		// redirect if it alone forces the wait, else a full window
		// (RUU or LSQ slot not yet retired).
		if p.fetchReady >= bound {
			res.StallFetch += gap
			if p.probe != nil {
				p.probe.chargeGap(attr.CauseFrontend, gap)
			}
		} else {
			res.StallWindow += gap
			if p.probe != nil {
				p.probe.chargeGap(attr.CauseStructural, gap)
			}
		}
	}
	disp := p.dispatchAt(bound)

	// Dataflow: execute when operands are ready, after dispatch.
	ready := p.regReady[in.Src1]
	if r2 := p.regReady[in.Src2]; r2 > ready {
		ready = r2
	}
	exec := maxI64(disp+1, ready)
	// bind is the operand that held execution back (0 when none did);
	// the probe uses it for provenance-based stall splitting.
	var bind isa.Reg
	if ready > disp+1 {
		res.StallOperand += ready - (disp + 1)
		if p.probe != nil {
			bind = in.Src1
			if p.regReady[in.Src2] > p.regReady[in.Src1] {
				bind = in.Src2
			}
			p.probe.chargeOperandWait(bind, ready-(disp+1))
		}
	}

	var complete int64
	switch in.Op {
	case isa.Load:
		res.Loads++
		issue := p.lsUnit(exec)
		res.StallLS += issue - exec
		if p.probe != nil {
			p.probe.ledger.Charge(attr.CauseStructural, issue-exec)
		}
		complete = p.h.Load(in.Addr, issue)
		if in.Dst != 0 {
			p.regReady[in.Dst] = complete
		}
		if p.probe != nil {
			p.probe.noteLoad(in.Dst, p.h.LastLoadBWDelay())
		}
	case isa.Store:
		res.Stores++
		issue := p.lsUnit(exec)
		res.StallLS += issue - exec
		if p.probe != nil {
			p.probe.ledger.Charge(attr.CauseStructural, issue-exec)
		}
		complete = p.h.Store(in.Addr, issue)
	case isa.Branch:
		res.Branches++
		complete = exec + Latency(isa.Branch)
		if p.pred.PredictUpdate(uint32(in.PC), in.Taken) != in.Taken {
			res.Mispredicts++
			// Fetch redirects after the branch resolves.
			if nf := complete + p.cfg.MispredictPenalty; nf > p.fetchReady {
				p.fetchReady = nf
			}
		}
	default:
		complete = exec + Latency(in.Op)
		if in.Dst != 0 {
			p.regReady[in.Dst] = complete
		}
		if p.probe != nil {
			p.probe.noteResult(in.Dst, bind)
		}
	}

	retire := p.retireAt(complete)
	// Branchless-wrap ring advance: Config.Validate guarantees both rings
	// are non-empty, and increment-then-wrap avoids an integer division
	// per issued instruction (and the PR 3 zero-modulo bug class).
	p.ruuRetire[p.ruuHead] = retire
	p.ruuHead++
	if p.ruuHead == len(p.ruuRetire) {
		p.ruuHead = 0
	}
	if isMem {
		p.lsqRetire[p.lsqHead] = retire
		p.lsqHead++
		if p.lsqHead == len(p.lsqRetire) {
			p.lsqHead = 0
		}
	}
}

// drain issues every instruction in insts, equivalent to calling step on
// each with no attribution probe attached. Run calls it for every run
// without a collector, in chunks that end at the heartbeat's beats; the
// chunking stays in heartbeat.drive, so this loop carries no probe
// checks. Dispatch, retire, and ring-cursor state lives in locals across
// the whole loop instead of round-tripping through the struct on every
// instruction, and is loaded from and stored back to the core, so
// consecutive chunks equal one call over their concatenation. Any change
// to step's issue model must be mirrored here — the golden and
// determinism suites diff the two paths' outputs. DESIGN.md §14 ("Why
// each core keeps step beside drain") records what folding the two
// loops cost when it was tried.
//
//memwall:hot
func (p *outOfOrder) drain(insts []isa.Inst, res *Result) {
	dispatchCycle, dispatched, fetchReady := p.dispatchCycle, p.dispatched, p.fetchReady
	lastRetire, retireCycle, retiredInCyc := p.lastRetire, p.retireCycle, p.retiredInCyc
	ruuHead, lsqHead := p.ruuHead, p.lsqHead
	width := p.cfg.IssueWidth
	h, pred := p.h, p.pred
	for ii := range insts {
		in := &insts[ii]
		bound := maxI64(fetchReady, p.ruuRetire[ruuHead])
		isMem := in.Op.IsMem()
		if isMem {
			bound = maxI64(bound, p.lsqRetire[lsqHead])
		}
		if gap := bound - dispatchCycle; gap > 0 {
			if fetchReady >= bound {
				res.StallFetch += gap
			} else {
				res.StallWindow += gap
			}
		}
		// dispatchAt, with the cycle/slot counters in registers.
		if dispatched >= width {
			dispatchCycle++
			dispatched = 0
		}
		if bound > dispatchCycle {
			dispatchCycle = bound
			dispatched = 0
		}
		dispatched++
		disp := dispatchCycle

		ready := p.regReady[in.Src1]
		if r2 := p.regReady[in.Src2]; r2 > ready {
			ready = r2
		}
		exec := maxI64(disp+1, ready)
		if ready > disp+1 {
			res.StallOperand += ready - (disp + 1)
		}

		var complete int64
		switch in.Op {
		case isa.Load:
			res.Loads++
			issue := p.lsSlots.reserve(exec)
			res.StallLS += issue - exec
			complete = h.Load(in.Addr, issue)
			if in.Dst != 0 {
				p.regReady[in.Dst] = complete
			}
		case isa.Store:
			res.Stores++
			issue := p.lsSlots.reserve(exec)
			res.StallLS += issue - exec
			complete = h.Store(in.Addr, issue)
		case isa.Branch:
			res.Branches++
			complete = exec + Latency(isa.Branch)
			if pred.PredictUpdate(uint32(in.PC), in.Taken) != in.Taken {
				res.Mispredicts++
				if nf := complete + p.cfg.MispredictPenalty; nf > fetchReady {
					fetchReady = nf
				}
			}
		default:
			complete = exec + Latency(in.Op)
			if in.Dst != 0 {
				p.regReady[in.Dst] = complete
			}
		}

		// retireAt, with the retire bookkeeping in registers.
		retire := maxI64(complete, lastRetire)
		if retire == retireCycle && retiredInCyc >= width {
			retire++
		}
		if retire != retireCycle {
			retireCycle = retire
			retiredInCyc = 0
		}
		retiredInCyc++
		lastRetire = retire

		p.ruuRetire[ruuHead] = retire
		ruuHead++
		if ruuHead == len(p.ruuRetire) {
			ruuHead = 0
		}
		if isMem {
			p.lsqRetire[lsqHead] = retire
			lsqHead++
			if lsqHead == len(p.lsqRetire) {
				lsqHead = 0
			}
		}
	}
	p.dispatchCycle, p.dispatched, p.fetchReady = dispatchCycle, dispatched, fetchReady
	p.lastRetire, p.retireCycle, p.retiredInCyc = lastRetire, retireCycle, retiredInCyc
	p.ruuHead, p.lsqHead = ruuHead, lsqHead
}
