// Telemetry bridge for the processor cores: the per-run heartbeat driven
// from the simulation loop, and the publication of a finished run's
// counters into a telemetry registry. Both come from the run's Probe.
// The heartbeat beats between chunks of the fused drain loop, so a run
// without a collector pays nothing for it per retired instruction.
package cpu

import (
	"memwall/internal/isa"
	"memwall/internal/telemetry"
)

// heartbeat throttles a probe's Progress callback to every ProgressEvery
// retired instructions and converts cumulative totals to deltas.
type heartbeat struct {
	fn         func(insts, cycles int64)
	next       int64
	lastInsts  int64
	lastCycles int64
}

// newHeartbeat returns nil (no per-instruction work) when no progress
// callback is configured.
func newHeartbeat(fn func(insts, cycles int64)) *heartbeat {
	if fn == nil {
		return nil
	}
	return &heartbeat{fn: fn, next: ProgressEvery}
}

// drive runs insts through a core's fused drain loop in chunks that end
// at the heartbeat's beats, and beats between chunks; with no heartbeat
// (a nil hb) the whole slice is one chunk. drain runs one chunk and
// returns the core's clock after it.
func (hb *heartbeat) drive(insts []isa.Inst, res *Result, drain func([]isa.Inst) int64) {
	for len(insts) > 0 {
		n := len(insts)
		if hb != nil && hb.next-res.Insts < int64(n) {
			n = int(hb.next - res.Insts)
		}
		now := drain(insts[:n])
		res.Insts += int64(n)
		insts = insts[n:]
		if hb != nil && res.Insts >= hb.next {
			hb.beat(res.Insts, now)
		}
	}
}

// beat reports progress at the given cumulative instruction and cycle
// counts and schedules the next beat.
func (hb *heartbeat) beat(insts, cycles int64) {
	if d := cycles - hb.lastCycles; d < 0 {
		// Engines report their local issue/dispatch clock, which can
		// trail the previous completion-time estimate; clamp so deltas
		// stay monotonic.
		cycles = hb.lastCycles
	}
	hb.fn(insts-hb.lastInsts, cycles-hb.lastCycles)
	hb.lastInsts, hb.lastCycles = insts, cycles
	hb.next = insts + ProgressEvery
}

// publishResult folds a finished run's counters into reg (no-op when reg
// is nil). Counters accumulate across runs, so a command that simulates
// many benchmark/machine pairs reports totals; the ratio gauges (IPC,
// bus utilization) are recomputed from the cumulative counters on every
// publish.
func publishResult(reg *telemetry.Registry, r Result) {
	if reg == nil {
		return
	}
	m := r.Mem
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"cpu.cycles", r.Cycles},
		{"cpu.insts_retired", r.Insts},
		{"cpu.loads", r.Loads},
		{"cpu.stores", r.Stores},
		{"cpu.branches", r.Branches},
		{"cpu.mispredicts", r.Mispredicts},
		{"cpu.stall_cycles.fetch", r.StallFetch},
		{"cpu.stall_cycles.operand", r.StallOperand},
		{"cpu.stall_cycles.ls_unit", r.StallLS},
		{"cpu.stall_cycles.window", r.StallWindow},
		{"mem.loads", m.Loads},
		{"mem.stores", m.Stores},
		{"mem.l1.hits", m.L1Hits},
		{"mem.l1.misses", m.L1Misses},
		{"mem.l1.merged_misses", m.L1MergedMisses},
		{"mem.l1.evictions", m.L1Evictions},
		{"mem.l1.writebacks", m.WriteBacksL1},
		{"mem.l2.hits", m.L2Hits},
		{"mem.l2.misses", m.L2Misses},
		{"mem.l2.merged_misses", m.L2MergedMisses},
		{"mem.l2.evictions", m.L2Evictions},
		{"mem.l2.writebacks", m.WriteBacksL2},
		{"mem.prefetches", m.Prefetches},
		{"mem.stream_buf_hits", m.StreamBufHits},
		{"mem.victim_hits", m.VictimHits},
		{"mem.scratchpad_hits", m.ScratchpadHits},
		{"mem.traffic.l1l2_bytes", int64(m.L1L2TrafficBytes)},
		{"mem.traffic.mem_bytes", int64(m.MemTrafficBytes)},
		{"mem.bus.l1l2_busy_cycles", int64(m.L1L2BusBusyCycles)},
		{"mem.bus.mem_busy_cycles", int64(m.MemBusBusyCycles)},
	} {
		reg.Counter(c.name).Add(c.v)
	}
	cycles := reg.Counter("cpu.cycles").Value()
	if cycles <= 0 {
		return
	}
	insts := reg.Counter("cpu.insts_retired").Value()
	reg.Gauge("cpu.ipc").Set(float64(insts) / float64(cycles))
	l1l2 := reg.Counter("mem.bus.l1l2_busy_cycles").Value()
	membus := reg.Counter("mem.bus.mem_busy_cycles").Value()
	reg.Gauge("mem.bus.l1l2_utilization").Set(float64(l1l2) / float64(cycles))
	reg.Gauge("mem.bus.mem_utilization").Set(float64(membus) / float64(cycles))
}
