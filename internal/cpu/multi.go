// Single-chip multiprocessor simulation. The paper predicts that on-chip
// multiprocessors will be limited primarily by off-chip bandwidth: "If one
// processor loses performance due to limited pin bandwidth, then multiple
// processors on a chip will lose far more performance for the same
// reason" (Section 2.2; Table 1B row "Multiprocessors/chip").
//
// RunMulti simulates N cores sharing one memory hierarchy — and therefore
// one L1/L2 bus, one memory bus, and one set of cache arrays. Cores
// advance in approximate temporal order (the core with the smallest local
// clock steps next), so their memory traffic interleaves on the shared
// buses and the contention each core induces on the others is captured.
package cpu

import (
	"fmt"

	"memwall/internal/isa"
	"memwall/internal/mem"
)

// engine is the per-core stepping interface shared by the in-order and
// out-of-order models.
type engine interface {
	step(in *isa.Inst, res *Result)
	time() int64
	finish() int64
}

// newEngine builds a core for cfg against h.
func newEngine(cfg Config, h *mem.Hierarchy) engine {
	if cfg.OutOfOrder {
		return newOutOfOrder(cfg, h)
	}
	return newInOrder(cfg, h)
}

// MultiResult is the outcome of a shared-hierarchy multiprocessor run.
type MultiResult struct {
	// Cores holds each core's individual result (Cycles is that core's
	// completion time).
	Cores []Result
	// Cycles is the completion time of the slowest core.
	Cycles int64
	// Mem is the shared hierarchy's statistics.
	Mem mem.Stats
}

// TotalInsts sums the dynamic instruction counts of all cores.
func (m MultiResult) TotalInsts() int64 {
	var n int64
	for _, r := range m.Cores {
		n += r.Insts
	}
	return n
}

// Throughput returns aggregate instructions per cycle across all cores.
func (m MultiResult) Throughput() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.TotalInsts()) / float64(m.Cycles)
}

// addStats sums two stats records field-wise. Bus busy cycles aggregate
// by max rather than sum: cluster cores share their buses (mem.NewCluster),
// so each member hierarchy reports the same shared-bus totals and summing
// would multiply them by the core count.
func addStats(a, b mem.Stats) mem.Stats {
	a.Loads += b.Loads
	a.Stores += b.Stores
	a.L1Hits += b.L1Hits
	a.L1Misses += b.L1Misses
	a.L1MergedMisses += b.L1MergedMisses
	a.L2Hits += b.L2Hits
	a.L2Misses += b.L2Misses
	a.L2MergedMisses += b.L2MergedMisses
	a.Prefetches += b.Prefetches
	a.StreamBufHits += b.StreamBufHits
	a.StreamBufPrefetches += b.StreamBufPrefetches
	a.VictimHits += b.VictimHits
	a.ScratchpadHits += b.ScratchpadHits
	a.L1L2TrafficBytes += b.L1L2TrafficBytes
	a.MemTrafficBytes += b.MemTrafficBytes
	a.WriteBacksL1 += b.WriteBacksL1
	a.WriteBacksL2 += b.WriteBacksL2
	a.L1Evictions += b.L1Evictions
	a.L2Evictions += b.L2Evictions
	if b.L1L2BusBusyCycles > a.L1L2BusBusyCycles {
		a.L1L2BusBusyCycles = b.L1L2BusBusyCycles
	}
	if b.MemBusBusyCycles > a.MemBusBusyCycles {
		a.MemBusBusyCycles = b.MemBusBusyCycles
	}
	return a
}

// RunMulti simulates len(progs) identical cores (configured by cfg), one
// instruction slice per core, which it only reads. hs supplies each core's
// memory-system view: either a single shared hierarchy (every core drives
// the same caches — the shared-L1 configuration) or one hierarchy per
// core, typically from mem.NewCluster (private L1s over a shared L2 and
// shared buses).
func RunMulti(cfg Config, hs []*mem.Hierarchy, progs [][]isa.Inst) (MultiResult, error) {
	if err := cfg.Validate(); err != nil {
		return MultiResult{}, err
	}
	if len(progs) == 0 {
		return MultiResult{}, fmt.Errorf("cpu: RunMulti needs at least one instruction slice")
	}
	if len(hs) != 1 && len(hs) != len(progs) {
		return MultiResult{}, fmt.Errorf("cpu: %d hierarchies for %d instruction slices (want 1 or equal)", len(hs), len(progs))
	}
	hFor := func(i int) *mem.Hierarchy {
		if len(hs) == 1 {
			return hs[0]
		}
		return hs[i]
	}
	type coreState struct {
		eng   engine
		insts []isa.Inst
		res   Result
		done  bool
	}
	cores := make([]coreState, len(progs))
	for i := range cores {
		cores[i] = coreState{eng: newEngine(cfg, hFor(i)), insts: progs[i]}
	}
	remaining := len(cores)
	for remaining > 0 {
		// Step the live core with the smallest local clock, so shared
		// bus reservations happen in approximate global time order.
		best := -1
		for i := range cores {
			if cores[i].done {
				continue
			}
			if best < 0 || cores[i].eng.time() < cores[best].eng.time() {
				best = i
			}
		}
		c := &cores[best]
		if c.res.Insts == int64(len(c.insts)) {
			c.done = true
			c.res.Cycles = c.eng.finish()
			c.res.Mem = hFor(best).Stats()
			remaining--
			continue
		}
		c.eng.step(&c.insts[c.res.Insts], &c.res)
		c.res.Insts++
	}
	// Aggregate memory statistics across the distinct hierarchies.
	var agg mem.Stats
	seen := map[*mem.Hierarchy]bool{}
	for i := range progs {
		h := hFor(i)
		if !seen[h] {
			seen[h] = true
			agg = addStats(agg, h.Stats())
		}
	}
	out := MultiResult{Mem: agg}
	for i := range cores {
		out.Cores = append(out.Cores, cores[i].res)
		if cores[i].res.Cycles > out.Cycles {
			out.Cycles = cores[i].res.Cycles
		}
	}
	return out, nil
}
