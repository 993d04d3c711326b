// Multi-level trace-driven cache simulation. The paper generalises Hill &
// Smith's traffic ratio "to multiple on-chip levels of cache" (Section 4):
// R_i = D_i / D_{i-1} per level, and the effective pin bandwidth divides
// the raw pin bandwidth by the product of the on-chip levels' ratios
// (Equation 5). A Hierarchy chains cache simulators so the miss/write-back
// stream of level i becomes the reference stream of level i+1, yielding
// the per-level ratios directly.
package cache

import (
	"fmt"

	"memwall/internal/trace"
	"memwall/internal/units"
)

// Hierarchy is a stack of trace-driven caches, level 0 closest to the
// processor. Each level observes the fill and write-back traffic of the
// level above at its own block granularity.
type Hierarchy struct {
	levels []*Cache
}

// NewHierarchy builds a hierarchy from processor-side to memory-side
// configurations. Block sizes must be non-decreasing away from the
// processor (a lower level must be able to satisfy an upper level's block
// fill with one of its own blocks or a subset of one).
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{}
	for i, cfg := range cfgs {
		if i > 0 && cfg.BlockSize < cfgs[i-1].BlockSize {
			return nil, fmt.Errorf("cache: level %d block size %d smaller than level %d's %d",
				i, cfg.BlockSize, i-1, cfgs[i-1].BlockSize)
		}
		c, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("cache: level %d: %w", i, err)
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// Levels returns the number of cache levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Level returns the cache simulator at level i (0 = closest to the
// processor).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// Access simulates one processor reference through every level: a miss at
// level i becomes a block fill request at level i+1, and dirty evictions
// at level i become write accesses at level i+1.
func (h *Hierarchy) Access(r trace.Ref) {
	h.access(0, r)
}

// access recursively propagates a reference down the hierarchy. The
// propagated stream below level i consists of that level's fetched blocks
// (as reads of each word... at block granularity we issue one read per
// level-i block fetched) and written-back blocks (as writes).
func (h *Hierarchy) access(levelIdx int, r trace.Ref) {
	c := h.levels[levelIdx]
	before := c.Stats()
	c.Access(r)
	after := c.Stats()
	if levelIdx+1 >= len(h.levels) {
		return
	}
	// Fill traffic: the level fetched one or more sub-blocks for the
	// block containing r.Addr; present that to the next level as reads
	// covering the fetched bytes.
	if db := after.FetchBytes - before.FetchBytes; db > 0 {
		base := r.Addr &^ uint64(c.cfg.BlockSize-1)
		for off := units.Bytes(0); off < db; off += trace.WordSize {
			h.access(levelIdx+1, trace.Ref{Kind: trace.Read, Addr: base + uint64(off)})
		}
	}
	// Write-back traffic: dirty bytes leave this level as writes below.
	// The victim's address is not tracked per-byte here; attribute the
	// write-back to the victim block's set-aligned region (the paper's
	// traffic accounting is byte-count-based, so placement below only
	// affects the lower level's locality slightly).
	if db := after.WriteBackBytes - before.WriteBackBytes; db > 0 {
		base := r.Addr &^ uint64(c.cfg.BlockSize-1)
		for off := units.Bytes(0); off < db; off += trace.WordSize {
			h.access(levelIdx+1, trace.Ref{Kind: trace.Write, Addr: base + uint64(off)})
		}
	}
	if db := after.WriteThroughBytes - before.WriteThroughBytes; db > 0 {
		h.access(levelIdx+1, trace.Ref{Kind: trace.Write, Addr: r.Addr})
	}
}

// Run replays a materialized trace through the hierarchy, flushes every
// level (upper levels' dirty data cascading downward), and returns the
// per-level traffic ratios.
func (h *Hierarchy) Run(refs []trace.Ref) []float64 {
	for _, r := range refs {
		h.Access(r)
	}
	h.FlushAll()
	return h.Ratios(int64(len(refs)))
}

// FlushAll flushes the levels from the processor outward, cascading each
// level's dirty data into the next.
func (h *Hierarchy) FlushAll() {
	for i := 0; i < len(h.levels); i++ {
		c := h.levels[i]
		before := c.Stats()
		c.Flush()
		after := c.Stats()
		if i+1 >= len(h.levels) {
			break
		}
		if db := after.WriteBackBytes - before.WriteBackBytes; db > 0 {
			for off := units.Bytes(0); off < db; off += trace.WordSize {
				h.access(i+1, trace.Ref{Kind: trace.Write, Addr: uint64(off)})
			}
		}
	}
}

// Ratios computes R_i for each level given the processor reference count:
// R_0 = D_0 / (refs x word), R_i = D_i / D_{i-1} (Equation 4).
func (h *Hierarchy) Ratios(refs int64) []float64 {
	out := make([]float64, len(h.levels))
	above := units.Words(refs).Bytes(trace.WordSize)
	for i, c := range h.levels {
		d := c.Stats().TrafficBytes()
		if above > 0 {
			out[i] = units.Ratio(d, above)
		}
		above = d
	}
	return out
}

// EffectiveBandwidthFactor returns 1 / prod(R_i): the multiple by which
// the on-chip hierarchy amplifies pin bandwidth (Equation 5 without the
// absolute B_pin term).
func (h *Hierarchy) EffectiveBandwidthFactor(refs int64) float64 {
	prod := 1.0
	for _, r := range h.Ratios(refs) {
		prod *= r
	}
	if prod == 0 {
		return 0
	}
	return 1 / prod
}
