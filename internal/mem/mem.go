// Package mem implements the timing model of the simulated memory
// hierarchy: a two-level cache hierarchy above main memory, connected by
// finite-width buses with contention, lockup-free (MSHR-based) or blocking
// caches, an infinite write buffer, critical-word-first fills, and
// optional tagged prefetching (paper Table 4, Section 3.1).
//
// The hierarchy runs in one of three modes, which is how the paper's
// execution-time decomposition is measured (Section 3.1):
//
//   - Perfect: every load and store completes in one cycle (measures T_P);
//   - InfiniteBW: infinitely-wide paths between levels — intrinsic access
//     latencies remain but transfer time and bus contention vanish
//     (measures T_I, hence T_L = T_I − T_P);
//   - Full: the complete memory system with finite buses (measures T).
package mem

import (
	"fmt"

	"memwall/internal/attr"
	"memwall/internal/telemetry"
	"memwall/internal/units"
)

// Mode selects the memory-system timing model.
type Mode uint8

const (
	// Full models the complete memory system.
	Full Mode = iota
	// InfiniteBW removes transfer time and contention, keeping latency.
	InfiniteBW
	// Perfect completes every access in one cycle.
	Perfect
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Full:
		return "full"
	case InfiniteBW:
		return "infinite-bw"
	case Perfect:
		return "perfect"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// BusConfig describes one inter-level bus.
type BusConfig struct {
	// WidthBytes is the data width per bus cycle (Table 4: 128-bit L1/L2
	// bus = 16 bytes; 64-bit memory bus = 8 bytes).
	WidthBytes int
	// Ratio is processor cycles per bus cycle (Table 4: bus/proc clock
	// 1/3 for SPEC92 runs, 1/4 for SPEC95 runs).
	Ratio int
}

// LevelConfig describes one cache level of the hierarchy.
type LevelConfig struct {
	// Size is capacity in bytes.
	Size int
	// BlockSize is the line size in bytes.
	BlockSize int
	// Assoc is the set associativity (<=0 means fully associative).
	Assoc int
	// AccessCycles is the hit access time in processor cycles.
	AccessCycles int64
	// MSHRs is the number of outstanding-miss registers. 1 models the
	// blocking cache of experiments A–B (hits are still serviced under a
	// miss, as the paper assumes); larger values model lockup-free
	// caches (experiments C–F).
	MSHRs int
}

// Config assembles the whole hierarchy.
type Config struct {
	L1      LevelConfig
	L2      LevelConfig
	L1L2Bus BusConfig
	MemBus  BusConfig
	// MemAccessCycles is main-memory access latency in processor cycles
	// (90 ns at the simulated clock).
	MemAccessCycles int64
	// InfiniteL1L2Bus and InfiniteMemBus make one bus infinitely wide
	// while the rest of the system stays finite — the per-component
	// decomposition the paper suggests ("these three categories can be
	// broken down further to isolate individual parts of the system").
	// Only meaningful in Full mode.
	InfiniteL1L2Bus bool
	InfiniteMemBus  bool
	// MemBanks, when positive, models a finite number of interleaved
	// DRAM banks, each busy for MemAccessCycles per access. The paper
	// assumes infinite banks (Table 4) and argues DRAM is "unlikely to
	// become a long-term performance bottleneck" (Section 2.3) — zero
	// keeps that assumption; a small count lets the claim be tested.
	MemBanks int
	// Mode selects Full, InfiniteBW, or Perfect timing.
	Mode Mode
	// TaggedPrefetch enables Gindele-style tagged prefetching in L1
	// (experiments E and F).
	TaggedPrefetch bool
	// StreamBuffers, when Buffers > 0, enables Jouppi-style stream
	// buffers as an alternative hardware prefetch mechanism (see
	// streambuf.go).
	StreamBuffers StreamBufferConfig
	// VictimCache, when Entries > 0, adds a small fully-associative
	// victim buffer behind L1 (see victim.go).
	VictimCache VictimCacheConfig
	// Scratchpad, when Size > 0, carves a software-managed on-chip
	// memory out of the address space: accesses in [Base, Base+Size)
	// complete in one cycle and never touch the caches or buses — the
	// compiler-managed data placement the paper proposes in Section 6
	// ("the kinds of analyses performed for effective register
	// allocation might be readily extended").
	Scratchpad ScratchpadConfig
}

// ScratchpadConfig describes a software-managed on-chip memory region.
type ScratchpadConfig struct {
	// Base and Size delimit the address range held on chip.
	Base, Size uint64
}

// contains reports whether addr falls in the scratchpad.
func (s ScratchpadConfig) contains(addr uint64) bool {
	return s.Size > 0 && addr >= s.Base && addr < s.Base+s.Size
}

// Stats accumulates timing-model event and traffic counts.
type Stats struct {
	Loads          int64
	Stores         int64
	L1Hits         int64
	L1Misses       int64
	L1MergedMisses int64 // secondary misses merged into an outstanding fill
	L2Hits         int64
	L2Misses       int64
	// L2MergedMisses counts L2 lookups satisfied by forwarding a block
	// still in flight from memory — resident in the tag array but not yet
	// arrived. Historically this path incremented no counter at all, so
	// L2 accesses did not sum to L2Hits+L2Misses.
	L2MergedMisses int64
	Prefetches     int64
	// StreamBufHits counts L1 misses served from a stream buffer;
	// StreamBufPrefetches counts blocks the buffers fetched.
	StreamBufHits       int64
	StreamBufPrefetches int64
	// VictimHits counts L1 misses satisfied by the victim cache.
	VictimHits int64
	// ScratchpadHits counts accesses served by the software-managed
	// scratchpad region.
	ScratchpadHits int64
	// Traffic below each level, in bytes (fills + write-backs).
	L1L2TrafficBytes units.Bytes
	MemTrafficBytes  units.Bytes
	WriteBacksL1     int64
	WriteBacksL2     int64
	// L1Evictions and L2Evictions count valid lines displaced at each
	// level (clean or dirty; dirty ones also count as write-backs).
	L1Evictions int64
	L2Evictions int64
	// L1L2BusBusyCycles and MemBusBusyCycles accumulate the processor
	// cycles each finite bus spent transferring data; divided by total
	// execution cycles they give bus utilization. Always zero in
	// Perfect/InfiniteBW modes (the buses are infinitely wide there).
	L1L2BusBusyCycles units.Cycles
	MemBusBusyCycles  units.Cycles
}

// L1L2BusUtilization returns the L1/L2 bus duty cycle over a run of
// totalCycles processor cycles (0 when totalCycles is 0).
func (s Stats) L1L2BusUtilization(totalCycles units.Cycles) float64 {
	if totalCycles <= 0 {
		return 0
	}
	return units.Ratio(s.L1L2BusBusyCycles, totalCycles)
}

// MemBusUtilization returns the memory bus duty cycle over a run of
// totalCycles processor cycles (0 when totalCycles is 0).
func (s Stats) MemBusUtilization(totalCycles units.Cycles) float64 {
	if totalCycles <= 0 {
		return 0
	}
	return units.Ratio(s.MemBusBusyCycles, totalCycles)
}

// bus models a shared, finite-width data path with a next-free time.
type bus struct {
	cfg      BusConfig
	infinite bool
	// wshift/wpow replace the per-transfer division by WidthBytes with a
	// shift when the width is a power of two (every Table 4 bus is); a
	// zero-value bus falls back to the division.
	wshift   uint8
	wpow     bool
	nextFree int64
	busy     int64 // cumulative cycles spent transferring
}

// newBus builds a bus, precomputing the power-of-two width shift.
func newBus(cfg BusConfig, infinite bool) *bus {
	b := &bus{cfg: cfg, infinite: infinite}
	if w := cfg.WidthBytes; w > 0 && w&(w-1) == 0 {
		b.wpow = true
		for ; w > 1; w >>= 1 {
			b.wshift++
		}
	}
	return b
}

// transfer schedules moving n bytes at earliest time at. It returns the
// cycle when the first (critical) word arrives and the cycle when the full
// transfer completes, and advances bus occupancy.
func (b *bus) transfer(at int64, n int) (critical, done int64) {
	if b.infinite {
		return at, at
	}
	// New rejects finite buses with WidthBytes < 1; the local clamp keeps
	// the division provably safe for any bus constructed by hand.
	var beats int
	if b.wpow {
		beats = (n + (1 << b.wshift) - 1) >> b.wshift
	} else {
		width := b.cfg.WidthBytes
		if width < 1 {
			width = 1
		}
		beats = (n + width - 1) / width
	}
	if beats < 1 {
		beats = 1
	}
	start := at
	if b.nextFree > start {
		start = b.nextFree
	}
	cycles := int64(beats) * int64(b.cfg.Ratio)
	b.nextFree = start + cycles
	b.busy += cycles
	return start + int64(b.cfg.Ratio), start + cycles
}

// A cache-line frame is one packed word: the block number shifted left by
// lineFlagBits with the state bits below it. Eight frames share a hardware
// cache line, so a tag probe of the simulated L2 — whose scaled tag array
// far exceeds the host's caches — costs a third of the misses the previous
// 24-byte struct did. Block numbers must fit in 61 bits, which holds for
// every constructible workload (addresses sit far below 2^61).
const (
	lineValid    uint64 = 1 << 0
	lineDirty    uint64 = 1 << 1
	linePrefTag  uint64 = 1 << 2 // tagged-prefetch bit
	lineFlagBits        = 3
	// lineStateMask strips the mutable state bits, leaving blk<<3|valid —
	// a hit is then a single compare against the probe word.
	lineStateMask = ^uint64(lineDirty | linePrefTag)
)

// fill records an in-flight block fill.
type fill struct {
	ready int64 // critical word available
	done  int64 // full block arrived
	// latReady is the critical-word time an infinitely-wide bus would
	// have achieved (populated and read only under Instrument's splitBW).
	latReady int64
}

// level is the tag store + MSHRs of one cache level. The hot state is
// structure-of-arrays: all line frames live in one flat packed-word slice
// (set s occupies tags[s*assoc : (s+1)*assoc], set-major), LRU timestamps
// live in a parallel slice touched only by set-associative levels,
// in-flight fills live in an open-addressed fillTable (see filltable.go),
// and the MSHR next-free times form an implicit min-heap so reserving the
// least-busy register is O(1) peek + O(log MSHRs) update instead of an
// O(MSHRs) scan.
type level struct {
	cfg      LevelConfig
	tags     []uint64 // nsets x assoc packed frames, set-major
	lastUse  []int64  // parallel LRU timestamps; nil when assoc == 1
	assoc    int
	setMask  uint64
	blkShift uint
	mshrBusy []int64 // next-free time per miss register
	mshrMin  int     // index of the least-busy register
	fills    fillTable
	clock    int64 // LRU timestamp source
}

func newLevel(cfg LevelConfig) *level {
	// New validates every level before building it; the clamps restate
	// the positive-geometry guarantees locally.
	blocks := cfg.Size / max(1, cfg.BlockSize)
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > blocks {
		assoc = max(1, blocks)
	}
	nsets := blocks / assoc
	l := &level{
		cfg:      cfg,
		tags:     make([]uint64, nsets*assoc),
		assoc:    assoc,
		setMask:  uint64(nsets - 1),
		mshrBusy: make([]int64, cfg.MSHRs),
		fills:    newFillTable(),
	}
	if assoc > 1 {
		l.lastUse = make([]int64, nsets*assoc)
	}
	for bs := cfg.BlockSize; bs > 1; bs >>= 1 {
		l.blkShift++
	}
	return l
}

func (l *level) block(addr uint64) uint64 { return addr >> l.blkShift }

// dmProbe is the direct-mapped hit test alone, small enough to inline
// into the Load/Store fast paths. Valid only when l.assoc == 1 (every
// Table 4 L1); lookup is the general form.
func (l *level) dmProbe(addr uint64) (int, bool) {
	blk := addr >> l.blkShift
	i := int(blk & l.setMask)
	return i, l.tags[i]&lineStateMask == blk<<lineFlagBits|lineValid
}

// lookup returns the frame index holding addr. The returned index is valid
// until the next installVictim on the level; callers mutate line state by
// flipping flag bits in l.tags[i].
func (l *level) lookup(addr uint64) (int, bool) {
	blk := l.block(addr)
	want := blk<<lineFlagBits | lineValid
	if l.assoc == 1 {
		// Direct-mapped fast path (every machine's L1 in Table 4): one
		// frame per set, no LRU bookkeeping — lastUse is never compared
		// in a one-way set, so the clock need not tick. Keeping the
		// set-associative scan in its own function keeps this path within
		// the inlining budget, so the per-access call overhead vanishes.
		i := int(blk & l.setMask)
		return i, l.tags[i]&lineStateMask == want
	}
	return l.lookupAssoc(blk, want)
}

// lookupAssoc is the set-associative slow path of lookup, updating LRU
// state on a hit.
func (l *level) lookupAssoc(blk, want uint64) (int, bool) {
	base := int(blk&l.setMask) * l.assoc
	for i := base; i < base+l.assoc; i++ {
		if l.tags[i]&lineStateMask == want {
			l.clock++
			l.lastUse[i] = l.clock
			return i, true
		}
	}
	return 0, false
}

// present reports residency without touching LRU state.
func (l *level) present(addr uint64) bool {
	blk := l.block(addr)
	want := blk<<lineFlagBits | lineValid
	if l.assoc == 1 {
		return l.tags[blk&l.setMask]&lineStateMask == want
	}
	base := int(blk&l.setMask) * l.assoc
	for i := base; i < base+l.assoc; i++ {
		if l.tags[i]&lineStateMask == want {
			return true
		}
	}
	return false
}

// installVictim allocates a line for addr. It reports whether a valid line
// was displaced, whether that victim was dirty, and the victim's block
// number.
func (l *level) installVictim(addr uint64, dirty, prefTag bool) (hadVictim, victimDirty bool, victimBlock uint64) {
	blk := l.block(addr)
	nw := blk<<lineFlagBits | lineValid
	if dirty {
		nw |= lineDirty
	}
	if prefTag {
		nw |= linePrefTag
	}
	if l.assoc == 1 {
		i := blk & l.setMask
		old := l.tags[i]
		if old&lineValid != 0 {
			hadVictim = true
			victimDirty = old&lineDirty != 0
			victimBlock = old >> lineFlagBits
		}
		l.tags[i] = nw
		return hadVictim, victimDirty, victimBlock
	}
	base := int(blk&l.setMask) * l.assoc
	w := base
	for i := base; i < base+l.assoc; i++ {
		if l.tags[i]&lineValid == 0 {
			w = i
			goto place
		}
	}
	w = base
	for i := base + 1; i < base+l.assoc; i++ {
		if l.lastUse[i] < l.lastUse[w] {
			w = i
		}
	}
	hadVictim = true
	victimDirty = l.tags[w]&lineDirty != 0
	victimBlock = l.tags[w] >> lineFlagBits
place:
	l.clock++
	l.tags[w] = nw
	l.lastUse[w] = l.clock
	return hadVictim, victimDirty, victimBlock
}

// occupancy counts the MSHRs still busy at time t. The heap is a
// permutation of the register file, so the count is order-independent.
func (l *level) occupancy(t int64) int {
	n := 0
	for _, busy := range l.mshrBusy {
		if busy > t {
			n++
		}
	}
	return n
}

// acquireMSHR reserves a miss register at earliest time t, returning the
// actual start time (delayed if all MSHRs are busy). The least-busy
// register's index is tracked incrementally — an O(1) peek. The caller
// must follow with commitMSHR to record the register's new next-free
// time; nothing observes the registers between the two calls.
func (l *level) acquireMSHR(t int64) int64 {
	if m := l.mshrBusy[l.mshrMin]; m > t {
		return m
	}
	return t
}

// commitMSHR occupies the register reserved by acquireMSHR until done and
// rescans for the new least-busy register. The scan compiles to
// conditional moves, beating a heap's data-dependent sift branches; the
// eight-register case (every lockup-free Table 4 machine) uses a pairwise
// tree so the moves overlap instead of forming a serial chain. Only the
// minimum and the multiset of busy times are observable (acquireMSHR and
// occupancy), so overwriting "the tracked min slot" is timing-equivalent
// to the historical argmin scan.
func (l *level) commitMSHR(done int64) {
	b := l.mshrBusy
	b[l.mshrMin] = done
	if len(b) == 8 {
		b = b[:8:8]
		i0, v0 := 0, b[0]
		if b[1] < v0 {
			i0, v0 = 1, b[1]
		}
		i1, v1 := 2, b[2]
		if b[3] < v1 {
			i1, v1 = 3, b[3]
		}
		i2, v2 := 4, b[4]
		if b[5] < v2 {
			i2, v2 = 5, b[5]
		}
		i3, v3 := 6, b[6]
		if b[7] < v3 {
			i3, v3 = 7, b[7]
		}
		if v1 < v0 {
			i0, v0 = i1, v1
		}
		if v3 < v2 {
			i2, v2 = i3, v3
		}
		if v2 < v0 {
			i0 = i2
		}
		l.mshrMin = i0
		return
	}
	mi, mv := 0, b[0]
	for i := 1; i < len(b); i++ {
		if b[i] < mv {
			mv, mi = b[i], i
		}
	}
	l.mshrMin = mi
}

// Hierarchy is the timing model used by the processor cores.
type Hierarchy struct {
	cfg    Config
	l1     *level
	l2     *level
	l1l2   *bus
	mem    *bus
	banks  []int64 // per-DRAM-bank busy-until times (empty = infinite banks)
	sbufs  *sbState
	victim *victimCache
	stats  Stats
	// MSHR occupancy histograms, sampled at each miss; nil unless
	// Instrument was given a registry (the occupancy scan is skipped
	// when nil).
	mshrOccL1 *telemetry.Histogram
	mshrOccL2 *telemetry.Histogram
	// splitBW turns on per-access attribution (see Instrument). lastLat
	// and lastBW carry it between l2Access/miss and Load: lastLat is the
	// latency-only completion estimate of the access being serviced,
	// lastBW the bandwidth-attributable delay of the most recent Load.
	splitBW bool
	lastLat int64
	lastBW  int64
}

// New constructs a hierarchy for cfg.
func New(cfg Config) (*Hierarchy, error) {
	if cfg.Mode == Perfect {
		return &Hierarchy{cfg: cfg}, nil
	}
	for _, lv := range []struct {
		name string
		c    LevelConfig
	}{{"L1", cfg.L1}, {"L2", cfg.L2}} {
		if lv.c.BlockSize <= 0 || lv.c.BlockSize&(lv.c.BlockSize-1) != 0 {
			return nil, fmt.Errorf("mem: %s block size %d must be a power of two", lv.name, lv.c.BlockSize)
		}
		if lv.c.Size <= 0 || lv.c.Size%lv.c.BlockSize != 0 {
			return nil, fmt.Errorf("mem: %s size %d must be a multiple of block size", lv.name, lv.c.Size)
		}
		if lv.c.MSHRs < 1 {
			return nil, fmt.Errorf("mem: %s needs at least one MSHR", lv.name)
		}
	}
	inf := cfg.Mode == InfiniteBW
	if !inf && !cfg.InfiniteL1L2Bus && cfg.L1L2Bus.WidthBytes < 1 {
		return nil, fmt.Errorf("mem: L1-L2 bus width %d must be at least 1 byte", cfg.L1L2Bus.WidthBytes)
	}
	if !inf && !cfg.InfiniteMemBus && cfg.MemBus.WidthBytes < 1 {
		return nil, fmt.Errorf("mem: memory bus width %d must be at least 1 byte", cfg.MemBus.WidthBytes)
	}
	h := &Hierarchy{
		cfg:  cfg,
		l1:   newLevel(cfg.L1),
		l2:   newLevel(cfg.L2),
		l1l2: newBus(cfg.L1L2Bus, inf || cfg.InfiniteL1L2Bus),
		mem:  newBus(cfg.MemBus, inf || cfg.InfiniteMemBus),
	}
	if cfg.StreamBuffers.Buffers > 0 {
		h.sbufs = newSBState(cfg.StreamBuffers)
	}
	if cfg.VictimCache.Entries > 0 {
		h.victim = newVictimCache(cfg.VictimCache)
	}
	if cfg.MemBanks > 0 && cfg.Mode == Full {
		h.banks = make([]int64, cfg.MemBanks)
	}
	return h, nil
}

// Instrument sets the hierarchy's instrumentation for the run ahead;
// cpu.Run calls it from the run's probe. metrics, when non-nil, receives
// live per-level MSHR-occupancy histograms (mem.l1.mshr_occupancy and
// mem.l2.mshr_occupancy), which the Stats counters cannot express; a
// Perfect hierarchy has no MSHRs and registers none. splitBW turns on
// per-access bandwidth attribution: alongside each load's actual
// completion time the hierarchy tracks a latency-only estimate (what an
// infinitely-wide-bus system would have delivered, the T_I analogue),
// exposing the difference via LastLoadBWDelay so the core's stall
// ledger can split load waits into latency and bandwidth causes. Timing
// results are identical either way; Instrument only gates the extra
// bookkeeping, and a nil registry with splitBW false turns it all off.
func (h *Hierarchy) Instrument(metrics *telemetry.Registry, splitBW bool) {
	h.splitBW = splitBW
	h.mshrOccL1, h.mshrOccL2 = nil, nil
	if metrics != nil && h.l1 != nil {
		// One bucket per possible occupancy value 0..MSHRs.
		h.mshrOccL1 = metrics.Histogram("mem.l1.mshr_occupancy",
			telemetry.LinearBuckets(0, 1, h.cfg.L1.MSHRs+1))
		h.mshrOccL2 = metrics.Histogram("mem.l2.mshr_occupancy",
			telemetry.LinearBuckets(0, 1, h.cfg.L2.MSHRs+1))
	}
}

// bankAccess serialises an access to the DRAM bank serving addr, starting
// no earlier than t; it returns when the bank delivers (t +
// MemAccessCycles once the bank frees). With infinite banks (the Table 4
// assumption) it is a pure latency.
func (h *Hierarchy) bankAccess(addr uint64, t int64) int64 {
	if len(h.banks) == 0 {
		return t + h.cfg.MemAccessCycles
	}
	// Banks interleave on L2-block granularity.
	b := int(h.l2.block(addr)) % len(h.banks)
	if b < 0 {
		b = -b
	}
	start := t
	if h.banks[b] > start {
		start = h.banks[b]
	}
	done := start + h.cfg.MemAccessCycles
	h.banks[b] = done
	return done
}

// NewCluster builds the memory system of a single-chip multiprocessor
// (paper Section 2.2): cores cores with private L1 caches sharing one L2,
// one L1/L2 bus, and one memory bus. The returned hierarchies expose the
// same Load/Store interface as a single-core hierarchy; the i-th core
// drives the i-th element. Contention on the shared buses and capacity
// interference in the shared L2 are what the multiprocessor experiment
// measures. Perfect-mode clusters are independent perfect hierarchies.
func NewCluster(cfg Config, cores int) ([]*Hierarchy, error) {
	if cores < 1 {
		return nil, fmt.Errorf("mem: cluster needs at least one core")
	}
	hs := make([]*Hierarchy, cores)
	first, err := New(cfg)
	if err != nil {
		return nil, err
	}
	hs[0] = first
	for i := 1; i < cores; i++ {
		h, err := New(cfg)
		if err != nil {
			return nil, err
		}
		if cfg.Mode != Perfect {
			// Share the L2 array, both buses, and (if enabled) the
			// stream buffers' bandwidth path with core 0.
			h.l2 = first.l2
			h.l1l2 = first.l1l2
			h.mem = first.mem
		}
		hs[i] = h
	}
	return hs, nil
}

// Stats returns a copy of the accumulated statistics, folding in the bus
// busy-cycle totals. In a cluster (NewCluster) the buses are shared, so
// every member hierarchy reports the same bus busy cycles.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	if h.l1l2 != nil {
		s.L1L2BusBusyCycles = units.Cycles(h.l1l2.busy)
	}
	if h.mem != nil {
		s.MemBusBusyCycles = units.Cycles(h.mem.busy)
	}
	return s
}

// MSHROccupancy returns snapshots of the L1 and L2 MSHR-occupancy
// histograms (zero snapshots unless Instrument was given a registry).
func (h *Hierarchy) MSHROccupancy() (l1, l2 telemetry.HistogramSnapshot) {
	return h.mshrOccL1.Snapshot(), h.mshrOccL2.Snapshot()
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// LastLoadBWDelay returns the bandwidth-attributable share, in cycles,
// of the most recent Load's completion time: actual completion minus the
// latency-only (infinitely-wide-bus) estimate, covering bus transfer
// time and all contention (bus queueing, MSHR waits, bank conflicts).
// Zero for hits and unless Instrument turned on splitBW. The caller must
// consume it before issuing the next access.
func (h *Hierarchy) LastLoadBWDelay() int64 { return h.lastBW }

// FillAttrSample populates the memory-system columns of an attribution
// sample at simulated time now: cumulative bus busy cycles, L1 MSHR
// occupancy, and the number of L1 misses still outstanding. The clock
// and core columns are the caller's.
func (h *Hierarchy) FillAttrSample(s *attr.Sample, now int64) {
	if h.l1 == nil { // Perfect mode has no hierarchy state
		return
	}
	s.L1L2BusBusy = h.l1l2.busy
	s.MemBusBusy = h.mem.busy
	s.MSHROccupancy = int64(h.l1.occupancy(now))
	s.OutstandingMisses = h.l1.fills.inFlight(now)
}

// l2Access services an L1 miss for the L1 block containing addr, starting
// no earlier than t. It returns the cycle at which the critical word is
// available to L1 and the cycle the L1 block transfer completes.
func (h *Hierarchy) l2Access(addr uint64, t int64) (critical, done int64) {
	l2 := h.l2
	l2.fills.prune(t)
	blk := l2.block(addr)
	if _, ok := l2.lookup(addr); ok {
		dataAt := t + h.cfg.L2.AccessCycles
		lat := dataAt
		if f, ok := l2.fills.getAbove(blk, dataAt); ok {
			// The block is still in flight from memory; forward when
			// its critical word arrives.
			dataAt = f.ready
			if f.latReady > lat {
				lat = f.latReady
			}
			h.stats.L2MergedMisses++
		} else {
			h.stats.L2Hits++
		}
		if h.splitBW {
			h.lastLat = lat // an infinite bus forwards instantly
		}
		c, d := h.l1l2.transfer(dataAt, h.cfg.L1.BlockSize)
		h.stats.L1L2TrafficBytes += units.Bytes(h.cfg.L1.BlockSize)
		return c, d
	}
	// L2 miss: fetch the L2 block from memory.
	h.stats.L2Misses++
	if h.mshrOccL2 != nil {
		h.mshrOccL2.Observe(float64(l2.occupancy(t + h.cfg.L2.AccessCycles)))
	}
	start := l2.acquireMSHR(t + h.cfg.L2.AccessCycles)
	memData := h.bankAccess(addr, start)
	critMem, doneMem := h.mem.transfer(memData, h.cfg.L2.BlockSize)
	h.stats.MemTrafficBytes += units.Bytes(h.cfg.L2.BlockSize)
	l2.commitMSHR(doneMem)
	// Latency-only estimate: pure access times, no MSHR wait, no bank
	// conflict, no bus transfer — the T_I path for this access. MSHR and
	// bank queueing are contention, which attribution charges to
	// bandwidth.
	latCrit := t + h.cfg.L2.AccessCycles + h.cfg.MemAccessCycles
	if h.splitBW {
		h.lastLat = latCrit
	}
	l2.fills.put(blk, fill{ready: critMem, done: doneMem, latReady: latCrit})
	if had, vd, _ := l2.installVictim(addr, false, false); had {
		h.stats.L2Evictions++
		if vd {
			// Dirty L2 victim goes to memory over the memory bus.
			h.mem.transfer(doneMem, h.cfg.L2.BlockSize)
			h.stats.MemTrafficBytes += units.Bytes(h.cfg.L2.BlockSize)
			h.stats.WriteBacksL2++
		}
	}
	// Critical-word-first end to end: forward to L1 as soon as the
	// critical word reaches L2.
	c, d := h.l1l2.transfer(critMem, h.cfg.L1.BlockSize)
	h.stats.L1L2TrafficBytes += units.Bytes(h.cfg.L1.BlockSize)
	return c, d
}

// miss handles an L1 miss for addr starting at time t. dirty marks the
// filled line dirty (store miss with write-allocate); prefTag marks it as
// prefetched. It returns the data-ready cycle for the requester.
func (h *Hierarchy) miss(addr uint64, t int64, dirty, prefTag bool) int64 {
	l1 := h.l1
	if h.mshrOccL1 != nil {
		h.mshrOccL1.Observe(float64(l1.occupancy(t)))
	}
	start := l1.acquireMSHR(t)
	crit, done := h.l2Access(addr, start)
	if h.splitBW {
		// l2Access measured its latency-only estimate from start; shift
		// it back to t so the L1 MSHR wait (start-t) counts as
		// contention, not latency.
		h.lastLat -= start - t
	}
	l1.commitMSHR(done)
	l1.fills.put(l1.block(addr), fill{ready: crit, done: done, latReady: h.lastLat})
	had, vd, vblk := l1.installVictim(addr, dirty, prefTag)
	if had {
		h.stats.L1Evictions++
	}
	switch {
	case had && h.victim != nil:
		// Evictions (clean or dirty) park in the victim cache; its own
		// spills generate the write-back traffic.
		h.victimInsert(vblk, vd, done)
	case vd:
		// Dirty L1 victim is written back to L2 over the L1/L2 bus.
		h.l1l2.transfer(done, h.cfg.L1.BlockSize)
		h.stats.L1L2TrafficBytes += units.Bytes(h.cfg.L1.BlockSize)
		h.stats.WriteBacksL1++
		// The victim dirties L2 (write-back inclusive-ish handling).
		h.writebackToL2(vblk)
	}
	return crit
}

// writebackToL2 marks the L2 copy of an evicted dirty L1 block dirty; if
// L2 no longer holds it, the block continues to memory.
func (h *Hierarchy) writebackToL2(l1Block uint64) {
	addr := l1Block << h.l1.blkShift
	if i, ok := h.l2.lookup(addr); ok {
		h.l2.tags[i] |= lineDirty
		return
	}
	h.mem.transfer(h.mem.nextFree, h.cfg.L1.BlockSize)
	h.stats.MemTrafficBytes += units.Bytes(h.cfg.L1.BlockSize)
}

// prefetch issues a tagged prefetch of the block after addr if it is not
// already resident or in flight.
func (h *Hierarchy) prefetch(addr uint64, t int64) {
	next := addr + uint64(h.cfg.L1.BlockSize)
	l1 := h.l1
	if l1.present(next) {
		return
	}
	if f, ok := l1.fills.get(l1.block(next)); ok && f.done > t {
		return
	}
	h.stats.Prefetches++
	h.miss(next, t, false, true)
}

// Load issues a data load at cycle now and returns the cycle at which the
// loaded value is available.
//
//memwall:hot
func (h *Hierarchy) Load(addr uint64, now int64) int64 {
	h.stats.Loads++
	if h.splitBW {
		h.lastBW = 0 // hits and buffer/scratchpad paths have no bus share
	}
	if h.cfg.Mode == Perfect {
		return now + 1
	}
	if h.cfg.Scratchpad.contains(addr) {
		h.stats.ScratchpadHits++
		return now + 1
	}
	l1 := h.l1
	l1.fills.prune(now)
	var i int
	var hit bool
	if l1.assoc == 1 {
		i, hit = l1.dmProbe(addr)
	} else {
		i, hit = l1.lookup(addr)
	}
	if hit {
		ready := now + h.cfg.L1.AccessCycles
		if f, ok := l1.fills.getAbove(l1.block(addr), ready); ok {
			// Secondary miss: merge with the in-flight fill (the paper
			// notes a lockup-free cache "may combine two misses with
			// one response from memory").
			h.stats.L1MergedMisses++
			if h.splitBW {
				lat := f.latReady
				if ready > lat {
					lat = ready
				}
				if d := f.ready - lat; d > 0 {
					h.lastBW = d
				}
			}
			ready = f.ready
		} else {
			h.stats.L1Hits++
		}
		if h.cfg.TaggedPrefetch && l1.tags[i]&linePrefTag != 0 {
			l1.tags[i] &^= linePrefTag
			h.prefetch(addr, now)
		}
		return ready
	}
	h.stats.L1Misses++
	if ready, ok := h.victimLookup(addr, now, false); ok {
		return ready
	}
	if ready, ok := h.streamLookup(addr, now); ok {
		return ready
	}
	ready := h.miss(addr, now+h.cfg.L1.AccessCycles, false, false)
	if h.splitBW {
		// Snapshot the bandwidth share before the tagged prefetch below
		// — its nested miss overwrites lastLat.
		if d := ready - h.lastLat; d > 0 {
			h.lastBW = d
		}
	}
	if h.cfg.TaggedPrefetch {
		h.prefetch(addr, now)
	}
	return ready
}

// Store issues a data store at cycle now. The write buffer is infinite
// (Table 4 assumption), so stores never stall the processor: the returned
// cycle is when the store is accepted, always now+1. Store misses still
// allocate (write-allocate, write-back), consuming MSHRs and bus
// bandwidth in the background.
//
//memwall:hot
func (h *Hierarchy) Store(addr uint64, now int64) int64 {
	h.stats.Stores++
	if h.cfg.Mode == Perfect {
		return now + 1
	}
	if h.cfg.Scratchpad.contains(addr) {
		h.stats.ScratchpadHits++
		return now + 1
	}
	l1 := h.l1
	l1.fills.prune(now)
	var i int
	var hit bool
	if l1.assoc == 1 {
		i, hit = l1.dmProbe(addr)
	} else {
		i, hit = l1.lookup(addr)
	}
	if hit {
		// Same in-flight window as Load: the store's data slot is ready at
		// now + L1 access time, so a fill whose critical word lands later
		// than that is a merged (secondary) miss. Store historically
		// compared f.ready against bare now, classifying the tail of the
		// window as plain hits — timing was unaffected (the infinite write
		// buffer accepts every store at now+1) but the hit/merge split
		// disagreed between the two ops.
		if _, ok := l1.fills.getAbove(l1.block(addr), now+h.cfg.L1.AccessCycles); ok {
			h.stats.L1MergedMisses++
		} else {
			h.stats.L1Hits++
		}
		l1.tags[i] |= lineDirty
		if h.cfg.TaggedPrefetch && l1.tags[i]&linePrefTag != 0 {
			l1.tags[i] &^= linePrefTag
			h.prefetch(addr, now)
		}
		return now + 1
	}
	h.stats.L1Misses++
	if _, ok := h.victimLookup(addr, now, true); ok {
		return now + 1
	}
	if _, ok := h.streamLookup(addr, now); ok {
		if i, hit := l1.lookup(addr); hit {
			l1.tags[i] |= lineDirty
		}
		return now + 1
	}
	h.miss(addr, now+h.cfg.L1.AccessCycles, true, false)
	if h.cfg.TaggedPrefetch {
		h.prefetch(addr, now)
	}
	return now + 1
}
