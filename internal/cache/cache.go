// Package cache implements a trace-driven, single-level cache simulator in
// the style of DineroIII, which the paper uses for all traffic-ratio
// measurements (Section 4.1). It models set-associative caches with
// configurable size, block size, associativity, replacement policy, and
// write policy, and accounts traffic byte-exactly:
//
//   - fetch traffic: bytes loaded from the level below on misses,
//   - write-back traffic: dirty bytes written to the level below on
//     eviction and on the end-of-run flush,
//   - write-through traffic: store words forwarded below on every store
//     (write-through configurations only).
//
// As in the paper, "total traffic ... includes write-back traffic but not
// request traffic (i.e., addresses)", and the cache is flushed at program
// completion with the flushed write-backs included in the measurements.
package cache

import (
	"fmt"
	"math/bits"

	"memwall/internal/stats"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/units"
)

// ReplPolicy selects the replacement policy within a set.
type ReplPolicy uint8

const (
	// LRU evicts the least-recently-used block.
	LRU ReplPolicy = iota
	// FIFO evicts the oldest-allocated block.
	FIFO
	// Random evicts a pseudo-randomly chosen block (deterministic seed).
	Random
)

// String returns the conventional short name of the policy.
func (p ReplPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("ReplPolicy(%d)", uint8(p))
	}
}

// WritePolicy selects how stores propagate to the level below.
type WritePolicy uint8

const (
	// WriteBack marks blocks dirty and writes them below only on eviction.
	WriteBack WritePolicy = iota
	// WriteThrough forwards every store word to the level below.
	WriteThrough
)

// String returns "write-back" or "write-through".
func (p WritePolicy) String() string {
	if p == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// AllocPolicy selects behaviour on store misses.
type AllocPolicy uint8

const (
	// WriteAllocate fetches the block on a store miss.
	WriteAllocate AllocPolicy = iota
	// NoWriteAllocate sends the store word below without allocating.
	NoWriteAllocate
	// WriteValidate allocates on a store miss by overwriting: only the
	// stored sub-block is marked valid and no fetch occurs (Jouppi's
	// write-validate policy, which the paper identifies as a large
	// traffic-reduction opportunity).
	WriteValidate
)

// String returns the conventional policy name.
func (p AllocPolicy) String() string {
	switch p {
	case NoWriteAllocate:
		return "no-write-allocate"
	case WriteValidate:
		return "write-validate"
	default:
		return "write-allocate"
	}
}

// Config describes a cache organisation.
type Config struct {
	// Size is the capacity in bytes. Must be a positive multiple of
	// BlockSize and (with Assoc) yield a power-of-two number of sets.
	Size int
	// BlockSize is the line size in bytes; a power of two >= 4.
	BlockSize int
	// Assoc is the set associativity. Assoc <= 0 means fully associative.
	Assoc int
	// Repl is the replacement policy (default LRU).
	Repl ReplPolicy
	// Write is the write policy (default write-back).
	Write WritePolicy
	// Alloc is the store-miss policy (default write-allocate).
	Alloc AllocPolicy
	// SubBlockSize, when non-zero, enables a sector (sub-block) cache:
	// the address block is BlockSize bytes but transfers happen in
	// SubBlockSize units, each with its own valid and dirty bit — the
	// block/sub-block trade-off of Hill & Smith that the paper's
	// flexible-transfer-size proposal builds on. Must divide BlockSize
	// and be a power of two >= 4. Zero means SubBlockSize == BlockSize.
	SubBlockSize int
}

// subBlock returns the effective transfer size.
func (c Config) subBlock() int {
	if c.SubBlockSize == 0 {
		return c.BlockSize
	}
	return c.SubBlockSize
}

// String renders the configuration compactly, e.g.
// "64KB/32B/1-way LRU write-back write-allocate".
func (c Config) String() string {
	assoc := fmt.Sprintf("%d-way", c.Assoc)
	if c.Assoc <= 0 || c.Assoc*c.BlockSize >= c.Size {
		assoc = "fully-assoc"
	}
	return fmt.Sprintf("%s/%dB/%s %s %s %s",
		sizeLabel(c.Size), c.BlockSize, assoc, c.Repl, c.Write, c.Alloc)
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Validate reports whether the configuration is simulable.
func (c Config) Validate() error {
	if c.BlockSize < trace.WordSize || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache: block size %d must be a power of two >= %d", c.BlockSize, trace.WordSize)
	}
	if c.Size <= 0 || c.Size%c.BlockSize != 0 {
		return fmt.Errorf("cache: size %d must be a positive multiple of block size %d", c.Size, c.BlockSize)
	}
	blocks := c.Size / c.BlockSize
	assoc := c.Assoc
	if assoc <= 0 || assoc > blocks {
		assoc = max(1, blocks) // blocks >= 1: size is a positive multiple of block size
	}
	if blocks%assoc != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by associativity %d", blocks, assoc)
	}
	sets := blocks / assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: number of sets %d must be a power of two", sets)
	}
	sb := c.subBlock()
	if sb < trace.WordSize || sb&(sb-1) != 0 {
		return fmt.Errorf("cache: sub-block size %d must be a power of two >= %d", sb, trace.WordSize)
	}
	if c.BlockSize%sb != 0 {
		return fmt.Errorf("cache: sub-block size %d must divide block size %d", sb, c.BlockSize)
	}
	if c.BlockSize/sb > 64 {
		return fmt.Errorf("cache: more than 64 sub-blocks per block")
	}
	if c.Alloc == WriteValidate && sb != trace.WordSize {
		return fmt.Errorf("cache: write-validate requires %d-byte sub-blocks, got %d", trace.WordSize, sb)
	}
	return nil
}

// Stats accumulates access and traffic counts.
type Stats struct {
	Accesses    int64
	Reads       int64
	Writes      int64
	Misses      int64
	ReadMisses  int64
	WriteMisses int64
	// Fetches counts block fills from below.
	Fetches int64
	// WriteBacks counts dirty block evictions written below, including
	// those forced by the end-of-run flush.
	WriteBacks int64
	// FlushWriteBacks is the subset of WriteBacks caused by Flush.
	FlushWriteBacks int64
	// FetchBytes, WriteBackBytes, WriteThroughBytes are the corresponding
	// byte counts of below-level traffic.
	FetchBytes        units.Bytes
	WriteBackBytes    units.Bytes
	WriteThroughBytes units.Bytes
}

// TrafficBytes returns total traffic to the level below (fetch + write-back
// + write-through), excluding request/address traffic, as in the paper.
func (s Stats) TrafficBytes() units.Bytes {
	return s.FetchBytes + s.WriteBackBytes + s.WriteThroughBytes
}

// Publish folds the statistics into reg as counters named
// "<prefix>.<field>" (e.g. "cache.compress.64KB.misses"). A nil registry
// publishes nothing, so trace-driven sweeps can call this unconditionally.
func (s Stats) Publish(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"accesses", s.Accesses},
		{"reads", s.Reads},
		{"writes", s.Writes},
		{"misses", s.Misses},
		{"fetches", s.Fetches},
		{"writebacks", s.WriteBacks},
		{"fetch_bytes", int64(s.FetchBytes)},
		{"writeback_bytes", int64(s.WriteBackBytes)},
		{"writethrough_bytes", int64(s.WriteThroughBytes)},
	} {
		reg.Counter(prefix + "." + c.name).Add(c.v)
	}
	reg.Gauge(prefix + ".miss_rate").Set(s.MissRate())
}

// MissRate returns Misses/Accesses (0 if no accesses).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one cache block frame. Validity and dirtiness are tracked per
// sub-block; a line is present when any sub-block is valid.
type line struct {
	tag   uint64
	valid uint64 // per-sub-block valid bits
	dirty uint64 // per-sub-block dirty bits
	// lastUse is the LRU timestamp; allocTime the FIFO timestamp.
	lastUse   int64
	allocTime int64
}

func (l *line) present() bool { return l.valid != 0 }

// Cache is a single-level trace-driven cache simulator.
type Cache struct {
	cfg Config
	// lines holds every frame, one allocation per cache: set s is
	// lines[s*assoc : (s+1)*assoc].
	lines     []line
	assoc     int
	setShift  uint
	setMask   uint64
	blockMask uint64
	subSize   int
	subShift  uint
	subMask   uint64 // all-valid mask for a full block
	now       int64
	rng       *stats.RNG
	stats     Stats
	// fa indexes a one-set cache for O(1) lookup and victim choice; nil
	// for set-associative caches, which scan their ways.
	fa *faIndex
	// direct is set for the one geometry and policy set RunRefs replays
	// through runDirect: direct-mapped with more than one set, whole
	// blocks, write-back, write-allocate.
	direct bool
}

// New constructs a cache simulator for cfg. It returns an error if the
// configuration is invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Validate accepted cfg just above; the clamps restate its guarantees
	// (positive block size, at least one block per set) locally.
	blocks := cfg.Size / max(1, cfg.BlockSize)
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > blocks {
		assoc = max(1, blocks)
	}
	nsets := blocks / assoc
	c := &Cache{
		cfg:       cfg,
		lines:     make([]line, blocks),
		assoc:     assoc,
		setMask:   uint64(nsets - 1),
		blockMask: ^uint64(cfg.BlockSize - 1),
		rng:       stats.NewRNG(0xC0FFEE),
	}
	if nsets == 1 {
		c.fa = newFAIndex(assoc)
	}
	for shift := cfg.BlockSize; shift > 1; shift >>= 1 {
		c.setShift++
	}
	sub := max(1, cfg.subBlock()) // subBlock returns a positive divisor of BlockSize
	c.subSize = sub
	for sb := sub; sb > 1; sb >>= 1 {
		c.subShift++
	}
	nsub := cfg.BlockSize / sub
	c.subMask = (uint64(1) << nsub) - 1
	c.direct = assoc == 1 && nsets > 1 && nsub == 1 &&
		cfg.Write == WriteBack && cfg.Alloc == WriteAllocate
	return c, nil
}

// subBit returns the valid/dirty bit for the sub-block containing addr.
func (c *Cache) subBit(addr uint64) uint64 {
	return 1 << ((addr & ^c.blockMask) >> c.subShift)
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.setShift
	return blk & c.setMask, blk
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []line {
	i := int(s) * c.assoc
	return c.lines[i : i+c.assoc]
}

// lookup scans set for tag and returns its way, or -1. Access asks a
// one-set cache's index instead.
func (c *Cache) lookup(set []line, tag uint64) int {
	for i := range set {
		if set[i].present() && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// victim picks the way to replace in set according to the policy,
// preferring an invalid way when one exists. A one-set cache reads the
// same choice off its index instead of scanning.
func (c *Cache) victim(set []line) int {
	if x := c.fa; x != nil {
		switch {
		case x.filled < len(set):
			return x.filled
		case c.cfg.Repl == FIFO:
			return x.cursor
		case c.cfg.Repl == Random:
			return c.rng.Intn(len(set))
		default: // LRU
			return int(x.tail)
		}
	}
	for i := range set {
		if !set[i].present() {
			return i
		}
	}
	switch c.cfg.Repl {
	case FIFO:
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].allocTime < set[best].allocTime {
				best = i
			}
		}
		return best
	case Random:
		return c.rng.Intn(len(set))
	default: // LRU
		best := 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[best].lastUse {
				best = i
			}
		}
		return best
	}
}

// evict writes back the dirty sub-blocks of way w and invalidates it.
func (c *Cache) evict(set []line, w int, flush bool) {
	if set[w].present() && set[w].dirty != 0 {
		c.stats.WriteBacks++
		c.stats.WriteBackBytes += units.Blocks(bits.OnesCount64(set[w].dirty)).Bytes(c.subSize)
		if flush {
			c.stats.FlushWriteBacks++
		}
	}
	set[w].valid = 0
	set[w].dirty = 0
}

// fill allocates way w for tag. fetchMask selects the sub-blocks loaded
// from below (traffic); validMask the sub-blocks marked valid (a
// write-validate store validates without fetching); dirtyMask the
// sub-blocks dirtied.
func (c *Cache) fill(set []line, w int, tag uint64, fetchMask, validMask, dirtyMask uint64) {
	set[w] = line{tag: tag, valid: validMask, dirty: dirtyMask, lastUse: c.now, allocTime: c.now}
	if fetchMask != 0 {
		c.stats.Fetches++
		c.stats.FetchBytes += units.Blocks(bits.OnesCount64(fetchMask)).Bytes(c.subSize)
	}
}

// Access simulates one reference and reports whether it hit. With
// sub-blocks enabled, a reference hits only when the line is present AND
// the addressed sub-block is valid; a present line with an invalid
// sub-block takes a sub-block miss that fetches just that sub-block.
//
//memwall:hot
func (c *Cache) Access(r trace.Ref) bool {
	c.now++
	c.stats.Accesses++
	isWrite := r.Kind == trace.Write
	if isWrite {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	si, tag := c.index(r.Addr)
	set := c.set(si)
	bit := c.subBit(r.Addr)
	// The index is asked here rather than inside lookup, which keeps
	// lookup small enough to inline on the direct-mapped path.
	var w int
	if c.fa != nil {
		w = c.fa.find(tag)
	} else {
		w = c.lookup(set, tag)
	}
	if w >= 0 {
		set[w].lastUse = c.now
		if c.fa != nil {
			c.fa.touch(w)
		}
		if set[w].valid&bit != 0 {
			// Full hit.
			if isWrite {
				if c.cfg.Write == WriteThrough {
					c.stats.WriteThroughBytes += trace.WordSize
				} else {
					set[w].dirty |= bit
				}
			}
			return true
		}
		// Line present, sub-block invalid: sub-block miss.
		c.stats.Misses++
		if isWrite {
			c.stats.WriteMisses++
			switch {
			case c.cfg.Write == WriteThrough:
				c.stats.WriteThroughBytes += trace.WordSize
				set[w].valid |= bit
			case c.cfg.Alloc == WriteValidate:
				// Overwrite-allocate the sub-block: no fetch.
				set[w].valid |= bit
				set[w].dirty |= bit
			case c.cfg.Alloc == NoWriteAllocate:
				c.stats.WriteThroughBytes += trace.WordSize
			default: // write-allocate
				c.fetchSub(&set[w], bit)
				set[w].dirty |= bit
			}
		} else {
			c.stats.ReadMisses++
			c.fetchSub(&set[w], bit)
		}
		return false
	}
	// Line miss.
	c.stats.Misses++
	if isWrite {
		c.stats.WriteMisses++
		if c.cfg.Write == WriteThrough {
			c.stats.WriteThroughBytes += trace.WordSize
		}
		if c.cfg.Alloc == NoWriteAllocate {
			if c.cfg.Write == WriteBack {
				// The store word goes below directly.
				c.stats.WriteThroughBytes += trace.WordSize
			}
			return false
		}
	} else {
		c.stats.ReadMisses++
	}
	w = c.victim(set)
	if c.fa != nil {
		// Re-key the index while way w still holds the evicted tag.
		c.fa.fill(set, w, tag)
	}
	c.evict(set, w, false)
	var fetch, valid, dirty uint64
	switch {
	case isWrite && c.cfg.Write == WriteBack && c.cfg.Alloc == WriteValidate:
		// Allocate by overwriting only the stored sub-block.
		fetch, valid, dirty = 0, bit, bit
	case isWrite && c.cfg.Write == WriteBack:
		// Write-allocate: fetch the addressed sub-block (the whole
		// block when sub-blocking is off) and dirty the stored word.
		fetch, valid, dirty = c.allocMask(bit), c.allocMask(bit), bit
	default:
		// Read, or write-through allocation.
		fetch, valid, dirty = c.allocMask(bit), c.allocMask(bit), 0
	}
	c.fill(set, w, tag, fetch, valid, dirty)
	return false
}

// allocMask returns the sub-blocks transferred on an allocation for the
// addressed sub-block: the full block in conventional mode, just the
// addressed sub-block in sector mode.
func (c *Cache) allocMask(bit uint64) uint64 {
	if c.subSize == c.cfg.BlockSize {
		return c.subMask
	}
	return bit
}

// fetchSub loads one additional sub-block into a present line.
func (c *Cache) fetchSub(l *line, bit uint64) {
	l.valid |= bit
	c.stats.Fetches++
	c.stats.FetchBytes += units.Bytes(c.subSize)
}

// RunRefs replays a materialized trace, flushes, and returns the final
// statistics. A direct-mapped, whole-block, write-back, write-allocate
// cache replays through runDirect; every other configuration calls
// Access once per reference.
//
//memwall:hot
func (c *Cache) RunRefs(refs []trace.Ref) Stats {
	if c.direct {
		c.runDirect(refs)
	} else {
		for _, r := range refs {
			c.Access(r)
		}
	}
	c.Flush()
	return c.stats
}

// runDirect makes Access's decisions for the geometry New marks direct
// and adds the counts replayDirect returns to Stats once. A whole block
// is one sub-block, so every line miss fetches one block and every dirty
// eviction writes one back.
func (c *Cache) runDirect(refs []trace.Ref) {
	writes, misses, writeMisses, writeBacks := replayDirect(c.lines, refs, c.setShift, c.setMask)
	n := int64(len(refs))
	s := &c.stats
	s.Accesses += n
	s.Reads += n - writes
	s.Writes += writes
	s.Misses += misses
	s.ReadMisses += misses - writeMisses
	s.WriteMisses += writeMisses
	s.Fetches += misses
	s.FetchBytes += units.Blocks(misses).Bytes(c.cfg.BlockSize)
	s.WriteBacks += writeBacks
	s.WriteBackBytes += units.Blocks(writeBacks).Bytes(c.cfg.BlockSize)
}

// replayDirect is runDirect's loop: block b maps to line b&mask. A
// present line's valid and dirty words are 1 or 0 and an absent line's
// dirty word is 0, so a miss adds its victim's dirty word to writeBacks.
// A store is w = 1, or-ed into a hit line's dirty word, so only the hit
// test branches. The counters stay in registers, and lastUse and
// allocTime go unwritten: with one way, victim never reads them.
func replayDirect(lines []line, refs []trace.Ref, shift uint, mask uint64) (writes, misses, writeMisses, writeBacks int64) {
	shift &= 63 // a block shift is below 64; saying so drops the compiler's oversized-shift fixup
	for _, r := range refs {
		var w uint64
		if r.Kind == trace.Write {
			w = 1
		}
		writes += int64(w)
		tag := r.Addr >> shift
		l := &lines[tag&mask]
		if l.valid != 0 && l.tag == tag {
			l.dirty |= w
			continue
		}
		misses++
		writeMisses += int64(w)
		writeBacks += int64(l.dirty)
		l.tag, l.valid, l.dirty = tag, 1, w
	}
	return writes, misses, writeMisses, writeBacks
}

// Flush writes back all dirty blocks and invalidates the cache, as the
// paper does "upon program completion, writing back all dirty data".
func (c *Cache) Flush() {
	for w := range c.lines {
		c.evict(c.lines, w, true)
	}
	if c.fa != nil {
		c.fa.reset()
	}
}

// Contents returns the number of valid blocks currently resident (useful
// for tests and invariant checks).
func (c *Cache) Contents() int {
	n := 0
	for _, l := range c.lines {
		if l.present() {
			n++
		}
	}
	return n
}
