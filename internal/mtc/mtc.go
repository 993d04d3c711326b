// Package mtc implements the paper's minimal-traffic cache (Section 5.2):
// a fully-associative cache managed with Belady's MIN replacement policy,
// with optional cache bypassing and a write-validate allocation policy.
//
// The MTC approximates "perfectly-managed" on-chip memory and provides the
// denominator of the traffic-inefficiency metric G = D_cache / D_MTC. Per
// the paper, the configuration that bounds achievable traffic has:
//
//   - full associativity,
//   - transfer size equal to the request size (one 4-byte word),
//   - MIN (furthest-future-use) replacement, and
//   - bypassing for sufficiently low-priority fills.
//
// The paper also simulates MIN-replacement caches with larger blocks and
// with write-allocate (Figure 4's two MTC curves; Table 10 experiments
// II, IV, V), so block size and allocation policy are configurable here.
//
// Like the paper, this package implements plain MIN rather than the
// write-back-aware Horwitz et al. optimal policy; the resulting traffic is
// therefore an aggressive bound rather than the exact minimum.
//
// The simulation is two-pass in the style of Sugumar & Abraham: the first
// pass interns block addresses and records each position's next-use time
// in a dense Future table (see future.go); the second pass replays the
// trace maintaining residents in an indexed max-heap keyed on next-use
// time, so the furthest-referenced block (and bypass decisions) are
// available in O(log n). Because the Future is immutable, one table backs
// every MTC configuration with the same block size — the multi-size grids
// of Figure 4 and Tables 8-9 build it once per trace instead of once per
// cell.
package mtc

import (
	"fmt"
	"math"

	"memwall/internal/trace"
	"memwall/internal/units"
)

// never is the next-use position of a block with no future reference. A
// Future covers at most math.MaxInt32 references, so every real position
// lies below it.
const never = math.MaxInt32

// AllocPolicy selects store-miss behaviour.
type AllocPolicy uint8

const (
	// WriteAllocate fetches the block on a store miss before dirtying it.
	WriteAllocate AllocPolicy = iota
	// WriteValidate allocates on a store miss by overwriting with the
	// store data — no fetch traffic. Requires word-sized blocks, since
	// both the MTC's "transfer and address blocks are one word".
	WriteValidate
)

// String returns "write-allocate" or "write-validate".
func (p AllocPolicy) String() string {
	if p == WriteValidate {
		return "write-validate"
	}
	return "write-allocate"
}

// Config describes an MTC organisation.
type Config struct {
	// Size is the capacity in bytes (a positive multiple of BlockSize).
	Size int
	// BlockSize is the transfer/allocation grain in bytes. The canonical
	// MTC uses trace.WordSize (4). Must be a power of two >= 4.
	BlockSize int
	// Alloc selects write-allocate or write-validate.
	Alloc AllocPolicy
	// NoBypass disables cache bypassing (bypassing is on by default, as
	// in the paper's MTC definition).
	NoBypass bool
}

// String renders the configuration, e.g. "64KB MIN/4B write-validate".
func (c Config) String() string {
	bp := ""
	if c.NoBypass {
		bp = " no-bypass"
	}
	return fmt.Sprintf("%s MIN/%dB %s%s", sizeLabel(c.Size), c.BlockSize, c.Alloc, bp)
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
		return fmt.Errorf("mtc: block size %d must be a power of two >= %d", c.BlockSize, trace.WordSize)
	}
	if c.Size <= 0 || c.Size%c.BlockSize != 0 {
		return fmt.Errorf("mtc: size %d must be a positive multiple of block size %d", c.Size, c.BlockSize)
	}
	if c.Alloc == WriteValidate && c.BlockSize != trace.WordSize {
		return fmt.Errorf("mtc: write-validate requires %d-byte blocks, got %d", trace.WordSize, c.BlockSize)
	}
	return nil
}

// Stats accumulates MTC access and traffic counts.
type Stats struct {
	Accesses   int64
	Reads      int64
	Writes     int64
	Hits       int64
	Misses     int64
	Bypasses   int64 // misses served without allocation
	Fetches    int64 // block fills from below
	FetchBytes units.Bytes
	// BypassBytes is word traffic for bypassed reads (data still crosses
	// the boundary) and bypassed writes (stored word goes below).
	BypassBytes units.Bytes
	// WriteBackBytes counts dirty evictions plus the end-of-run flush.
	WriteBackBytes  units.Bytes
	FlushWriteBacks int64
}

// TrafficBytes returns total traffic below the MTC.
func (s Stats) TrafficBytes() units.Bytes {
	return s.FetchBytes + s.BypassBytes + s.WriteBackBytes
}

// dirtyBit marks a resident block dirty in the top bit of its heap
// element's id. Interned block IDs lie below math.MaxInt32, so the bit is
// free, and a sift that moves a block moves its dirty bit with it.
const dirtyBit = 1 << 31

// heapElem is one resident block in the eviction heap: 8 bytes, with the
// next-use key inline so a comparison reads one contiguous array — no
// pointer chase, no write barriers, no per-miss allocation.
type heapElem struct {
	next int32  // position of the block's next reference, or never
	id   uint32 // interned block ID, with dirtyBit set while the block is dirty
}

// MTC is the minimal-traffic cache simulator. Because MIN requires future
// knowledge, an MTC is built for one specific trace via SimulateRefs, or
// NewWithFuture + RunRefs, over that trace's Future; it cannot be driven
// incrementally by unseen references.
type MTC struct {
	cfg      Config
	capacity int

	// fut is the trace's future-knowledge table, shared read-only with any
	// other MTC built over the same trace at the same block size.
	fut *Future

	// entries is indexed by interned block ID and holds the block's heap
	// position plus one; zero (make's memclr) means not resident.
	entries []uint32
	heap    []heapElem // max-heap on next

	stats Stats
}

// NewWithFuture builds an MTC for cfg over a precomputed future table. The
// table must have been built at cfg.BlockSize over exactly the trace that
// will later be replayed through RunRefs. The table is only read, so
// the same Future may back any number of MTCs, concurrently.
//
// Construction (capacityOver, then newMTC) runs once per simulated
// configuration, not once per reference, so it is excluded from
// SimulateRefs' hot set: its allocations and validation errors are setup
// cost, amortized over the whole replay.
//
//memwall:cold
func NewWithFuture(cfg Config, f *Future) (*MTC, error) {
	capacity, err := capacityOver(cfg, f)
	if err != nil {
		return nil, err
	}
	return newMTC(cfg, f, capacity), nil
}

// capacityOver checks that cfg can replay against f and returns cfg's
// capacity in blocks.
//
//memwall:cold
func capacityOver(cfg Config, f *Future) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if f == nil {
		return 0, fmt.Errorf("mtc: nil future table")
	}
	if f.blockSize != cfg.BlockSize {
		return 0, fmt.Errorf("mtc: future table built for %dB blocks, config wants %dB", f.blockSize, cfg.BlockSize)
	}
	return cfg.Size / max(1, cfg.BlockSize), nil // Validate rejected nonpositive block sizes above
}

// newMTC allocates the replay's per-block tables: entries and the heap,
// 12 bytes per interned block at most.
//
//memwall:cold
func newMTC(cfg Config, f *Future, capacity int) *MTC {
	return &MTC{
		cfg:      cfg,
		capacity: capacity,
		fut:      f,
		entries:  make([]uint32, f.numBlocks),
		heap:     make([]heapElem, 0, min(capacity, f.numBlocks)),
	}
}

// Stats returns a copy of the accumulated statistics.
func (m *MTC) Stats() Stats { return m.stats }

// Config returns the MTC configuration.
func (m *MTC) Config() Config { return m.cfg }

// Future returns the (shared, read-only) future table the MTC replays
// against.
func (m *MTC) Future() *Future { return m.fut }

// Resident returns the number of currently resident blocks.
func (m *MTC) Resident() int { return len(m.heap) }

// --- indexed max-heap on next ---
//
// The sifts move a hole: each block that moves is written to its new
// slot, and its entries position stored, once. The heap's layout is
// observable, so it must stay that of a binary heap that evicts by
// removing the top and then pushes the new block. Blocks never referenced
// again all hold the key never; the one on top is evicted first, and
// that decides whether a dirty one is written back now or at the final
// Flush (Stats.FlushWriteBacks). A d-ary heap, or an eviction that
// replaces the top, would change Stats; TestReplayMatchesSwapHeap holds
// the layout to a swapping binary heap's.

// place writes x into slot i and records i in x's entry.
func (m *MTC) place(i int, x heapElem) {
	m.heap[i] = x
	m.entries[x.id&^dirtyBit] = uint32(i + 1)
}

// heapUp sifts x up from the hole at slot i.
func (m *MTC) heapUp(i int, x heapElem) {
	for i > 0 {
		parent := (i - 1) / 2
		p := m.heap[parent]
		if x.next <= p.next {
			break
		}
		m.place(i, p)
		i = parent
	}
	m.place(i, x)
}

// heapDown sifts x down from the hole at slot i.
func (m *MTC) heapDown(i int, x heapElem) {
	h := m.heap
	n := len(h)
	for {
		largest, key := i, x.next
		if l := 2*i + 1; l < n {
			if h[l].next > key {
				largest, key = l, h[l].next
			}
			if r := l + 1; r < n && h[r].next > key {
				largest = r
			}
		}
		if largest == i {
			break
		}
		m.place(i, h[largest])
		i = largest
	}
	m.place(i, x)
}

// push adds x, a block that is not resident.
func (m *MTC) push(x heapElem) {
	// Extend within the preallocated backing array instead of append:
	// NewWithFuture sizes cap(m.heap) to min(capacity, numBlocks), and
	// residency never exceeds either bound, so this is allocation-free on
	// the replay hot path.
	i := len(m.heap)
	m.heap = m.heap[: i+1 : cap(m.heap)]
	m.heapUp(i, x)
}

// evictTop removes the block with the furthest next use, writing it back
// if dirty.
func (m *MTC) evictTop() {
	top := m.heap[0].id
	if top&dirtyBit != 0 {
		m.stats.WriteBackBytes += units.Bytes(m.cfg.BlockSize)
	}
	m.entries[top&^dirtyBit] = 0
	last := len(m.heap) - 1
	x := m.heap[last]
	m.heap = m.heap[:last]
	if last > 0 {
		m.heapDown(0, x)
	}
}

// access simulates the reference at position t. The block identity and
// next-use position are both array loads from the shared future table —
// no map lookups on the replay path.
func (m *MTC) access(isWrite bool, t int) {
	m.stats.Accesses++
	if isWrite {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	x := heapElem{next: m.fut.next[t], id: uint32(m.fut.blockOf[t])}
	if isWrite {
		x.id |= dirtyBit
	}

	if pos := m.entries[x.id&^dirtyBit]; pos != 0 {
		m.stats.Hits++
		// The block's key was t, below every other resident's, so it sits
		// in a leaf; its new key is larger, so it can only rise.
		i := int(pos) - 1
		x.id |= m.heap[i].id & dirtyBit
		m.heapUp(i, x)
		return
	}

	m.stats.Misses++

	// Decide whether to allocate. With space free we always allocate.
	// Only loads may bypass ("sufficiently low-priority loads can bypass
	// the cache", Section 5.2); stores always allocate, which is what
	// makes the write-validate-vs-write-allocate factor visible.
	if len(m.heap) >= m.capacity {
		if !m.cfg.NoBypass && !isWrite && x.next >= m.heap[0].next {
			// The incoming block is (re)used no sooner than everything
			// resident: bypass. The requested word still crosses the
			// boundary to the processor.
			m.stats.Bypasses++
			m.stats.BypassBytes += trace.WordSize
			return
		}
		m.evictTop()
	}

	// Loads and write-allocate stores fetch the block; write-validate
	// stores allocate by overwriting it with the store data.
	if !isWrite || m.cfg.Alloc != WriteValidate {
		m.stats.Fetches++
		m.stats.FetchBytes += units.Bytes(m.cfg.BlockSize)
	}
	m.push(x)
}

// checkLen panics when the replayed trace is longer than the one the future
// table was built over — the MIN contract is replay-what-you-ingested, and
// a silent index error here would be much harder to diagnose. This is the
// invariant backstop for callers that bypass SimulateRefs' validation.
func (m *MTC) checkLen(t int) {
	if t >= m.fut.Len() {
		panicLenMismatch(t, m.fut.Len())
	}
}

// panicLenMismatch formats the checkLen invariant panic. It is a
// separate //memwall:cold function so the fmt call stays out of the
// replay loop's hot set (and out of its inlining budget).
//
//memwall:cold
func panicLenMismatch(t, n int) {
	panic(fmt.Sprintf("mtc: invariant violated: replaying reference %d of a trace but the future table was built over only %d references; RunRefs must replay the exact trace the future table was built over", t, n))
}

// Flush writes back all dirty resident blocks, as at program completion.
// The order of write-backs does not matter, so one pass counts them.
func (m *MTC) Flush() {
	var dirty int64
	for _, x := range m.heap {
		dirty += int64(x.id >> 31)
		m.entries[x.id&^dirtyBit] = 0
	}
	m.heap = m.heap[:0]
	m.stats.FlushWriteBacks += dirty
	m.stats.WriteBackBytes += units.Bytes(dirty * int64(m.cfg.BlockSize))
}

// RunRefs replays a materialized trace (the same one the future table was
// built over), flushes, and returns the statistics.
func (m *MTC) RunRefs(refs []trace.Ref) Stats {
	if len(refs) > 0 {
		m.checkLen(len(refs) - 1)
	}
	for t := range refs {
		m.access(refs[t].Kind == trace.Write, t)
	}
	m.Flush()
	return m.stats
}

// unbounded returns the statistics of a whole-trace replay in which every
// block fits: nothing is evicted or bypassed, so each block misses once,
// on its first reference, and the final Flush writes back each block the
// trace ever stores to. Loads and write-allocate stores fetch on that
// miss; write-validate stores do not.
func unbounded(cfg Config, f *Future) Stats {
	n, blocks := int64(f.Len()), int64(f.numBlocks)
	fetches := blocks
	if cfg.Alloc == WriteValidate {
		fetches = f.readFirsts
	}
	bs := int64(cfg.BlockSize)
	return Stats{
		Accesses:        n,
		Reads:           n - f.writes,
		Writes:          f.writes,
		Hits:            n - blocks,
		Misses:          blocks,
		Fetches:         fetches,
		FetchBytes:      units.Bytes(fetches * bs),
		FlushWriteBacks: f.writtenBlocks,
		WriteBackBytes:  units.Bytes(f.writtenBlocks * bs),
	}
}

// SimulateRefs runs cfg over a materialized trace using a future table
// built by FutureOfRefs at cfg.BlockSize over exactly refs. One table
// may back any number of configurations: a grid sweep builds it once and
// every configuration replays against it. When refs is the whole trace
// and every block it touches fits at once, the statistics follow from
// the table's counts (unbounded), with no replay and no per-block tables.
//
//memwall:hot
func SimulateRefs(cfg Config, f *Future, refs []trace.Ref) (Stats, error) {
	// Validate the trace/table pairing up front: a mismatched pairing is a
	// caller input error (e.g. a table built over a different trace), and
	// belongs in the error return, not in checkLen's invariant panic deep
	// inside the replay loop.
	if f != nil && len(refs) > f.Len() {
		return Stats{}, errFutureMismatch(len(refs), f.Len())
	}
	capacity, err := capacityOver(cfg, f)
	if err != nil {
		return Stats{}, err
	}
	if len(refs) == f.Len() && f.numBlocks <= capacity {
		return unbounded(cfg, f), nil
	}
	return newMTC(cfg, f, capacity).RunRefs(refs), nil
}

// errFutureMismatch formats SimulateRefs' input-validation error on a
// //memwall:cold path, keeping fmt out of the hot set.
//
//memwall:cold
func errFutureMismatch(refs, futLen int) error {
	return fmt.Errorf("mtc: trace/future mismatch: replaying %d references against a future table built over %d; build the table with FutureOfRefs over exactly this trace", refs, futLen)
}
