// Future knowledge for MIN simulation, precomputed once per (trace, block
// size) and shared — read-only — by every MTC built over the same trace.
//
// The legacy representation was a pair of maps, future map[uint64][]int64
// and ptr map[uint64]int, costing two map lookups per access plus O(refs)
// incremental appends during ingestion. A Future instead interns block
// addresses into dense int32 IDs and stores, for every trace position t,
// the position of the NEXT reference to the same block — computed in a
// single backward pass. Replay then needs no map at all: the block ID and
// its next-use time are both array loads indexed by t, and because replay
// never mutates the table, one Future is safely shared by any number of
// MTC configurations (and worker goroutines) that agree on the block size.
package mtc

import (
	"fmt"
	"math"
	"sync"

	"memwall/internal/trace"
)

// Future is the interned future-knowledge table for one reference trace at
// one block granularity. It is immutable after construction: MTC replay
// only reads it, so a single Future may back many concurrent simulations.
type Future struct {
	blockSize int
	shift     uint
	numBlocks int
	// blockOf[t] is the interned block ID of the reference at position t.
	blockOf []int32
	// next[t] is the position of the next reference (after t) to the same
	// block, or never: the MIN simulator's next-use key, read as is.
	next []int32
	// writes counts the trace's stores, readFirsts the blocks whose first
	// reference is a load, and writtenBlocks the blocks stored to at least
	// once: the counts unbounded turns into statistics.
	writes, readFirsts, writtenBlocks int64
}

// BlockSize returns the block granularity the table was built for.
func (f *Future) BlockSize() int { return f.blockSize }

// Blocks returns the number of distinct blocks the trace touches.
func (f *Future) Blocks() int { return f.numBlocks }

// Len returns the number of trace positions covered.
func (f *Future) Len() int { return len(f.blockOf) }

// validateBlockSize checks the power-of-two >= word-size constraint shared
// by Config.Validate, so a Future cannot be built at a granularity no MTC
// could consume.
func validateBlockSize(blockSize int) error {
	if blockSize < trace.WordSize || blockSize&(blockSize-1) != 0 {
		return fmt.Errorf("mtc: block size %d must be a power of two >= %d", blockSize, trace.WordSize)
	}
	return nil
}

// blockShift returns log2(blockSize).
func blockShift(blockSize int) uint {
	var s uint
	for bs := blockSize; bs > 1; bs >>= 1 {
		s++
	}
	return s
}

// FutureOfRefs builds the future table over a materialized trace with one
// allocation per array (the interning map grows once per distinct block,
// not per reference — the fix for the legacy per-append growth).
func FutureOfRefs(refs []trace.Ref, blockSize int) (*Future, error) {
	if err := validateBlockSize(blockSize); err != nil {
		return nil, err
	}
	if len(refs) >= math.MaxInt32 {
		return nil, fmt.Errorf("mtc: trace exceeds %d references", math.MaxInt32)
	}
	f := &Future{
		blockSize: blockSize,
		shift:     blockShift(blockSize),
		blockOf:   make([]int32, len(refs)),
	}
	ids := make(map[uint64]int32)
	for t, r := range refs {
		f.blockOf[t] = internBlock(ids, r.Addr>>f.shift)
	}
	f.finish(refs, len(ids))
	return f, nil
}

// Futures memoizes one reference trace's future tables, one per block
// size: the first Future call for a block size builds the table, and
// every later call, from any goroutine, returns that same table. It is
// the one memo behind corpus entries and core.TraceOfRefs.
type Futures struct {
	refs  []trace.Ref
	mu    sync.Mutex
	slots map[int]*futureSlot
}

// futureSlot guards one lazily built table.
type futureSlot struct {
	once sync.Once
	fut  *Future
	err  error
}

// NewFutures returns an empty memo over refs, which it only reads.
func NewFutures(refs []trace.Ref) *Futures { return &Futures{refs: refs} }

// Future returns the trace's future table at blockSize, building it on
// first use. Concurrent first calls for one block size build it once.
func (m *Futures) Future(blockSize int) (*Future, error) {
	m.mu.Lock()
	if m.slots == nil {
		m.slots = make(map[int]*futureSlot)
	}
	s, ok := m.slots[blockSize]
	if !ok {
		s = &futureSlot{}
		m.slots[blockSize] = s
	}
	m.mu.Unlock()
	s.once.Do(func() {
		s.fut, s.err = FutureOfRefs(m.refs, blockSize)
	})
	return s.fut, s.err
}

// internBlock returns the stable dense ID for block b, assigning the next
// free ID on first sight.
func internBlock(ids map[uint64]int32, b uint64) int32 {
	if id, ok := ids[b]; ok {
		return id
	}
	id := int32(len(ids))
	ids[b] = id
	return id
}

// finish computes the dense next-use array from blockOf in one backward
// pass: walking t from the end, the last-seen position of each block is
// exactly the next use of the current occurrence, and once the walk ends
// it is the block's first reference. The same pass counts the stores and
// the blocks they touch.
func (f *Future) finish(refs []trace.Ref, numBlocks int) {
	f.numBlocks = numBlocks
	f.next = make([]int32, len(f.blockOf))
	last := make([]int32, numBlocks)
	for i := range last {
		last[i] = never
	}
	written := make([]bool, numBlocks)
	for t := len(f.blockOf) - 1; t >= 0; t-- {
		id := f.blockOf[t]
		f.next[t] = last[id]
		last[id] = int32(t)
		if refs[t].Kind == trace.Write {
			f.writes++
			written[id] = true
		}
	}
	for id, first := range last {
		if refs[first].Kind != trace.Write {
			f.readFirsts++
		}
		if written[id] {
			f.writtenBlocks++
		}
	}
}
