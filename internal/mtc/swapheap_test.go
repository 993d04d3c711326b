package mtc

import (
	"fmt"
	"math"
	"testing"

	"memwall/internal/stats"
	"memwall/internal/trace"
	"memwall/internal/units"
)

// swapMTC is the replay as it stood before the hole-based sifts: int64
// keys, a binary max-heap that swaps and rewrites both blocks' entries per
// level, a hit that fixes the heap both ways, and a Flush that evicts the
// top until the heap is empty. It is the reference for
// TestReplayMatchesSwapHeap.
type swapMTC struct {
	cfg      Config
	capacity int
	fut      *Future
	entries  []uint32
	heap     []swapElem
	stats    Stats
}

type swapElem struct {
	nextUse int64
	id      int32
}

// The reference keeps its per-block state as the replay once did: one
// packed word per interned block, pos<<1 | dirty, where pos is the
// block's heap position plus one and the zero word means not resident.
const entryDirty = 1

func entryPos(e uint32) int { return int(e >> 1) }

func packEntry(pos int, dirty uint32) uint32 { return uint32(pos)<<1 | dirty }

func newSwapMTC(cfg Config, f *Future) *swapMTC {
	return &swapMTC{cfg: cfg, capacity: cfg.Size / cfg.BlockSize, fut: f, entries: make([]uint32, f.numBlocks)}
}

func (m *swapMTC) nextUse(t int) int64 {
	if n := m.fut.next[t]; n != never {
		return int64(n)
	}
	return math.MaxInt64
}

func (m *swapMTC) heapLess(i, j int) bool { return m.heap[i].nextUse > m.heap[j].nextUse }

func (m *swapMTC) heapSwap(i, j int) {
	m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
	m.entries[m.heap[i].id] = packEntry(i+1, m.entries[m.heap[i].id]&entryDirty)
	m.entries[m.heap[j].id] = packEntry(j+1, m.entries[m.heap[j].id]&entryDirty)
}

func (m *swapMTC) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !m.heapLess(i, parent) {
			break
		}
		m.heapSwap(i, parent)
		i = parent
	}
}

func (m *swapMTC) heapDown(i int) {
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && m.heapLess(l, largest) {
			largest = l
		}
		if r < n && m.heapLess(r, largest) {
			largest = r
		}
		if largest == i {
			return
		}
		m.heapSwap(i, largest)
		i = largest
	}
}

func (m *swapMTC) heapPush(id int32, nextUse int64) {
	i := len(m.heap)
	m.heap = append(m.heap, swapElem{nextUse: nextUse, id: id})
	m.entries[id] = packEntry(i+1, m.entries[id]&entryDirty)
	m.heapUp(i)
}

func (m *swapMTC) heapFix(i int) {
	id := m.heap[i].id
	m.heapUp(i)
	if entryPos(m.entries[id])-1 == i {
		m.heapDown(i)
	}
}

func (m *swapMTC) heapRemove(i int) {
	last := len(m.heap) - 1
	m.heapSwap(i, last)
	m.heap = m.heap[:last]
	if i < last {
		m.heapDown(i)
		m.heapUp(i)
	}
}

func (m *swapMTC) evict(id int32, flush bool) {
	e := m.entries[id]
	if e&entryDirty != 0 {
		m.stats.WriteBackBytes += units.Bytes(m.cfg.BlockSize)
		if flush {
			m.stats.FlushWriteBacks++
		}
	}
	m.heapRemove(entryPos(e) - 1)
	m.entries[id] = 0
}

func (m *swapMTC) allocate(id int32, nextUse int64, dirty, fetch bool) {
	if dirty {
		m.entries[id] = entryDirty
	}
	m.heapPush(id, nextUse)
	if fetch {
		m.stats.Fetches++
		m.stats.FetchBytes += units.Bytes(m.cfg.BlockSize)
	}
}

func (m *swapMTC) access(isWrite bool, t int) {
	m.stats.Accesses++
	if isWrite {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	id := m.fut.blockOf[t]
	nextUse := m.nextUse(t)
	if e := m.entries[id]; e>>1 != 0 {
		m.stats.Hits++
		i := entryPos(e) - 1
		m.heap[i].nextUse = nextUse
		if isWrite {
			m.entries[id] = e | entryDirty
		}
		m.heapFix(i)
		return
	}
	m.stats.Misses++
	if len(m.heap) >= m.capacity {
		top := m.heap[0]
		if !m.cfg.NoBypass && !isWrite && nextUse >= top.nextUse {
			m.stats.Bypasses++
			m.stats.BypassBytes += trace.WordSize
			return
		}
		m.evict(top.id, false)
	}
	switch {
	case !isWrite:
		m.allocate(id, nextUse, false, true)
	case m.cfg.Alloc == WriteValidate:
		m.allocate(id, nextUse, true, false)
	default:
		m.allocate(id, nextUse, true, true)
	}
}

func (m *swapMTC) flush() {
	for len(m.heap) > 0 {
		m.evict(m.heap[0].id, true)
	}
}

// arrangement renders a heap as (key, id) pairs, keys in the reference's
// int64 form, so the two heaps can be compared slot by slot.
func (m *swapMTC) arrangement() string {
	out := make([]string, len(m.heap))
	for i, x := range m.heap {
		out[i] = fmt.Sprint(x.nextUse, x.id)
	}
	return fmt.Sprint(out)
}

func (m *MTC) arrangement() string {
	out := make([]string, len(m.heap))
	for i, x := range m.heap {
		key := int64(x.next)
		if x.next == never {
			key = math.MaxInt64
		}
		out[i] = fmt.Sprint(key, x.id&^dirtyBit)
	}
	return fmt.Sprint(out)
}

// diffTrace is a seeded trace over footprint words: a mix of uniform
// random references and short sequential runs, so it has both reuse and
// blocks that are never touched again, with writeFrac of references
// writes.
func diffTrace(seed uint64, n, footprint int, writeFrac float64) []trace.Ref {
	rng := stats.NewRNG(seed)
	refs := make([]trace.Ref, 0, n)
	for len(refs) < n {
		w := rng.Intn(footprint)
		run := 1
		if rng.Intn(4) == 0 {
			run = 1 + rng.Intn(16)
		}
		for k := 0; k < run && len(refs) < n; k++ {
			kind := trace.Read
			if rng.Float64() < writeFrac {
				kind = trace.Write
			}
			refs = append(refs, trace.Ref{Kind: kind, Addr: uint64((w+k)%footprint) * trace.WordSize})
		}
	}
	return refs
}

// TestReplayMatchesSwapHeap replays seeded random traces through the
// swap-based reference and through SimulateRefs, and requires every
// Stats field to agree. For every capacity below the trace's block
// count, where the heap order decides evictions, it also requires the two
// heaps to hold the same arrangement before the final Flush.
func TestReplayMatchesSwapHeap(t *testing.T) {
	type mix struct {
		footprint int
		writeFrac float64
	}
	mixes := []mix{{96, 0.3}, {1500, 0}, {1500, 0.5}, {6000, 0.2}, {6000, 0.8}}
	configs := 0
	for mi, mx := range mixes {
		refs := diffTrace(uint64(1000+mi), 12000, mx.footprint, mx.writeFrac)
		for _, bs := range []int{4, 8, 32, 128} {
			fut, err := FutureOfRefs(refs, bs)
			if err != nil {
				t.Fatal(err)
			}
			nb := fut.Blocks()
			allocs := []AllocPolicy{WriteAllocate}
			if bs == trace.WordSize {
				allocs = append(allocs, WriteValidate)
			}
			for _, alloc := range allocs {
				for _, noBypass := range []bool{false, true} {
					for _, capBlocks := range []int{1, nb / 8, nb / 2, nb - 1, nb, nb + 1} {
						if capBlocks < 1 {
							continue
						}
						cfg := Config{Size: capBlocks * bs, BlockSize: bs, Alloc: alloc, NoBypass: noBypass}
						name := fmt.Sprintf("mix%d/%s/%d of %d blocks", mi, cfg, capBlocks, nb)
						configs++

						ref := newSwapMTC(cfg, fut)
						m, err := NewWithFuture(cfg, fut)
						if err != nil {
							t.Fatal(err)
						}
						for i, r := range refs {
							ref.access(r.Kind == trace.Write, i)
							m.access(r.Kind == trace.Write, i)
						}
						if capBlocks < nb {
							if got, want := m.arrangement(), ref.arrangement(); got != want {
								t.Errorf("%s: heap arrangement before Flush differs from the swap heap", name)
							}
						}
						ref.flush()
						want := ref.stats

						got, err := SimulateRefs(cfg, fut, refs)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("%s: SimulateRefs\n got %+v\nwant %+v", name, got, want)
						}
					}
				}
			}
		}
	}
	if configs < 200 {
		t.Fatalf("only %d configurations compared", configs)
	}
}
