package mtc

import (
	"testing"
	"testing/quick"

	"memwall/internal/cache"
	"memwall/internal/stats"
	"memwall/internal/trace"
	"memwall/internal/units"
)

func read(a uint64) trace.Ref  { return trace.Ref{Kind: trace.Read, Addr: a} }
func write(a uint64) trace.Ref { return trace.Ref{Kind: trace.Write, Addr: a} }

// replay builds refs' future table at cfg's block size and replays refs
// through cfg against it.
func replay(cfg Config, refs []trace.Ref) (Stats, error) {
	fut, err := FutureOfRefs(refs, cfg.BlockSize)
	if err != nil {
		return Stats{}, err
	}
	return SimulateRefs(cfg, fut, refs)
}

func simulate(t *testing.T, cfg Config, refs []trace.Ref) Stats {
	t.Helper()
	st, err := replay(cfg, refs)
	if err != nil {
		t.Fatalf("SimulateRefs: %v", err)
	}
	return st
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"word blocks", Config{Size: 64, BlockSize: 4}, true},
		{"32B blocks WA", Config{Size: 1024, BlockSize: 32, Alloc: WriteAllocate}, true},
		{"WV requires word blocks", Config{Size: 1024, BlockSize: 32, Alloc: WriteValidate}, false},
		{"bad block", Config{Size: 64, BlockSize: 6}, false},
		{"bad size", Config{Size: 65, BlockSize: 4}, false},
		{"zero size", Config{Size: 0, BlockSize: 4}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); (err == nil) != c.ok {
				t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
			}
		})
	}
}

func TestColdReadsFetchWords(t *testing.T) {
	st := simulate(t, Config{Size: 64, BlockSize: 4}, []trace.Ref{
		read(0), read(4), read(8),
	})
	if st.FetchBytes != 12 || st.Misses != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRereadsHit(t *testing.T) {
	st := simulate(t, Config{Size: 64, BlockSize: 4}, []trace.Ref{
		read(0), read(0), read(0),
	})
	if st.Hits != 2 || st.FetchBytes != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMINKeepsNearestFutureUse(t *testing.T) {
	// Capacity 2 words. Access pattern: A B C A B. MIN must evict C
	// (never used again) — or bypass it — keeping A and B.
	st := simulate(t, Config{Size: 8, BlockSize: 4}, []trace.Ref{
		read(0), read(4), read(8), read(0), read(4),
	})
	// A and B hit on re-use; C is bypassed (its next use is never).
	if st.Hits != 2 {
		t.Errorf("hits = %d, want 2 (MIN must keep A and B)", st.Hits)
	}
	if st.Bypasses != 1 {
		t.Errorf("bypasses = %d, want 1 (C should bypass)", st.Bypasses)
	}
}

func TestMINBeatsLRUOnLoopingPattern(t *testing.T) {
	// Cyclic sweep over N+1 blocks with capacity N is LRU's worst case
	// (0% hits) while MIN keeps N-1 of them resident.
	var refs []trace.Ref
	for pass := 0; pass < 10; pass++ {
		for w := 0; w < 9; w++ {
			refs = append(refs, read(uint64(w)*4))
		}
	}
	min := simulate(t, Config{Size: 32, BlockSize: 4}, refs) // 8 words
	lru, err := cache.New(cache.Config{Size: 32, BlockSize: 4, Assoc: 0})
	if err != nil {
		t.Fatal(err)
	}
	lruStats := lru.RunRefs(refs)
	if min.TrafficBytes() >= lruStats.TrafficBytes() {
		t.Errorf("MIN traffic %d should beat LRU traffic %d on cyclic pattern",
			min.TrafficBytes(), lruStats.TrafficBytes())
	}
}

func TestBypassDisabled(t *testing.T) {
	// Same ABCAB pattern with bypassing off: C must be allocated,
	// evicting the block with the furthest next use.
	st := simulate(t, Config{Size: 8, BlockSize: 4, NoBypass: true}, []trace.Ref{
		read(0), read(4), read(8), read(0), read(4),
	})
	if st.Bypasses != 0 {
		t.Errorf("bypasses = %d with NoBypass", st.Bypasses)
	}
	// C evicts B (furthest next use is B at index 4 vs A at index 3).
	// Then A hits, B misses again.
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
}

func TestWriteValidateNoFetch(t *testing.T) {
	st := simulate(t, Config{Size: 64, BlockSize: 4, Alloc: WriteValidate}, []trace.Ref{
		write(0), write(4), write(8),
	})
	if st.FetchBytes != 0 {
		t.Errorf("write-validate fetched %d bytes", st.FetchBytes)
	}
	// All three dirty words flush at the end.
	if st.WriteBackBytes != 12 || st.FlushWriteBacks != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWriteAllocateFetches(t *testing.T) {
	st := simulate(t, Config{Size: 64, BlockSize: 4, Alloc: WriteAllocate}, []trace.Ref{
		write(0),
	})
	if st.FetchBytes != 4 {
		t.Errorf("write-allocate fetch = %d, want 4", st.FetchBytes)
	}
	if st.WriteBackBytes != 4 {
		t.Errorf("flush write-back = %d, want 4", st.WriteBackBytes)
	}
}

func TestWriteValidateNeverMoreTrafficThanWriteAllocate(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := stats.NewRNG(seed)
		var refs []trace.Ref
		for i := 0; i < int(n)+1; i++ {
			k := trace.Read
			if rng.Intn(2) == 0 {
				k = trace.Write
			}
			refs = append(refs, trace.Ref{Kind: k, Addr: uint64(rng.Intn(512)) * 4})
		}
		wa, err := replay(Config{Size: 256, BlockSize: 4, Alloc: WriteAllocate}, refs)
		if err != nil {
			return false
		}
		wv, err := replay(Config{Size: 256, BlockSize: 4, Alloc: WriteValidate}, refs)
		if err != nil {
			return false
		}
		return wv.TrafficBytes() <= wa.TrafficBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStoresDoNotBypass(t *testing.T) {
	// Only loads bypass (Section 5.2). A store to a never-reused word
	// still allocates, evicting the resident block.
	st := simulate(t, Config{Size: 4, BlockSize: 4, Alloc: WriteValidate}, []trace.Ref{
		read(0), write(4), read(0),
	})
	// A was evicted by the store, so the second read of A misses (and,
	// having no further use, is itself served as a bypassed read).
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0 (the store must evict A)", st.Hits)
	}
	// Traffic: fetch A (4), store allocates without fetch, bypassed
	// re-read of A (4), flush dirty B (4). The store's word reaches
	// memory exactly once, via the write-back.
	if st.FetchBytes != 4 || st.BypassBytes != 4 || st.WriteBackBytes != 4 {
		t.Errorf("traffic = %+v", st)
	}
}

func TestLoadBypassKeepsHotData(t *testing.T) {
	// Capacity 1 word; A is re-read later, so a LOAD of B (never used
	// again) bypasses and A survives.
	st := simulate(t, Config{Size: 4, BlockSize: 4}, []trace.Ref{
		read(0), read(4), read(0),
	})
	if st.Bypasses != 1 || st.BypassBytes != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.Hits != 1 {
		t.Errorf("A should survive the bypassed load, hits = %d", st.Hits)
	}
}

func TestLargerBlocks(t *testing.T) {
	// 32B blocks: a sequential read of 8 words fetches one block.
	var refs []trace.Ref
	for i := 0; i < 8; i++ {
		refs = append(refs, read(uint64(i)*4))
	}
	st := simulate(t, Config{Size: 1024, BlockSize: 32, Alloc: WriteAllocate}, refs)
	if st.Misses != 1 || st.FetchBytes != 32 {
		t.Errorf("stats = %+v", st)
	}
}

func TestResidencyNeverExceedsCapacity(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := stats.NewRNG(seed)
		var refs []trace.Ref
		for i := 0; i < int(n)+1; i++ {
			refs = append(refs, read(uint64(rng.Intn(4096))*4))
		}
		fut, err := FutureOfRefs(refs, 4)
		if err != nil {
			return false
		}
		m, err := NewWithFuture(Config{Size: 128, BlockSize: 4}, fut)
		if err != nil {
			return false
		}
		for ti, r := range refs {
			m.access(r.Kind == trace.Write, ti)
			if m.Resident() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMINOptimalityVsLRUProperty is the central property of this package:
// for read-only traces at word grain, MIN-with-bypass traffic never
// exceeds fully-associative LRU traffic at the same capacity.
func TestMINOptimalityVsLRUProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := stats.NewRNG(seed)
		var refs []trace.Ref
		for i := 0; i < int(n)+1; i++ {
			refs = append(refs, read(uint64(rng.Intn(256))*4))
		}
		min, err := replay(Config{Size: 128, BlockSize: 4}, refs)
		if err != nil {
			return false
		}
		lru, err := cache.New(cache.Config{Size: 128, BlockSize: 4, Assoc: 0})
		if err != nil {
			return false
		}
		lruStats := lru.RunRefs(refs)
		return min.TrafficBytes() <= lruStats.TrafficBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMINHitsMatchBeladyBruteForce cross-checks the heap-based simulator
// against a brute-force Belady implementation on small traces.
func TestMINHitsMatchBeladyBruteForce(t *testing.T) {
	brute := func(refs []trace.Ref, capacity int) (hits int64) {
		type blk = uint64
		resident := make(map[blk]bool)
		for i, r := range refs {
			b := r.Addr / 4
			if resident[b] {
				hits++
				continue
			}
			nextUse := func(x blk, from int) int {
				for j := from; j < len(refs); j++ {
					if refs[j].Addr/4 == x {
						return j
					}
				}
				return 1 << 30
			}
			if len(resident) >= capacity {
				// Find the furthest-used block among residents and the
				// incoming block; if incoming is furthest, bypass.
				farB, farN := blk(0), -1
				for rb := range resident {
					if n := nextUse(rb, i+1); n > farN {
						farB, farN = rb, n
					}
				}
				if nextUse(b, i+1) >= farN {
					continue // bypass
				}
				delete(resident, farB)
			}
			resident[b] = true
		}
		return hits
	}
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 25; trial++ {
		var refs []trace.Ref
		for i := 0; i < 120; i++ {
			refs = append(refs, read(uint64(rng.Intn(12))*4))
		}
		want := brute(refs, 4)
		st := simulate(t, Config{Size: 16, BlockSize: 4}, refs)
		if st.Hits != want {
			t.Fatalf("trial %d: heap MIN hits = %d, brute force = %d", trial, st.Hits, want)
		}
	}
}

func TestTrafficDecreasesWithSize(t *testing.T) {
	rng := stats.NewRNG(77)
	var refs []trace.Ref
	for i := 0; i < 20000; i++ {
		refs = append(refs, read(uint64(rng.Intn(2048))*4))
	}
	var prev units.Bytes = 1 << 62
	for _, size := range []int{64, 256, 1024, 4096} {
		st := simulate(t, Config{Size: size, BlockSize: 4}, refs)
		if st.TrafficBytes() > prev {
			t.Errorf("MTC traffic increased with size %d: %d > %d", size, st.TrafficBytes(), prev)
		}
		prev = st.TrafficBytes()
	}
}

func TestDeterminism(t *testing.T) {
	rng := stats.NewRNG(55)
	var refs []trace.Ref
	for i := 0; i < 5000; i++ {
		k := trace.Read
		if rng.Intn(3) == 0 {
			k = trace.Write
		}
		refs = append(refs, trace.Ref{Kind: k, Addr: uint64(rng.Intn(1024)) * 4})
	}
	a := simulate(t, Config{Size: 512, BlockSize: 4, Alloc: WriteValidate}, refs)
	b := simulate(t, Config{Size: 512, BlockSize: 4, Alloc: WriteValidate}, refs)
	if a != b {
		t.Error("MTC simulation not deterministic")
	}
}

func TestConfigString(t *testing.T) {
	s := Config{Size: 64 << 10, BlockSize: 4, Alloc: WriteValidate}.String()
	if s == "" {
		t.Error("empty config string")
	}
	if WriteAllocate.String() == WriteValidate.String() {
		t.Error("alloc policy names collide")
	}
}

// TestFittingRunBuildsNoTables: when every block of the whole trace fits,
// SimulateRefs answers from the future table's counts before it builds
// the replay's per-block tables, so it allocates nothing, and its answer
// is a replay's.
func TestFittingRunBuildsNoTables(t *testing.T) {
	rng := stats.NewRNG(11)
	refs := make([]trace.Ref, 20000)
	for i := range refs {
		k := trace.Read
		if rng.Intn(3) == 0 {
			k = trace.Write
		}
		refs[i] = trace.Ref{Kind: k, Addr: uint64(rng.Intn(4096)) * 4}
	}
	fut, err := FutureOfRefs(refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, alloc := range []AllocPolicy{WriteAllocate, WriteValidate} {
		cfg := Config{Size: fut.Blocks() * 4, BlockSize: 4, Alloc: alloc}
		var got Stats
		if n := testing.AllocsPerRun(3, func() { got, err = SimulateRefs(cfg, fut, refs) }); n != 0 {
			t.Errorf("%v: SimulateRefs allocated %.1f times per fitting run, want 0", cfg, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewWithFuture(cfg, fut)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.RunRefs(refs); got != want {
			t.Errorf("%v: fitting run\n got %+v\nwant %+v (replayed)", cfg, got, want)
		}
	}
}

// TestReplayAllocatesNothing pins the replay loop allocation-free: every
// array it touches is sized by NewWithFuture. Each RunRefs ends in a
// Flush that empties the MTC, so it can replay the trace again.
func TestReplayAllocatesNothing(t *testing.T) {
	rng := stats.NewRNG(9)
	refs := make([]trace.Ref, 20000)
	for i := range refs {
		k := trace.Read
		if rng.Intn(3) == 0 {
			k = trace.Write
		}
		refs[i] = trace.Ref{Kind: k, Addr: uint64(rng.Intn(4096)) * 4}
	}
	fut, err := FutureOfRefs(refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1024, 1 << 20} { // evicting, then with every block resident
		m, err := NewWithFuture(Config{Size: size, BlockSize: 4, Alloc: WriteValidate}, fut)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(3, func() { m.RunRefs(refs) }); n != 0 {
			t.Errorf("%dB: RunRefs allocated %.1f times per replay, want 0", size, n)
		}
	}
}
