package cache

import (
	"testing"
	"testing/quick"

	"memwall/internal/stats"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/units"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg, err)
	}
	return c
}

func read(a uint64) trace.Ref  { return trace.Ref{Kind: trace.Read, Addr: a} }
func write(a uint64) trace.Ref { return trace.Ref{Kind: trace.Write, Addr: a} }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"basic", Config{Size: 1024, BlockSize: 32, Assoc: 1}, true},
		{"fully-assoc", Config{Size: 1024, BlockSize: 32, Assoc: 0}, true},
		{"4-way", Config{Size: 4096, BlockSize: 16, Assoc: 4}, true},
		{"word blocks", Config{Size: 64, BlockSize: 4, Assoc: 1}, true},
		{"non-pow2 block", Config{Size: 1024, BlockSize: 24, Assoc: 1}, false},
		{"tiny block", Config{Size: 1024, BlockSize: 2, Assoc: 1}, false},
		{"size not multiple", Config{Size: 1000, BlockSize: 32, Assoc: 1}, false},
		{"zero size", Config{Size: 0, BlockSize: 32, Assoc: 1}, false},
		{"non-pow2 sets", Config{Size: 96, BlockSize: 32, Assoc: 1}, false},
		{"assoc exceeds blocks", Config{Size: 64, BlockSize: 32, Assoc: 8}, true}, // clamps to fully-assoc
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate(%+v) err=%v, want ok=%v", c.cfg, err, c.ok)
			}
		})
	}
}

func TestConfigString(t *testing.T) {
	s := Config{Size: 64 << 10, BlockSize: 32, Assoc: 1}.String()
	if s == "" {
		t.Error("empty config string")
	}
	fa := Config{Size: 1024, BlockSize: 32, Assoc: 0}.String()
	if fa == "" {
		t.Error("empty fully-assoc string")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, Config{Size: 1024, BlockSize: 32, Assoc: 1})
	if c.Access(read(0x1000)) {
		t.Error("cold access should miss")
	}
	if !c.Access(read(0x1000)) {
		t.Error("second access should hit")
	}
	if !c.Access(read(0x101C)) {
		t.Error("same-block access should hit")
	}
	if c.Access(read(0x1020)) {
		t.Error("next block should miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 || st.Fetches != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1KB direct-mapped, 32B blocks: addresses 1KB apart conflict.
	c := mustNew(t, Config{Size: 1024, BlockSize: 32, Assoc: 1})
	c.Access(read(0x0000))
	c.Access(read(0x0400)) // evicts 0x0000
	if c.Access(read(0x0000)) {
		t.Error("conflicting block should have been evicted")
	}
}

func TestTwoWayAvoidsConflict(t *testing.T) {
	c := mustNew(t, Config{Size: 1024, BlockSize: 32, Assoc: 2})
	c.Access(read(0x0000))
	c.Access(read(0x0400))
	if !c.Access(read(0x0000)) {
		t.Error("2-way set should hold both conflicting blocks")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := mustNew(t, Config{Size: 64, BlockSize: 32, Assoc: 2}) // one set, 2 ways
	c.Access(read(0x000))
	c.Access(read(0x100))
	c.Access(read(0x000)) // touch 0x000: now 0x100 is LRU
	c.Access(read(0x200)) // evicts 0x100
	if !c.Access(read(0x000)) {
		t.Error("MRU block evicted under LRU")
	}
	if c.Access(read(0x100)) {
		t.Error("LRU block should have been evicted")
	}
}

func TestFIFOReplacement(t *testing.T) {
	c := mustNew(t, Config{Size: 64, BlockSize: 32, Assoc: 2, Repl: FIFO})
	c.Access(read(0x000))
	c.Access(read(0x100))
	c.Access(read(0x000)) // touching does not matter for FIFO
	c.Access(read(0x200)) // evicts 0x000 (oldest allocation)
	if c.Access(read(0x000)) {
		t.Error("FIFO should evict the oldest allocation despite recency")
	}
}

func TestRandomReplacementStaysInSet(t *testing.T) {
	c := mustNew(t, Config{Size: 128, BlockSize: 32, Assoc: 2, Repl: Random})
	for i := 0; i < 1000; i++ {
		c.Access(read(uint64(i) * 64))
	}
	if c.Contents() > 4 {
		t.Errorf("contents %d exceed capacity", c.Contents())
	}
}

func TestWriteBackTraffic(t *testing.T) {
	c := mustNew(t, Config{Size: 64, BlockSize: 32, Assoc: 1})
	c.Access(write(0x000)) // miss, allocate, dirty
	c.Access(read(0x400))  // evicts dirty block of set 0? 0x400 maps to set 0 (64B cache, 2 sets: set = (0x400>>5)&1 = 0)
	st := c.Stats()
	if st.WriteBacks != 1 || st.WriteBackBytes != 32 {
		t.Errorf("expected one 32B write-back, got %+v", st)
	}
}

func TestCleanEvictionNoTraffic(t *testing.T) {
	c := mustNew(t, Config{Size: 64, BlockSize: 32, Assoc: 1})
	c.Access(read(0x000))
	c.Access(read(0x400))
	if st := c.Stats(); st.WriteBacks != 0 {
		t.Errorf("clean eviction wrote back: %+v", st)
	}
}

func TestWriteThrough(t *testing.T) {
	c := mustNew(t, Config{Size: 1024, BlockSize: 32, Assoc: 1, Write: WriteThrough})
	c.Access(write(0x100)) // miss: fetch + word through
	c.Access(write(0x100)) // hit: word through
	st := c.Stats()
	if st.WriteThroughBytes != 2*trace.WordSize {
		t.Errorf("write-through bytes = %d, want 8", st.WriteThroughBytes)
	}
	c.Flush()
	if st := c.Stats(); st.WriteBackBytes != 0 {
		t.Error("write-through cache should have no dirty data to flush")
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c := mustNew(t, Config{Size: 1024, BlockSize: 32, Assoc: 1, Alloc: NoWriteAllocate})
	c.Access(write(0x100))
	st := c.Stats()
	if st.Fetches != 0 {
		t.Error("no-write-allocate fetched on store miss")
	}
	if st.WriteThroughBytes != trace.WordSize {
		t.Errorf("store word should go below, got %d bytes", st.WriteThroughBytes)
	}
	if c.Access(read(0x100)) {
		t.Error("block should not have been allocated")
	}
}

func TestFlushWritesDirtyOnly(t *testing.T) {
	c := mustNew(t, Config{Size: 1024, BlockSize: 32, Assoc: 1})
	c.Access(read(0x000))
	c.Access(write(0x100))
	c.Access(write(0x200))
	c.Flush()
	st := c.Stats()
	if st.FlushWriteBacks != 2 {
		t.Errorf("flush write-backs = %d, want 2", st.FlushWriteBacks)
	}
	if c.Contents() != 0 {
		t.Error("flush left valid blocks")
	}
}

func TestRunIncludesFlush(t *testing.T) {
	c := mustNew(t, Config{Size: 1024, BlockSize: 32, Assoc: 1})
	st := c.RunRefs([]trace.Ref{write(0x0), write(0x40)})
	// Two fetches (write-allocate) and two flush write-backs.
	if st.FetchBytes != 64 || st.WriteBackBytes != 64 {
		t.Errorf("run traffic = %+v", st)
	}
}

func TestMissRate(t *testing.T) {
	c := mustNew(t, Config{Size: 1024, BlockSize: 32, Assoc: 1})
	c.Access(read(0))
	c.Access(read(0))
	c.Access(read(0))
	c.Access(read(0x400))
	if mr := c.Stats().MissRate(); mr != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", mr)
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Error("empty miss rate should be 0")
	}
}

func TestFullyAssociativeHoldsCapacity(t *testing.T) {
	// 8-block fully-associative cache holds any 8 distinct blocks.
	c := mustNew(t, Config{Size: 256, BlockSize: 32, Assoc: 0})
	for i := 0; i < 8; i++ {
		c.Access(read(uint64(i) * 0x1000)) // wildly conflicting addresses
	}
	hits := 0
	for i := 0; i < 8; i++ {
		if c.Access(read(uint64(i) * 0x1000)) {
			hits++
		}
	}
	if hits != 8 {
		t.Errorf("fully-assoc re-touch hits = %d, want 8", hits)
	}
}

func TestSequentialStreamSpatialLocality(t *testing.T) {
	// A pure sequential read stream should hit 7 of every 8 words with
	// 32-byte blocks.
	c := mustNew(t, Config{Size: 64 << 10, BlockSize: 32, Assoc: 1})
	n := int64(8000)
	for i := int64(0); i < n; i++ {
		c.Access(read(uint64(i) * 4))
	}
	st := c.Stats()
	if st.Misses != n/8 {
		t.Errorf("sequential misses = %d, want %d", st.Misses, n/8)
	}
	// Traffic ratio for a clean sequential read stream is exactly 1.0:
	// every fetched byte is used once.
	if got := float64(st.TrafficBytes()) / float64(n*4); got != 1.0 {
		t.Errorf("sequential read traffic ratio = %v, want 1.0", got)
	}
}

func TestTrafficAccountingConservation(t *testing.T) {
	// Property: fetch bytes = Fetches * BlockSize, write-back bytes =
	// WriteBacks * BlockSize, and misses = fetches for read/write-allocate
	// configurations.
	f := func(seed uint64, n uint16) bool {
		rng := stats.NewRNG(seed)
		c, err := New(Config{Size: 2048, BlockSize: 32, Assoc: 2})
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			k := trace.Read
			if rng.Intn(3) == 0 {
				k = trace.Write
			}
			c.Access(trace.Ref{Kind: k, Addr: uint64(rng.Intn(1 << 14))})
		}
		c.Flush()
		st := c.Stats()
		return st.FetchBytes == units.Blocks(st.Fetches).Bytes(32) &&
			st.WriteBackBytes == units.Blocks(st.WriteBacks).Bytes(32) &&
			st.Fetches == st.Misses &&
			st.Accesses == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWriteBacksNeverExceedDirtyingStores(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := stats.NewRNG(seed)
		c, err := New(Config{Size: 1024, BlockSize: 32, Assoc: 1})
		if err != nil {
			return false
		}
		stores := int64(0)
		for i := 0; i < int(n); i++ {
			k := trace.Read
			if rng.Intn(2) == 0 {
				k = trace.Write
				stores++
			}
			c.Access(trace.Ref{Kind: k, Addr: uint64(rng.Intn(1 << 13))})
		}
		c.Flush()
		return c.Stats().WriteBacks <= stores
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestContentsNeverExceedCapacity(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		rng := stats.NewRNG(seed)
		cfg := Config{Size: 512, BlockSize: 32, Assoc: 4}
		c, err := New(cfg)
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			c.Access(read(uint64(rng.Intn(1 << 16))))
			if c.Contents() > cfg.Size/cfg.BlockSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLargerCacheNeverMoreMisses(t *testing.T) {
	// For the same fully-associative LRU configuration, a larger cache
	// never misses more (LRU inclusion property).
	mk := func(size int) Stats {
		c, _ := New(Config{Size: size, BlockSize: 32, Assoc: 0})
		rng := stats.NewRNG(99)
		for i := 0; i < 20000; i++ {
			c.Access(read(uint64(rng.Intn(1 << 14))))
		}
		return c.Stats()
	}
	small, large := mk(1024), mk(4096)
	if large.Misses > small.Misses {
		t.Errorf("larger LRU cache missed more: %d > %d", large.Misses, small.Misses)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		c, _ := New(Config{Size: 2048, BlockSize: 32, Assoc: 2, Repl: Random})
		rng := stats.NewRNG(5)
		for i := 0; i < 5000; i++ {
			c.Access(read(uint64(rng.Intn(1 << 15))))
		}
		c.Flush()
		return c.Stats()
	}
	if run() != run() {
		t.Error("random-replacement simulation is not deterministic")
	}
}

func TestPolicyStrings(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "random" {
		t.Error("replacement policy names wrong")
	}
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Error("write policy names wrong")
	}
	if WriteAllocate.String() != "write-allocate" || NoWriteAllocate.String() != "no-write-allocate" {
		t.Error("alloc policy names wrong")
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{Size: 100, BlockSize: 32, Assoc: 1}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStatsPublish(t *testing.T) {
	c, err := New(Config{Size: 1 << 10, BlockSize: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	var refs []trace.Ref
	for i := 0; i < 64; i++ {
		refs = append(refs, trace.Ref{Kind: trace.Read, Addr: uint64(i * 64)})
	}
	st := c.RunRefs(refs)
	reg := telemetry.NewRegistry()
	st.Publish(reg, "cache.t")
	snap := reg.Snapshot()
	if snap.Counters["cache.t.accesses"] != st.Accesses {
		t.Errorf("accesses = %d, want %d", snap.Counters["cache.t.accesses"], st.Accesses)
	}
	if snap.Counters["cache.t.fetch_bytes"] != int64(st.FetchBytes) {
		t.Errorf("fetch_bytes = %d, want %d", snap.Counters["cache.t.fetch_bytes"], st.FetchBytes)
	}
	if snap.Gauges["cache.t.miss_rate"] != st.MissRate() {
		t.Errorf("miss_rate = %v, want %v", snap.Gauges["cache.t.miss_rate"], st.MissRate())
	}
	// Nil registry must be a no-op, not a panic.
	st.Publish(nil, "cache.t")
}
