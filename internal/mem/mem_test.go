package mem

import (
	"testing"
	"testing/quick"

	"memwall/internal/stats"
	"memwall/internal/telemetry"
	"memwall/internal/units"
)

// testConfig is a small hierarchy with easily-predicted timing: L1 1KB/32B
// 1 cycle, L2 8KB/64B 10 cycles, memory 30 cycles, 16B L1/L2 bus at 1/2,
// 8B memory bus at 1/2.
func testConfig(mode Mode, mshrs int) Config {
	return Config{
		L1:              LevelConfig{Size: 1 << 10, BlockSize: 32, Assoc: 1, AccessCycles: 1, MSHRs: mshrs},
		L2:              LevelConfig{Size: 8 << 10, BlockSize: 64, Assoc: 4, AccessCycles: 10, MSHRs: 8},
		L1L2Bus:         BusConfig{WidthBytes: 16, Ratio: 2},
		MemBus:          BusConfig{WidthBytes: 8, Ratio: 2},
		MemAccessCycles: 30,
		Mode:            mode,
	}
}

func mustNew(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestModeString(t *testing.T) {
	if Full.String() != "full" || InfiniteBW.String() != "infinite-bw" || Perfect.String() != "perfect" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	bad := testConfig(Full, 1)
	bad.L1.BlockSize = 24
	if _, err := New(bad); err == nil {
		t.Error("bad block size accepted")
	}
	bad2 := testConfig(Full, 1)
	bad2.L1.MSHRs = 0
	if _, err := New(bad2); err == nil {
		t.Error("zero MSHRs accepted")
	}
	bad3 := testConfig(Full, 1)
	bad3.L2.Size = 100
	if _, err := New(bad3); err == nil {
		t.Error("bad L2 size accepted")
	}
}

func TestPerfectMode(t *testing.T) {
	h := mustNew(t, Config{Mode: Perfect})
	if got := h.Load(0x1234, 100); got != 101 {
		t.Errorf("perfect load ready = %d, want 101", got)
	}
	if got := h.Store(0x1234, 100); got != 101 {
		t.Errorf("perfect store ready = %d, want 101", got)
	}
}

func TestL1HitTiming(t *testing.T) {
	h := mustNew(t, testConfig(Full, 4))
	h.Load(0x100, 0) // miss fills the line
	ready := h.Load(0x104, 1000)
	if ready != 1001 {
		t.Errorf("L1 hit ready = %d, want 1001", ready)
	}
	if h.Stats().L1Hits != 1 {
		t.Errorf("stats = %+v", h.Stats())
	}
}

func TestMissLatencyOrdering(t *testing.T) {
	// An L2 hit must be faster than an L2 miss; both slower than an L1 hit.
	h := mustNew(t, testConfig(Full, 4))
	coldReady := h.Load(0x100, 0) // L1+L2 miss -> memory
	if coldReady <= 11 {
		t.Errorf("cold miss ready = %d, implausibly fast", coldReady)
	}
	// Evict 0x100 from L1 (1KB DM: +1KB conflicts) but it stays in L2.
	h.Load(0x100+1024, 1000)
	l2HitReady := h.Load(0x100, 2000) - 2000
	hitReady := h.Load(0x100, 3000) - 3000
	coldLat := coldReady - 0
	if !(hitReady < l2HitReady && l2HitReady < coldLat) {
		t.Errorf("latency ordering violated: L1 %d, L2 %d, mem %d", hitReady, l2HitReady, coldLat)
	}
}

func TestInfiniteBWFasterThanFull(t *testing.T) {
	// Under a burst of parallel misses, infinite bandwidth must be at
	// least as fast for every access.
	full := mustNew(t, testConfig(Full, 8))
	inf := mustNew(t, testConfig(InfiniteBW, 8))
	for i := 0; i < 32; i++ {
		addr := uint64(i) * 4096
		rf := full.Load(addr, 0)
		ri := inf.Load(addr, 0)
		if ri > rf {
			t.Fatalf("access %d: infinite-bw ready %d > full ready %d", i, ri, rf)
		}
	}
}

func TestBusContentionSerialisesMisses(t *testing.T) {
	// With one-cycle-apart misses to distinct blocks, the memory bus
	// serialises fills in Full mode: later misses finish later than the
	// contention-free latency.
	h := mustNew(t, testConfig(Full, 8))
	var last int64
	for i := 0; i < 8; i++ {
		last = h.Load(uint64(i)*4096, 0)
	}
	inf := mustNew(t, testConfig(InfiniteBW, 8))
	var lastInf int64
	for i := 0; i < 8; i++ {
		lastInf = inf.Load(uint64(i)*4096, 0)
	}
	if last <= lastInf {
		t.Errorf("bus contention absent: full %d <= infinite %d", last, lastInf)
	}
}

func TestBlockingCacheSerialises(t *testing.T) {
	// MSHRs=1 (blocking): the second concurrent miss waits for the first.
	blocking := mustNew(t, testConfig(Full, 1))
	lockup := mustNew(t, testConfig(Full, 8))
	b1 := blocking.Load(0x0000, 0)
	b2 := blocking.Load(0x4000, 0)
	l1 := lockup.Load(0x0000, 0)
	l2 := lockup.Load(0x4000, 0)
	if b2 <= l2 {
		t.Errorf("blocking second miss %d should exceed lockup-free %d", b2, l2)
	}
	if b1 != l1 {
		t.Errorf("first miss should match: %d vs %d", b1, l1)
	}
}

func TestHitsUnderMiss(t *testing.T) {
	// The paper assumes blocking caches still service hits under a miss.
	h := mustNew(t, testConfig(Full, 1))
	h.Load(0x100, 0)             // fill (completes well before t=1000)
	miss := h.Load(0x4000, 1000) // long miss occupying the one MSHR
	hit := h.Load(0x104, 1001)   // hit under miss
	if hit != 1002 {
		t.Errorf("hit under miss ready = %d, want 1002", hit)
	}
	if miss <= 1001 {
		t.Errorf("miss ready = %d, should be long", miss)
	}
}

func TestSecondaryMissMerges(t *testing.T) {
	h := mustNew(t, testConfig(Full, 8))
	first := h.Load(0x100, 0)
	second := h.Load(0x108, 1) // same 32B block, still in flight
	if second > first {
		t.Errorf("merged miss ready %d should not exceed primary %d", second, first)
	}
	st := h.Stats()
	if st.L1MergedMisses != 1 {
		t.Errorf("merged misses = %d, want 1", st.L1MergedMisses)
	}
	// Only one block's traffic.
	if st.L1L2TrafficBytes != 32 {
		t.Errorf("L1/L2 traffic = %d, want 32", st.L1L2TrafficBytes)
	}
}

func TestStoreNeverStalls(t *testing.T) {
	h := mustNew(t, testConfig(Full, 1))
	for i := 0; i < 20; i++ {
		if got := h.Store(uint64(i)*4096, int64(i)); got != int64(i)+1 {
			t.Fatalf("store %d accepted at %d, want %d (infinite write buffer)", i, got, i+1)
		}
	}
}

func TestDirtyEvictionTraffic(t *testing.T) {
	h := mustNew(t, testConfig(Full, 4))
	h.Store(0x0000, 0)       // store miss: allocate dirty
	h.Load(0x0000+1024, 100) // conflicting load evicts the dirty block
	st := h.Stats()
	if st.WriteBacksL1 != 1 {
		t.Errorf("L1 write-backs = %d, want 1", st.WriteBacksL1)
	}
}

func TestTaggedPrefetchFetchesNextBlock(t *testing.T) {
	cfg := testConfig(Full, 8)
	cfg.TaggedPrefetch = true
	h := mustNew(t, cfg)
	h.Load(0x100, 0) // miss -> prefetch 0x120
	if h.Stats().Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1", h.Stats().Prefetches)
	}
	// After the fill settles, 0x120 should hit and trigger the next
	// prefetch (tag bit).
	ready := h.Load(0x120, 500)
	if ready != 501 {
		t.Errorf("prefetched block should hit: ready = %d", ready)
	}
	if h.Stats().Prefetches != 2 {
		t.Errorf("tagged hit should prefetch next: %d", h.Stats().Prefetches)
	}
}

func TestPrefetchIncreasesTraffic(t *testing.T) {
	// The paper's point: prefetching trades traffic for latency. A
	// strided stream that skips blocks makes tagged prefetch fetch
	// useless data.
	plain := mustNew(t, testConfig(Full, 8))
	cfgP := testConfig(Full, 8)
	cfgP.TaggedPrefetch = true
	pref := mustNew(t, cfgP)
	for i := 0; i < 64; i++ {
		addr := uint64(i) * 64 * 3 // skip two blocks each time
		plain.Load(addr, int64(i)*100)
		pref.Load(addr, int64(i)*100)
	}
	// The useless prefetched L1 blocks inflate L1/L2 traffic (the next
	// 32B block shares the 64B L2 block, so memory traffic is unchanged
	// in this pattern — the waste shows on the inner bus).
	if pref.Stats().L1L2TrafficBytes <= plain.Stats().L1L2TrafficBytes {
		t.Errorf("prefetch L1/L2 traffic %d should exceed plain %d",
			pref.Stats().L1L2TrafficBytes, plain.Stats().L1L2TrafficBytes)
	}
}

func TestTrafficAccounting(t *testing.T) {
	h := mustNew(t, testConfig(Full, 4))
	h.Load(0x100, 0)
	st := h.Stats()
	if st.L1L2TrafficBytes != 32 {
		t.Errorf("L1/L2 bytes = %d, want 32 (one L1 block)", st.L1L2TrafficBytes)
	}
	if st.MemTrafficBytes != 64 {
		t.Errorf("memory bytes = %d, want 64 (one L2 block)", st.MemTrafficBytes)
	}
}

func TestL2CapturesReuse(t *testing.T) {
	h := mustNew(t, testConfig(Full, 4))
	h.Load(0x100, 0)
	h.Load(0x100+1024, 1000) // evict from L1, stays in L2
	h.Load(0x100, 2000)      // L1 miss, L2 hit
	st := h.Stats()
	if st.L2Hits != 1 {
		t.Errorf("L2 hits = %d, want 1", st.L2Hits)
	}
	if st.MemTrafficBytes != 128 {
		t.Errorf("memory traffic = %d, want 128 (two cold blocks only)", st.MemTrafficBytes)
	}
}

func TestModesMonotoneProperty(t *testing.T) {
	// For a random access sequence issued at identical times, per-access
	// ready times satisfy Perfect <= InfiniteBW <= Full is not guaranteed
	// access-by-access (cache states match, though); but the FINAL sum of
	// latencies must be ordered. This is the invariant the execution-time
	// decomposition rests on.
	f := func(seed uint64, n uint8) bool {
		mk := func(mode Mode) int64 {
			h, err := New(testConfig(mode, 4))
			if err != nil {
				return -1
			}
			rng := stats.NewRNG(seed)
			var sum int64
			for i := 0; i < int(n)+10; i++ {
				at := int64(i) * 3
				addr := uint64(rng.Intn(1 << 15))
				if rng.Intn(4) == 0 {
					h.Store(addr, at)
				} else {
					sum += h.Load(addr, at) - at
				}
			}
			return sum
		}
		perfect, inf, full := mk(Perfect), mk(InfiniteBW), mk(Full)
		return perfect <= inf && inf <= full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBusTransferMath(t *testing.T) {
	b := bus{cfg: BusConfig{WidthBytes: 8, Ratio: 2}}
	crit, done := b.transfer(10, 32) // 4 beats * 2 cycles = 8
	if crit != 12 || done != 18 {
		t.Errorf("transfer = (%d, %d), want (12, 18)", crit, done)
	}
	// Next transfer queues behind the first.
	crit2, _ := b.transfer(10, 8)
	if crit2 != 20 {
		t.Errorf("queued transfer critical = %d, want 20", crit2)
	}
	// Infinite bus is free and instant.
	ib := bus{infinite: true}
	c, d := ib.transfer(5, 1<<20)
	if c != 5 || d != 5 {
		t.Errorf("infinite transfer = (%d, %d)", c, d)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		h, _ := New(testConfig(Full, 4))
		rng := stats.NewRNG(31)
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(1 << 16))
			if rng.Intn(3) == 0 {
				h.Store(addr, int64(i))
			} else {
				h.Load(addr, int64(i))
			}
		}
		return h.Stats()
	}
	if run() != run() {
		t.Error("hierarchy simulation not deterministic")
	}
}

func TestFiniteBanksSerialiseSameBank(t *testing.T) {
	// Two misses to the same DRAM bank must serialise; with infinite
	// banks they do not (beyond bus contention).
	cfgInf := testConfig(Full, 8)
	cfgOne := testConfig(Full, 8)
	cfgOne.MemBanks = 1
	inf := mustNew(t, cfgInf)
	one := mustNew(t, cfgOne)
	// Two misses far apart in the address space (same single bank).
	inf.Load(0x0000, 0)
	rInf := inf.Load(0x40000, 0)
	one.Load(0x0000, 0)
	rOne := one.Load(0x40000, 0)
	if rOne <= rInf {
		t.Errorf("single-bank second miss %d should exceed infinite-bank %d", rOne, rInf)
	}
}

func TestManyBanksApproachInfinite(t *testing.T) {
	cfgMany := testConfig(Full, 8)
	cfgMany.MemBanks = 4096
	many := mustNew(t, cfgMany)
	inf := mustNew(t, testConfig(Full, 8))
	for i := 0; i < 16; i++ {
		addr := uint64(i) * 4096
		a := many.Load(addr, int64(i))
		b := inf.Load(addr, int64(i))
		if a != b {
			t.Fatalf("access %d: %d banks differ from infinite (%d vs %d)", i, 4096, a, b)
		}
	}
}

func TestBanksIgnoredOutsideFullMode(t *testing.T) {
	cfg := testConfig(InfiniteBW, 8)
	cfg.MemBanks = 1
	h := mustNew(t, cfg)
	a := h.Load(0x0000, 0)
	b := h.Load(0x40000, 0)
	// In infinite-bandwidth mode the bank limit must not apply.
	if b > a {
		t.Errorf("banks serialised in InfiniteBW mode: %d then %d", a, b)
	}
}

func TestClusterSharesL2(t *testing.T) {
	hs, err := NewCluster(testConfig(Full, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 faults a block in; once the fill settles, core 1 misses its
	// private L1 but hits the shared L2 (no new memory traffic).
	hs[0].Load(0x100, 0)
	before := hs[0].Stats().MemTrafficBytes
	hs[1].Load(0x100, 5000)
	if hs[1].Stats().L2Hits != 1 {
		t.Errorf("core 1 should hit the shared L2: %+v", hs[1].Stats())
	}
	after := hs[0].Stats().MemTrafficBytes + hs[1].Stats().MemTrafficBytes
	if after != before {
		t.Errorf("shared-L2 hit generated memory traffic: %d -> %d", before, after)
	}
}

func TestClusterSharesBuses(t *testing.T) {
	hs, err := NewCluster(testConfig(Full, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := New(testConfig(Full, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Two cores missing simultaneously on the shared bus finish later
	// than a single core's identical miss.
	soloReady := solo.Load(0x4000, 0)
	hs[0].Load(0x8000, 0)
	sharedReady := hs[1].Load(0x4000, 0)
	if sharedReady <= soloReady {
		t.Errorf("shared-bus miss %d should exceed solo %d", sharedReady, soloReady)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(testConfig(Full, 8), 0); err == nil {
		t.Error("zero cores accepted")
	}
	hs, err := NewCluster(Config{Mode: Perfect}, 3)
	if err != nil || len(hs) != 3 {
		t.Fatalf("perfect cluster: %v", err)
	}
}

func TestL1WritebackMissingFromL2GoesToMemory(t *testing.T) {
	// Dirty a block in L1, evict it from L2, then evict it from L1: the
	// write-back must travel to memory.
	h := mustNew(t, testConfig(Full, 8))
	h.Store(0x0000, 0) // dirty in L1, resident in L2
	// Thrash the L2 set containing 0x0000 (8KB 4-way, 64B blocks: 32
	// sets; addresses 2KB apart map to the same set).
	for i := 1; i <= 4; i++ {
		h.Load(uint64(i)*2048, int64(i)*1000)
	}
	before := h.Stats().MemTrafficBytes
	// Now evict the dirty line from L1 (1KB DM: +1KB conflicts).
	h.Load(0x0000+1024, 50000)
	if h.Stats().WriteBacksL1 != 1 {
		t.Fatalf("expected an L1 write-back: %+v", h.Stats())
	}
	if h.Stats().MemTrafficBytes <= before {
		t.Error("orphaned dirty write-back should reach memory")
	}
}

func TestScratchpadServesRegion(t *testing.T) {
	cfg := testConfig(Full, 8)
	cfg.Scratchpad = ScratchpadConfig{Base: 0x100000, Size: 4096}
	h := mustNew(t, cfg)
	// In-region accesses: 1 cycle, no traffic, no cache state.
	if got := h.Load(0x100010, 50); got != 51 {
		t.Errorf("scratchpad load ready = %d, want 51", got)
	}
	if got := h.Store(0x100020, 60); got != 61 {
		t.Errorf("scratchpad store ready = %d", got)
	}
	st := h.Stats()
	if st.ScratchpadHits != 2 {
		t.Errorf("scratchpad hits = %d", st.ScratchpadHits)
	}
	if st.L1Misses != 0 || st.L1L2TrafficBytes != 0 {
		t.Errorf("scratchpad access leaked into the caches: %+v", st)
	}
	// Out-of-region accesses take the normal path.
	h.Load(0x200000, 100)
	if h.Stats().L1Misses != 1 {
		t.Error("non-scratchpad access should use the caches")
	}
}

func TestScratchpadBoundaries(t *testing.T) {
	sp := ScratchpadConfig{Base: 0x1000, Size: 0x100}
	if !sp.contains(0x1000) || !sp.contains(0x10FC) {
		t.Error("in-range addresses rejected")
	}
	if sp.contains(0xFFC) || sp.contains(0x1100) {
		t.Error("out-of-range addresses accepted")
	}
	var off ScratchpadConfig
	if off.contains(0) {
		t.Error("zero-size scratchpad must match nothing")
	}
}

func TestBusBusyCyclesAndEvictions(t *testing.T) {
	cfg := testConfig(Full, 1)
	h := mustNew(t, cfg)
	// Walk far past the L1 and L2 capacities so both levels miss and evict.
	now := int64(0)
	for i := 0; i < 1024; i++ {
		now = h.Load(uint64(i)*32, now)
	}
	st := h.Stats()
	if st.L1L2BusBusyCycles == 0 {
		t.Error("no L1/L2 bus busy cycles recorded on a missing workload")
	}
	if st.MemBusBusyCycles == 0 {
		t.Error("no memory bus busy cycles recorded on a missing workload")
	}
	if st.L1Evictions == 0 || st.L2Evictions == 0 {
		t.Errorf("no evictions recorded: L1=%d L2=%d", st.L1Evictions, st.L2Evictions)
	}
	if u := st.MemBusUtilization(units.Cycles(now)); u <= 0 || u > 1 {
		t.Errorf("memory bus utilization %v outside (0, 1]", u)
	}
	if st.L1L2BusUtilization(0) != 0 {
		t.Error("utilization over zero cycles should be 0")
	}
}

func TestInfiniteBWBusesStayIdle(t *testing.T) {
	h := mustNew(t, testConfig(InfiniteBW, 1))
	now := int64(0)
	for i := 0; i < 256; i++ {
		now = h.Load(uint64(i)*32, now)
	}
	st := h.Stats()
	if st.L1L2BusBusyCycles != 0 || st.MemBusBusyCycles != 0 {
		t.Errorf("infinite-bandwidth buses recorded busy cycles: %d/%d",
			st.L1L2BusBusyCycles, st.MemBusBusyCycles)
	}
}

func TestMSHROccupancyHistogram(t *testing.T) {
	cfg := testConfig(Full, 4)
	reg := telemetry.NewRegistry()
	h := mustNew(t, cfg)
	h.Instrument(reg, false)
	// Issue independent misses back-to-back at the same cycle so several
	// fills are outstanding at once.
	for i := 0; i < 64; i++ {
		h.Load(uint64(i)*64, 0)
	}
	l1, l2 := h.MSHROccupancy()
	if l1.Count == 0 {
		t.Fatal("no L1 MSHR occupancy samples")
	}
	if got, want := len(l1.Bounds), cfg.L1.MSHRs+1; got != want {
		t.Errorf("L1 occupancy bounds = %d, want %d (0..MSHRs)", got, want)
	}
	if l2.Count == 0 {
		t.Error("no L2 MSHR occupancy samples")
	}
	// With misses issued at cycle 0 against one-at-a-time completion, the
	// later misses must observe non-zero occupancy.
	var nonZero int64
	for i, c := range l1.Counts {
		if i > 0 {
			nonZero += c
		}
	}
	if nonZero == 0 {
		t.Error("all occupancy samples were zero; expected busy MSHRs")
	}
	// The registry sees the same histograms under the documented names.
	snap := reg.Snapshot()
	if _, ok := snap.Histograms["mem.l1.mshr_occupancy"]; !ok {
		t.Error("mem.l1.mshr_occupancy missing from registry snapshot")
	}
	if _, ok := snap.Histograms["mem.l2.mshr_occupancy"]; !ok {
		t.Error("mem.l2.mshr_occupancy missing from registry snapshot")
	}
}

func TestNoMetricsMeansNoOccupancyScan(t *testing.T) {
	h := mustNew(t, testConfig(Full, 4))
	for i := 0; i < 16; i++ {
		h.Load(uint64(i)*64, 0)
	}
	l1, l2 := h.MSHROccupancy()
	if l1.Count != 0 || l2.Count != 0 {
		t.Error("occupancy sampled without a metrics registry")
	}
}

func TestNewRejectsZeroWidthBus(t *testing.T) {
	// Finite buses must be at least one byte wide; a zero width would
	// make every transfer divide by zero (guardlint regression).
	cfg := testConfig(Full, 1)
	cfg.L1L2Bus.WidthBytes = 0
	if _, err := New(cfg); err == nil {
		t.Error("New accepted zero-width L1-L2 bus")
	}
	cfg = testConfig(Full, 1)
	cfg.MemBus.WidthBytes = 0
	if _, err := New(cfg); err == nil {
		t.Error("New accepted zero-width memory bus")
	}
	// Infinite buses ignore width entirely and must stay accepted.
	cfg = testConfig(InfiniteBW, 1)
	cfg.L1L2Bus.WidthBytes = 0
	cfg.MemBus.WidthBytes = 0
	if _, err := New(cfg); err != nil {
		t.Errorf("New rejected infinite-bandwidth config: %v", err)
	}
}

func TestStoreMergedMissWindowMatchesLoad(t *testing.T) {
	// Regression: Store compared the in-flight fill's ready cycle against
	// bare `now` while Load compared against `now + L1.AccessCycles` (the
	// cycle the data slot is actually needed), so an access landing in the
	// window (now, now+AccessCycles] was a merged miss for Store but a
	// plain hit for Load. Timing was unaffected (stores always accept at
	// now+1); only the hit/merge ledger split disagreed.
	cfg := testConfig(Full, 4)
	cfg.L1.AccessCycles = 4
	classify := func(store bool, gap int64) (hits, merged int64) {
		h := mustNew(t, cfg)
		r := h.Load(0x100, 0) // cold miss: fill ready at cycle r
		base := h.Stats()
		if store {
			h.Store(0x104, r-gap) // same 32B block, fill still in flight
		} else {
			h.Load(0x104, r-gap)
		}
		st := h.Stats()
		return st.L1Hits - base.L1Hits, st.L1MergedMisses - base.L1MergedMisses
	}
	for _, tc := range []struct {
		gap          int64
		wantH, wantM int64
	}{
		// Data slot at (r-4)+4 = r: the fill has landed, plain hit.
		{4, 1, 0},
		// Data slot at (r-5)+4 = r-1: fill arrives a cycle late, merged.
		{5, 0, 1},
	} {
		lh, lm := classify(false, tc.gap)
		if lh != tc.wantH || lm != tc.wantM {
			t.Errorf("Load gap=%d: hits=%d merged=%d, want %d/%d", tc.gap, lh, lm, tc.wantH, tc.wantM)
		}
		sh, sm := classify(true, tc.gap)
		if sh != lh || sm != lm {
			t.Errorf("Store gap=%d: hits=%d merged=%d, Load counted %d/%d", tc.gap, sh, sm, lh, lm)
		}
	}
}

func TestL2MergedMissCounted(t *testing.T) {
	// Regression: an L1 miss forwarded from an in-flight L2 fill (two L1
	// blocks sharing one L2 block, the second arriving while memory is
	// still responding) was counted as an L2 hit. It is a merged miss —
	// one memory response serves both — and gets its own ledger column so
	// the L2 identity (hits + merged + misses = L2 accesses) closes.
	h := mustNew(t, testConfig(Full, 4))
	h.Load(0x00, 0) // L1+L2 miss: 64B L2 block 0 in flight
	h.Load(0x20, 1) // other 32B half: L1 miss, merges with the L2 fill
	st := h.Stats()
	if st.L2Misses != 1 || st.L2MergedMisses != 1 || st.L2Hits != 0 {
		t.Errorf("L2 ledger = hits %d, merged %d, misses %d, want 0/1/1",
			st.L2Hits, st.L2MergedMisses, st.L2Misses)
	}
	if st.Loads != st.L1Hits+st.L1MergedMisses+st.L1Misses {
		t.Errorf("L1 ledger does not close: %+v", st)
	}
}

func TestLoadStoreSteadyStateAllocs(t *testing.T) {
	// The timing hot loop must not allocate once warm: the fill tables,
	// MSHR heaps, and victim/stream state are all pre-sized, and the epoch
	// sweep reuses its scratch slices.
	cfg := testConfig(Full, 8)
	cfg.StreamBuffers = StreamBufferConfig{Buffers: 4, Depth: 4}
	cfg.VictimCache = VictimCacheConfig{Entries: 4}
	h := mustNew(t, cfg)
	var now int64
	workload := func() {
		for i := 0; i < 512; i++ {
			addr := uint64(i%97) * 64
			now = h.Load(addr, now)
			now = h.Store(addr+4096, now)
		}
	}
	workload() // warm: first misses size internal state
	if n := testing.AllocsPerRun(20, workload); n != 0 {
		t.Errorf("Load/Store steady state allocates %.1f times per run", n)
	}
}
