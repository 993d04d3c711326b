package cache

import (
	"testing"

	"memwall/internal/stats"
	"memwall/internal/trace"
)

func twoLevel(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(
		Config{Size: 4 << 10, BlockSize: 32, Assoc: 1},
		Config{Size: 64 << 10, BlockSize: 64, Assoc: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(); err == nil {
		t.Error("empty hierarchy accepted")
	}
	if _, err := NewHierarchy(
		Config{Size: 4 << 10, BlockSize: 64, Assoc: 1},
		Config{Size: 64 << 10, BlockSize: 32, Assoc: 1},
	); err == nil {
		t.Error("shrinking block sizes accepted")
	}
	if _, err := NewHierarchy(Config{Size: 100, BlockSize: 32}); err == nil {
		t.Error("invalid level config accepted")
	}
}

func TestHierarchyColdMissPropagates(t *testing.T) {
	h := twoLevel(t)
	h.Access(trace.Ref{Kind: trace.Read, Addr: 0x1000})
	// L1 fetched one 32B block; L2 saw 8 word-reads covering it and
	// fetched one 64B block.
	if got := h.Level(0).Stats().FetchBytes; got != 32 {
		t.Errorf("L1 fetch = %d", got)
	}
	if got := h.Level(1).Stats().FetchBytes; got != 64 {
		t.Errorf("L2 fetch = %d", got)
	}
}

func TestHierarchyL2CapturesL1Evictions(t *testing.T) {
	h := twoLevel(t)
	// Two L1-conflicting blocks (4KB apart) fit easily in the 4-way L2.
	h.Access(trace.Ref{Kind: trace.Read, Addr: 0x0000})
	h.Access(trace.Ref{Kind: trace.Read, Addr: 0x1000})
	h.Access(trace.Ref{Kind: trace.Read, Addr: 0x0000}) // L1 miss, L2 hit
	l2 := h.Level(1).Stats()
	if l2.FetchBytes != 128 {
		t.Errorf("L2 should fetch exactly two cold blocks, got %d bytes", l2.FetchBytes)
	}
}

func TestHierarchyRatiosMultiply(t *testing.T) {
	h := twoLevel(t)
	rng := stats.NewRNG(7)
	var refs []trace.Ref
	for i := 0; i < 60000; i++ {
		k := trace.Read
		if rng.Intn(4) == 0 {
			k = trace.Write
		}
		refs = append(refs, trace.Ref{Kind: k, Addr: uint64(rng.Intn(1<<17)) &^ 3})
	}
	ratios := h.Run(refs)
	if len(ratios) != 2 {
		t.Fatalf("ratios = %v", ratios)
	}
	// Both levels filter: each ratio positive; the L2 (larger than the
	// 128KB footprint? no — footprint 128KB, L2 64KB) still passes less
	// than it receives for this re-referencing stream.
	if ratios[0] <= 0 || ratios[1] <= 0 {
		t.Errorf("ratios = %v", ratios)
	}
	// Product consistency: D2/(refs*4) == R0*R1.
	d2 := h.Level(1).Stats().TrafficBytes()
	want := float64(d2) / float64(int64(len(refs))*4)
	got := ratios[0] * ratios[1]
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ratio product %v != end-to-end ratio %v", got, want)
	}
	if f := h.EffectiveBandwidthFactor(int64(len(refs))); f <= 0 {
		t.Errorf("bandwidth factor = %v", f)
	}
}

func TestHierarchySingleLevelMatchesCache(t *testing.T) {
	cfg := Config{Size: 8 << 10, BlockSize: 32, Assoc: 2}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	var refs []trace.Ref
	for i := 0; i < 20000; i++ {
		refs = append(refs, trace.Ref{Kind: trace.Read, Addr: uint64(rng.Intn(1<<15)) &^ 3})
	}
	hr := h.Run(refs)
	ss := solo.RunRefs(refs)
	if h.Level(0).Stats().TrafficBytes() != ss.TrafficBytes() {
		t.Errorf("single-level hierarchy traffic %d != plain cache %d",
			h.Level(0).Stats().TrafficBytes(), ss.TrafficBytes())
	}
	if len(hr) != 1 {
		t.Errorf("ratios = %v", hr)
	}
}

func TestHierarchyBigL2FiltersHeavily(t *testing.T) {
	// A looping working set larger than L1 but well inside L2: R1 must
	// be far below 1 (L2 absorbs nearly everything after the first pass).
	h := twoLevel(t)
	var refs []trace.Ref
	for pass := 0; pass < 20; pass++ {
		for w := 0; w < 4096; w++ { // 16KB working set
			refs = append(refs, trace.Ref{Kind: trace.Read, Addr: uint64(w) * 4})
		}
	}
	ratios := h.Run(refs)
	if ratios[1] > 0.1 {
		t.Errorf("L2 ratio %v should be tiny for an L2-resident loop", ratios[1])
	}
	if f := h.EffectiveBandwidthFactor(int64(len(refs))); f < 10 {
		t.Errorf("two-level filtering factor %v should be large", f)
	}
}

func TestHierarchyFlushCascades(t *testing.T) {
	h := twoLevel(t)
	h.Access(trace.Ref{Kind: trace.Write, Addr: 0x40})
	h.FlushAll()
	// The dirty L1 block flushed into L2 (as writes), and the dirty L2
	// content flushed below (write-back bytes at L2 > 0).
	if h.Level(1).Stats().WriteBackBytes == 0 {
		t.Error("L2 saw no cascaded dirty data")
	}
}
