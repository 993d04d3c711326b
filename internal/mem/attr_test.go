package mem

import (
	"testing"

	"memwall/internal/attr"
)

// The attribution contract: lastBW is the gap between a load's actual
// completion and what an infinitely-wide-bus hierarchy would have
// delivered, so on an uncontended cold miss it must equal the pure
// transfer time, and summing (ready - bw) over a run must track the
// InfiniteBW hierarchy's timings.
func TestLoadBWDelayColdMiss(t *testing.T) {
	h := mustNew(t, testConfig(Full, 8))
	h.Instrument(nil, true)
	ready := h.Load(0, 0)
	bw := h.LastLoadBWDelay()
	// Latency-only completion: L1 access 1 + L2 access 10 + memory 30.
	wantLat := int64(41)
	if got := ready - bw; got != wantLat {
		t.Errorf("latency share = %d (ready %d, bw %d), want %d", got, ready, bw, wantLat)
	}
	if bw <= 0 {
		t.Errorf("cold miss has no bandwidth share (bw=%d)", bw)
	}

	// The same access against an InfiniteBW hierarchy completes at the
	// latency-only estimate.
	icfg := testConfig(InfiniteBW, 8)
	ih := mustNew(t, icfg)
	if got := ih.Load(0, 0); got != wantLat {
		t.Errorf("InfiniteBW completion = %d, want %d", got, wantLat)
	}
}

func TestLoadBWDelayHitIsZero(t *testing.T) {
	h := mustNew(t, testConfig(Full, 8))
	h.Instrument(nil, true)
	done := h.Load(0, 0)
	if got := h.Load(0, done+10); got != done+11 {
		t.Fatalf("expected an L1 hit, got completion %d", got)
	}
	if bw := h.LastLoadBWDelay(); bw != 0 {
		t.Errorf("L1 hit bandwidth delay = %d, want 0", bw)
	}
}

func TestLoadBWDelayMergedMiss(t *testing.T) {
	h := mustNew(t, testConfig(Full, 8))
	h.Instrument(nil, true)
	h.Load(0, 0)
	// Second word of the same block while the fill is in flight: the
	// wait beyond the latency-only arrival is a bandwidth charge.
	ready := h.Load(8, 1)
	bw := h.LastLoadBWDelay()
	if s := h.Stats(); s.L1MergedMisses != 1 {
		t.Fatalf("expected a merged miss, stats %+v", s)
	}
	if bw <= 0 {
		t.Errorf("merged miss under a contended fill has bw=%d, want >0", bw)
	}
	if ready-bw < 2 {
		t.Errorf("latency share %d implausibly small", ready-bw)
	}
}

// Attribution bookkeeping must not perturb timing: the same access
// sequence returns identical completion times with the latency/bandwidth
// split on and off.
func TestAttrDoesNotChangeTiming(t *testing.T) {
	addrs := []uint64{0, 64, 4096, 8, 131072, 64, 0, 262144, 4096, 96}
	run := func(enabled bool) []int64 {
		cfg := testConfig(Full, 4)
		cfg.TaggedPrefetch = true
		h := mustNew(t, cfg)
		h.Instrument(nil, enabled)
		var out []int64
		now := int64(0)
		for _, a := range addrs {
			r := h.Load(a, now)
			out = append(out, r)
			now += 3
		}
		return out
	}
	on, off := run(true), run(false)
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("access %d: completion %d with attr, %d without", i, on[i], off[i])
		}
	}
}

func TestFillAttrSample(t *testing.T) {
	h := mustNew(t, testConfig(Full, 8))
	h.Instrument(nil, true)
	h.Load(0, 0)
	h.Load(4096, 0)
	var s attr.Sample
	h.FillAttrSample(&s, 1)
	if s.OutstandingMisses != 2 {
		t.Errorf("OutstandingMisses = %d, want 2", s.OutstandingMisses)
	}
	if s.MSHROccupancy != 2 {
		t.Errorf("MSHROccupancy = %d, want 2", s.MSHROccupancy)
	}
	if s.MemBusBusy <= 0 || s.L1L2BusBusy <= 0 {
		t.Errorf("bus busy not recorded: %+v", s)
	}

	// Perfect mode has no hierarchy state; the sample stays zero.
	ph := mustNew(t, Config{Mode: Perfect})
	var ps attr.Sample
	ph.FillAttrSample(&ps, 1)
	if ps != (attr.Sample{}) {
		t.Errorf("perfect-mode sample non-zero: %+v", ps)
	}
}
