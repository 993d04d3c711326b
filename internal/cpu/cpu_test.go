package cpu

import (
	"testing"

	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/workload"
)

func perfectHierarchy(t *testing.T) *mem.Hierarchy {
	t.Helper()
	h, err := mem.New(mem.Config{Mode: mem.Perfect})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func smallHierarchy(t *testing.T, mode mem.Mode, mshrs int) *mem.Hierarchy {
	t.Helper()
	h, err := mem.New(mem.Config{
		L1:              mem.LevelConfig{Size: 1 << 10, BlockSize: 32, Assoc: 1, AccessCycles: 1, MSHRs: mshrs},
		L2:              mem.LevelConfig{Size: 8 << 10, BlockSize: 64, Assoc: 4, AccessCycles: 10, MSHRs: 8},
		L1L2Bus:         mem.BusConfig{WidthBytes: 16, Ratio: 2},
		MemBus:          mem.BusConfig{WidthBytes: 8, Ratio: 2},
		MemAccessCycles: 30,
		Mode:            mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func inorderCfg() Config {
	return Config{IssueWidth: 4, LSUnits: 2, PredictorEntries: 1024, MispredictPenalty: 3}
}

func oooCfg() Config {
	return Config{IssueWidth: 4, LSUnits: 2, OutOfOrder: true, RUUSlots: 64,
		LSQEntries: 32, PredictorEntries: 1024, MispredictPenalty: 7}
}

func repeat(n int, insts ...isa.Inst) []isa.Inst {
	out := make([]isa.Inst, 0, n*len(insts))
	for i := 0; i < n; i++ {
		out = append(out, insts...)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := inorderCfg().Validate(); err != nil {
		t.Error(err)
	}
	if err := oooCfg().Validate(); err != nil {
		t.Error(err)
	}
	bad := inorderCfg()
	bad.IssueWidth = 0
	if bad.Validate() == nil {
		t.Error("zero issue width accepted")
	}
	bad2 := oooCfg()
	bad2.RUUSlots = 0
	if bad2.Validate() == nil {
		t.Error("zero RUU accepted")
	}
	bad3 := oooCfg()
	bad3.LSQEntries = 0
	if bad3.Validate() == nil {
		t.Error("zero LSQ accepted")
	}
	bad4 := inorderCfg()
	bad4.PredictorEntries = 0
	if bad4.Validate() == nil {
		t.Error("zero predictor accepted")
	}
	bad5 := inorderCfg()
	bad5.LSUnits = 0
	if bad5.Validate() == nil {
		t.Error("zero LS units accepted")
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	h := perfectHierarchy(t)
	if _, err := Run(Config{}, h, nil, nil); err == nil {
		t.Error("invalid config accepted by Run")
	}
}

func TestIndependentOpsReachIssueWidth(t *testing.T) {
	insts := repeat(2500,
		isa.Inst{Op: isa.IALU, Dst: 1},
		isa.Inst{Op: isa.IALU, Dst: 2},
		isa.Inst{Op: isa.IALU, Dst: 3},
		isa.Inst{Op: isa.IALU, Dst: 4},
	)
	for _, cfg := range []Config{inorderCfg(), oooCfg()} {
		r, err := Run(cfg, perfectHierarchy(t), insts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ipc := r.IPC(); ipc < 3.9 {
			t.Errorf("ooo=%v: independent-op IPC = %.2f, want ~4", cfg.OutOfOrder, ipc)
		}
	}
}

func TestSerialChainLimitsToOnePerCycle(t *testing.T) {
	insts := repeat(5000, isa.Inst{Op: isa.IALU, Dst: 1, Src1: 1})
	for _, cfg := range []Config{inorderCfg(), oooCfg()} {
		r, err := Run(cfg, perfectHierarchy(t), insts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ipc := r.IPC(); ipc > 1.01 {
			t.Errorf("ooo=%v: serial chain IPC = %.2f, want <= 1", cfg.OutOfOrder, ipc)
		}
	}
}

func TestFPLatencyChain(t *testing.T) {
	// A serial FDiv chain runs at 1/12 IPC.
	insts := repeat(2000, isa.Inst{Op: isa.FDiv, Dst: 33, Src1: 33})
	r, err := Run(oooCfg(), perfectHierarchy(t), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / float64(Latency(isa.FDiv))
	if ipc := r.IPC(); ipc > want*1.05 {
		t.Errorf("FDiv chain IPC = %.4f, want <= %.4f", ipc, want)
	}
}

func TestOoOToleratesMissUnderILP(t *testing.T) {
	// Alternate a missing load with many independent ALU ops: the OoO
	// core should hide far more of the miss latency than the in-order
	// core when the load result is consumed late.
	var insts []isa.Inst
	for i := 0; i < 600; i++ {
		insts = append(insts, isa.Inst{Op: isa.Load, Dst: 1, Addr: uint64(i) * 4096, PC: 4})
		for j := 0; j < 10; j++ {
			insts = append(insts, isa.Inst{Op: isa.IALU, Dst: isa.Reg(2 + j)})
		}
		insts = append(insts, isa.Inst{Op: isa.IALU, Dst: 2, Src1: 1}) // consume
	}
	rIn, err := Run(inorderCfg(), smallHierarchy(t, mem.Full, 8), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rOoO, err := Run(oooCfg(), smallHierarchy(t, mem.Full, 8), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rOoO.Cycles >= rIn.Cycles {
		t.Errorf("OoO (%d cycles) should beat in-order (%d) on miss-tolerant code", rOoO.Cycles, rIn.Cycles)
	}
}

func TestLockupFreeHelpsInOrder(t *testing.T) {
	// Back-to-back independent missing loads: a blocking cache
	// serialises them; a lockup-free cache overlaps them.
	var insts []isa.Inst
	for i := 0; i < 400; i++ {
		insts = append(insts, isa.Inst{Op: isa.Load, Dst: isa.Reg(1 + i%8), Addr: uint64(i) * 4096, PC: 4})
	}
	// A final consumer of everything so latency matters.
	insts = append(insts, isa.Inst{Op: isa.IALU, Dst: 9, Src1: 1, Src2: 2})
	blocking, err := Run(inorderCfg(), smallHierarchy(t, mem.Full, 1), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	lockup, err := Run(inorderCfg(), smallHierarchy(t, mem.Full, 8), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lockup.Cycles >= blocking.Cycles {
		t.Errorf("lockup-free (%d) should beat blocking (%d)", lockup.Cycles, blocking.Cycles)
	}
}

func TestMispredictsSlowExecution(t *testing.T) {
	// Random 50/50 branches vs perfectly-biased branches.
	mk := func(pattern func(i int) bool) []isa.Inst {
		var insts []isa.Inst
		for i := 0; i < 4000; i++ {
			insts = append(insts, isa.Inst{Op: isa.IALU, Dst: 1})
			insts = append(insts, isa.Inst{Op: isa.Branch, Src1: 1, Taken: pattern(i), PC: 8})
		}
		return insts
	}
	biased, err := Run(oooCfg(), perfectHierarchy(t), mk(func(int) bool { return true }), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pseudo-random pattern (xor-shift parity) the 2-bit counters cannot
	// learn.
	x := uint32(12345)
	random, err := Run(oooCfg(), perfectHierarchy(t), mk(func(int) bool {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x&1 == 1
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if random.Mispredicts <= biased.Mispredicts {
		t.Errorf("random mispredicts %d <= biased %d", random.Mispredicts, biased.Mispredicts)
	}
	if random.Cycles <= biased.Cycles {
		t.Errorf("random-branch run (%d) should be slower than biased (%d)", random.Cycles, biased.Cycles)
	}
}

func TestSmallerWindowIsSlower(t *testing.T) {
	// Long FP chains interleaved: a 4-entry window extracts less ILP
	// than a 64-entry one.
	var insts []isa.Inst
	for i := 0; i < 2000; i++ {
		insts = append(insts,
			isa.Inst{Op: isa.FMul, Dst: 33, Src1: 33},
			isa.Inst{Op: isa.IALU, Dst: 1},
			isa.Inst{Op: isa.IALU, Dst: 2},
			isa.Inst{Op: isa.IALU, Dst: 3},
		)
	}
	small := oooCfg()
	small.RUUSlots = 4
	big := oooCfg()
	rs, err := Run(small, perfectHierarchy(t), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(big, perfectHierarchy(t), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cycles <= rb.Cycles {
		t.Errorf("RUU=4 (%d cycles) should be slower than RUU=64 (%d)", rs.Cycles, rb.Cycles)
	}
}

func TestLSUnitsBound(t *testing.T) {
	// Pure independent loads: IPC capped by 2 LS units.
	var insts []isa.Inst
	for i := 0; i < 4000; i++ {
		insts = append(insts, isa.Inst{Op: isa.Load, Dst: isa.Reg(1 + i%16), Addr: uint64(i%64) * 4, PC: 4})
	}
	r, err := Run(oooCfg(), perfectHierarchy(t), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ipc := r.IPC(); ipc > 2.01 {
		t.Errorf("load-only IPC = %.2f exceeds 2 LS units", ipc)
	}
}

func TestResultCounts(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.Load, Dst: 1, Addr: 0x100, PC: 4},
		{Op: isa.Store, Src1: 1, Addr: 0x104, PC: 8},
		{Op: isa.Branch, Src1: 1, Taken: true, PC: 12},
		{Op: isa.IALU, Dst: 2},
	}
	r, err := Run(inorderCfg(), perfectHierarchy(t), insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts != 4 || r.Loads != 1 || r.Stores != 1 || r.Branches != 1 {
		t.Errorf("counts = %+v", r)
	}
	if r.CPI() <= 0 || r.IPC() <= 0 {
		t.Error("rates must be positive")
	}
}

func TestDeterminism(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 5000; i++ {
		insts = append(insts, isa.Inst{Op: isa.Load, Dst: isa.Reg(1 + i%8), Addr: uint64((i * 37) % 8192), PC: 4})
		insts = append(insts, isa.Inst{Op: isa.Branch, Src1: 1, Taken: i%3 == 0, PC: 8})
	}
	run := func() Result {
		r, _ := Run(oooCfg(), smallHierarchy(t, mem.Full, 8), insts, nil)
		return r
	}
	if run() != run() {
		t.Error("timing simulation not deterministic")
	}
}

func TestEmptyStream(t *testing.T) {
	r, err := Run(oooCfg(), perfectHierarchy(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts != 0 {
		t.Errorf("insts = %d", r.Insts)
	}
	if r.IPC() != 0 || r.CPI() != 0 {
		t.Error("empty-run rates should be 0")
	}
}

func TestSlotSchedWidth(t *testing.T) {
	s := newSlotSched(2)
	if s.reserve(10) != 10 || s.reserve(10) != 10 {
		t.Error("two slots at cycle 10 expected")
	}
	if s.reserve(10) != 11 {
		t.Error("third reservation must spill to 11")
	}
	// A later-program-order op can still claim an earlier free cycle.
	if s.reserve(5) != 5 {
		t.Error("earlier cycle should be reservable")
	}
}

func TestSlotSchedWindowSlide(t *testing.T) {
	s := newSlotSched(1)
	if s.reserve(0) != 0 {
		t.Fatal("first reservation")
	}
	// Far-future reservation forces a window slide.
	if got := s.reserve(100000); got != 100000 {
		t.Errorf("far reservation = %d", got)
	}
	// Behind-the-window reservation is granted in place (see
	// TestSlotSchedBehindWindowGrant).
	if got := s.reserve(0); got != 0 {
		t.Errorf("past reservation = %d, want 0", got)
	}
}

func TestLatencyTable(t *testing.T) {
	if Latency(isa.IALU) != 1 || Latency(isa.FDiv) <= Latency(isa.FMul) {
		t.Error("latency table implausible")
	}
}

func TestWiderIssueNeverSlower(t *testing.T) {
	p, err := workload.Generate("espresso", 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = 1 << 62
	for _, width := range []int{1, 2, 4, 8} {
		cfg := oooCfg()
		cfg.IssueWidth = width
		r, err := Run(cfg, perfectHierarchy(t), p.Insts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles > prev {
			t.Errorf("width %d slower than narrower: %d > %d", width, r.Cycles, prev)
		}
		prev = r.Cycles
	}
}

func TestLargerWindowNeverSlowerOnPerfectMemory(t *testing.T) {
	p, err := workload.Generate("li", 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = 1 << 62
	for _, ruu := range []int{4, 16, 64, 256} {
		cfg := oooCfg()
		cfg.RUUSlots = ruu
		cfg.LSQEntries = ruu / 2
		r, err := Run(cfg, perfectHierarchy(t), p.Insts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles > prev {
			t.Errorf("RUU %d slower than smaller: %d > %d", ruu, r.Cycles, prev)
		}
		prev = r.Cycles
	}
}

func TestSlotSchedBehindWindowGrant(t *testing.T) {
	// Regression: a reservation behind the window start used to be
	// clamped to the window's first cycle and booked there, charging a
	// long-past issue against current-cycle capacity. It must instead be
	// granted in place — slots that far behind the dispatch point are
	// free — without booking anything.
	s := newSlotSched(1)
	if got := s.reserve(100000); got != 100000 {
		t.Fatalf("far reservation = %d", got)
	}
	if got := s.reserve(s.base - 100); got != s.base-100 {
		t.Errorf("behind-window reservation = %d, want %d", got, s.base-100)
	}
	if got := s.reserve(s.base); got != s.base {
		t.Errorf("window-start reservation = %d, want %d (capacity leaked from the clamp)", got, s.base)
	}
}

func TestSlotSchedSlideKeepsRecentOccupancy(t *testing.T) {
	// A window slide must carry occupancy within slideKeep cycles of the
	// new base: reservations cluster behind the dispatch point, and
	// forgetting them would over-issue after every slide.
	s := newSlotSched(1)
	booked := int64(len(s.count)) - 200 // near the window's far edge
	if got := s.reserve(booked); got != booked {
		t.Fatalf("edge reservation = %d, want %d", got, booked)
	}
	trigger := int64(len(s.count)) // one past the window: forces a slide
	if got := s.reserve(trigger); got != trigger {
		t.Fatalf("slide-triggering reservation = %d, want %d", got, trigger)
	}
	if booked < s.base {
		t.Fatalf("test setup: booked cycle %d slid out of the window (base %d)", booked, s.base)
	}
	// The pre-slide booking survived: a second claim must spill.
	if got := s.reserve(booked); got != booked+1 {
		t.Errorf("re-reservation = %d, want %d (occupancy lost in slide)", got, booked+1)
	}
}

func TestStepSteadyStateAllocs(t *testing.T) {
	// The out-of-order step path must not allocate once warm; allocation
	// in the per-instruction loop would dominate a Figure 3 sweep.
	h := smallHierarchy(t, mem.Full, 8)
	p := newOutOfOrder(oooCfg(), h)
	insts := repeat(64,
		isa.Inst{Op: isa.Load, Dst: 1, Addr: 0x100, PC: 1},
		isa.Inst{Op: isa.IALU, Dst: 2, Src1: 1, PC: 2},
		isa.Inst{Op: isa.Store, Src1: 2, Addr: 0x2000, PC: 3},
		isa.Inst{Op: isa.Branch, Src1: 2, Taken: true, PC: 4},
	)
	var res Result
	run := func() {
		for i := range insts {
			p.step(&insts[i], &res)
		}
	}
	run() // warm: first misses populate the fill tables
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Errorf("outOfOrder.step steady state allocates %.1f times per run", n)
	}
}

func TestDrainSteadyStateAllocs(t *testing.T) {
	// Same guarantee for the fused drain, which Run takes for every run
	// without an attribution collector, heartbeat or not, on both cores.
	insts := repeat(64,
		isa.Inst{Op: isa.Load, Dst: 1, Addr: 0x100, PC: 1},
		isa.Inst{Op: isa.IALU, Dst: 2, Src1: 1, PC: 2},
		isa.Inst{Op: isa.Store, Src1: 2, Addr: 0x2000, PC: 3},
		isa.Inst{Op: isa.Branch, Src1: 2, Taken: true, PC: 4},
	)
	var res Result
	in := newInOrder(inorderCfg(), smallHierarchy(t, mem.Full, 8))
	ooo := newOutOfOrder(oooCfg(), smallHierarchy(t, mem.Full, 8))
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"inOrder", func() { in.drain(insts, &res) }},
		{"outOfOrder", func() { ooo.drain(insts, &res) }},
	} {
		tc.run() // warm: first misses populate the fill tables
		if n := testing.AllocsPerRun(20, tc.run); n != 0 {
			t.Errorf("%s.drain steady state allocates %.1f times per run", tc.name, n)
		}
	}
}
