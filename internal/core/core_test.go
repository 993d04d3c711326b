package core

import (
	"math"
	"testing"

	"memwall/internal/cache"
	"memwall/internal/mtc"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

func TestDecompositionFractions(t *testing.T) {
	d := Decomposition{TP: 50, TI: 70, T: 100}
	if d.FP() != 0.5 || d.FL() != 0.2 || math.Abs(d.FB()-0.3) > 1e-12 {
		t.Errorf("fractions = %v %v %v", d.FP(), d.FL(), d.FB())
	}
	if sum := d.FP() + d.FL() + d.FB(); math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v", sum)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDecompositionValidate(t *testing.T) {
	if (Decomposition{TP: 0, TI: 1, T: 1}).Validate() == nil {
		t.Error("zero TP accepted")
	}
	if (Decomposition{TP: 10, TI: 5, T: 20}).Validate() == nil {
		t.Error("TI < TP accepted")
	}
	if (Decomposition{TP: 5, TI: 10, T: 8}).Validate() == nil {
		t.Error("T < TI accepted")
	}
	if (Decomposition{TP: 1, TI: 1, T: 1}).String() == "" {
		t.Error("empty String")
	}
}

func TestTrafficRatio(t *testing.T) {
	if TrafficRatio(50, 100) != 0.5 {
		t.Error("ratio math")
	}
	if TrafficRatio(50, 0) != 0 {
		t.Error("zero denominator must yield 0")
	}
}

func TestEffectivePinBandwidth(t *testing.T) {
	// R = 0.5 doubles effective bandwidth (Equation 5).
	if got := EffectivePinBandwidth(800, 0.5); got != 1600 {
		t.Errorf("E_pin = %v, want 1600", got)
	}
	// Multi-level: R1=0.5, R2=0.5 quadruples it.
	if got := EffectivePinBandwidth(800, 0.5, 0.5); got != 3200 {
		t.Errorf("E_pin two-level = %v", got)
	}
	if EffectivePinBandwidth(800, 0) != 0 {
		t.Error("zero ratio must yield 0")
	}
}

func TestInefficiency(t *testing.T) {
	if Inefficiency(100, 10) != 10 {
		t.Error("G math")
	}
	if Inefficiency(100, 0) != 0 {
		t.Error("zero MTC traffic must yield 0")
	}
}

func TestOptimalEffectivePinBandwidth(t *testing.T) {
	// OE_pin = B * G / R (Equation 7).
	got := OptimalEffectivePinBandwidth(800, []float64{10}, []float64{0.5})
	if got != 16000 {
		t.Errorf("OE_pin = %v, want 16000", got)
	}
	if OptimalEffectivePinBandwidth(800, nil, []float64{0}) != 0 {
		t.Error("zero ratio must yield 0")
	}
}

func TestMeasureRatioSequentialStream(t *testing.T) {
	// Sequential read stream: R = 1.0 exactly for any clean cache.
	var refs []trace.Ref
	for i := 0; i < 8192; i++ {
		refs = append(refs, trace.Ref{Kind: trace.Read, Addr: uint64(i) * 4})
	}
	cfg := cache.Config{Size: 1 << 10, BlockSize: 32, Assoc: 1}
	res, err := MeasureRatio(cfg, trace.NewSliceStream(refs), int64(len(refs)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.R != 1.0 {
		t.Errorf("sequential R = %v, want 1.0", res.R)
	}
	if res.FitsDataSet {
		t.Error("FitsDataSet with no data-set size")
	}
}

func TestMeasureRatioFitsDataSet(t *testing.T) {
	refs := []trace.Ref{{Kind: trace.Read, Addr: 4}}
	cfg := cache.Config{Size: 1 << 20, BlockSize: 32, Assoc: 1}
	res, err := MeasureRatio(cfg, trace.NewSliceStream(refs), 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FitsDataSet {
		t.Error("1MB cache should be flagged for a 1KB data set")
	}
}

func TestMeasureInefficiencyGEOne(t *testing.T) {
	// For any trace, a conventional cache cannot beat the canonical MTC
	// by much; for this random-probe trace G must comfortably exceed 1.
	p, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.Config{Size: 16 << 10, BlockSize: 32, Assoc: 1}
	res, err := MeasureInefficiency(cfg, p.MemRefs(), p.DataSetBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.G <= 1 {
		t.Errorf("compress G = %v, want > 1", res.G)
	}
	if res.CacheTraffic <= res.MTCTraffic {
		t.Error("cache traffic should exceed MTC traffic")
	}
}

func TestFactorsSpecs(t *testing.T) {
	specs := Factors(64 << 10)
	if len(specs) != 5 {
		t.Fatalf("want 5 factor rows, got %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.Exp1.Label == "" || s.Exp2.Label == "" {
			t.Errorf("factor %s missing labels", s.Name)
		}
		if s.Exp1.Cache == nil && s.Exp1.MTC == nil {
			t.Errorf("factor %s exp1 selects nothing", s.Name)
		}
	}
	for _, want := range []string{"Associativity", "Replacement", "Blocksize (cache)", "Blocksize (MTC)", "Write validate"} {
		if !names[want] {
			t.Errorf("missing factor %q", want)
		}
	}
}

func TestMeasureFactorDirections(t *testing.T) {
	// On the compress surrogate every factor should be non-negative:
	// each Exp2 is the "better" configuration.
	p, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	size := 16 << 10
	ref, err := mtc.Simulate(mtc.Config{Size: size, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}, p.MemRefs())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Factors(size) {
		res, err := MeasureFactor(spec, p.MemRefs(), ref.TrafficBytes())
		if err != nil {
			t.Fatal(err)
		}
		if res.DeltaG < -0.5 {
			t.Errorf("factor %s strongly negative (%.2f): exp2 should not be much worse", spec.Name, res.DeltaG)
		}
	}
}

func TestFactorConfigErrors(t *testing.T) {
	var fc FactorConfig
	if _, err := fc.traffic(trace.NewSliceStream(nil)); err == nil {
		t.Error("empty factor config accepted")
	}
}

func TestMachinesShape(t *testing.T) {
	for _, suite := range []workload.Suite{workload.SPEC92, workload.SPEC95} {
		ms := Machines(suite)
		if len(ms) != 6 {
			t.Fatalf("%v: %d machines", suite, len(ms))
		}
		names := "ABCDEF"
		for i, m := range ms {
			if m.Name != string(names[i]) {
				t.Errorf("machine %d named %s", i, m.Name)
			}
			if err := m.CPU.Validate(); err != nil {
				t.Errorf("machine %s CPU: %v", m.Name, err)
			}
		}
		// A and B are blocking and in-order; D-F are OoO.
		if ms[0].Mem.L1.MSHRs != 1 || ms[1].Mem.L1.MSHRs != 1 {
			t.Error("A/B must have blocking caches")
		}
		if ms[2].Mem.L1.MSHRs <= 1 {
			t.Error("C must be lockup-free")
		}
		if ms[0].CPU.OutOfOrder || !ms[3].CPU.OutOfOrder {
			t.Error("in-order/OoO split wrong")
		}
		// B doubles the block sizes.
		if ms[1].Mem.L1.BlockSize != 2*ms[0].Mem.L1.BlockSize {
			t.Error("B should double L1 blocks")
		}
		// E and F prefetch; D does not.
		if ms[3].Mem.TaggedPrefetch || !ms[4].Mem.TaggedPrefetch || !ms[5].Mem.TaggedPrefetch {
			t.Error("prefetch assignment wrong")
		}
		// F has a larger window than D.
		if ms[5].CPU.RUUSlots <= ms[3].CPU.RUUSlots {
			t.Error("F should enlarge the RUU")
		}
	}
}

func TestMachinesSuiteDifferences(t *testing.T) {
	m92 := Machines(workload.SPEC92)[0]
	m95 := Machines(workload.SPEC95)[0]
	if m95.Mem.L2.Size <= m92.Mem.L2.Size {
		t.Error("SPEC95 L2 should be larger (2MB vs 1MB)")
	}
	if m95.CPU.PredictorEntries <= m92.CPU.PredictorEntries {
		t.Error("SPEC95 predictor should be larger")
	}
	if m95.Mem.L1L2Bus.Ratio != 4 || m92.Mem.L1L2Bus.Ratio != 3 {
		t.Error("bus/clock ratios wrong")
	}
	f95 := Machines(workload.SPEC95)[5]
	if f95.ClockMHz != 600 {
		t.Errorf("SPEC95 F clock = %d, want 600", f95.ClockMHz)
	}
}

func TestMachinesScaled(t *testing.T) {
	unscaled := Machines(workload.SPEC92)[0]
	scaled := MachinesScaled(workload.SPEC92, 16)[0]
	if scaled.Mem.L1.Size != unscaled.Mem.L1.Size/16 {
		t.Errorf("scaled L1 = %d", scaled.Mem.L1.Size)
	}
	if scaled.Mem.L2.Size != unscaled.Mem.L2.Size/16 {
		t.Errorf("scaled L2 = %d", scaled.Mem.L2.Size)
	}
	// Extreme scaling clamps to a sensible minimum.
	tiny := MachinesScaled(workload.SPEC92, 1<<20)[0]
	if tiny.Mem.L1.Size < 8*tiny.Mem.L1.BlockSize {
		t.Error("L1 clamped below 8 blocks")
	}
}

func TestMachineByName(t *testing.T) {
	m, err := MachineByName(workload.SPEC92, "D", 1)
	if err != nil || m.Name != "D" {
		t.Errorf("MachineByName: %v %v", m, err)
	}
	if _, err := MachineByName(workload.SPEC92, "Z", 1); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestTimingBenchmarksOmitDnasa2(t *testing.T) {
	for _, n := range Figure3Benchmarks(workload.SPEC92) {
		if n == "dnasa2" {
			t.Error("dnasa2 must not appear in the Figure 3 SPEC92 panel")
		}
	}
}

func TestNsToCycles(t *testing.T) {
	if nsToCycles(30, 300) != 9 {
		t.Errorf("30ns @300MHz = %d, want 9", nsToCycles(30, 300))
	}
	if nsToCycles(90, 300) != 27 {
		t.Error("90ns @300MHz should be 27")
	}
	if nsToCycles(30, 400) != 12 {
		t.Error("30ns @400MHz should be 12")
	}
	// Rounds up.
	if nsToCycles(10, 350) != 4 {
		t.Errorf("10ns @350MHz = %d, want 4 (3.5 rounded up)", nsToCycles(10, 350))
	}
}

func TestDecomposeInvariants(t *testing.T) {
	p, err := workload.Generate("espresso", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range []workload.Suite{workload.SPEC92} {
		for _, m := range MachinesScaled(suite, 16) {
			res, err := Decompose(m, p.Stream())
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			if err := res.Validate(); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
			if res.Full.Insts != int64(len(p.Insts)) {
				t.Errorf("%s: simulated %d of %d insts", m.Name, res.Full.Insts, len(p.Insts))
			}
			sum := res.FP() + res.FL() + res.FB()
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: fractions sum %v", m.Name, sum)
			}
		}
	}
}

func TestFigure3Integration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	var progs []*workload.Program
	for _, name := range []string{"espresso", "su2cor"} {
		p, err := workload.Generate(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	cells, err := Figure3(workload.SPEC92, progs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("cells = %d, want 2 benchmarks x 6 experiments", len(cells))
	}
	// Experiment A normalised time must be >= 1 (T >= T_P).
	for _, c := range cells {
		if c.Experiment == "A" && c.NormTime < 1 {
			t.Errorf("%s/A normalised time %v < 1", c.Benchmark, c.NormTime)
		}
	}
	// The paper's thesis: f_B grows from A to F for the bandwidth-bound
	// su2cor.
	var fbA, fbF float64
	for _, c := range cells {
		if c.Benchmark == "su2cor" {
			switch c.Experiment {
			case "A":
				fbA = c.Result.FB()
			case "F":
				fbF = c.Result.FB()
			}
		}
	}
	if fbF <= fbA {
		t.Errorf("su2cor f_B did not grow: A=%.2f F=%.2f", fbA, fbF)
	}
}

func TestDecomposeBuses(t *testing.T) {
	if testing.Short() {
		t.Skip("timing runs")
	}
	p, err := workload.Generate("su2cor", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MachineByName(workload.SPEC92, "F", 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecomposeBuses(m, p.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Error(err)
	}
	// Removing a bus constraint can only help.
	if res.TMemInf > res.T || res.TL12Inf > res.T {
		t.Errorf("bus-infinite runs slower than full: %+v", res)
	}
	// Each attributed component lies within [0, f_B + small residual].
	for _, f := range []float64{res.FBMemBus(), res.FBL12Bus()} {
		if f < 0 || f > res.FB()+0.1 {
			t.Errorf("component %v outside [0, f_B]", f)
		}
	}
	// su2cor at cachescale 16 is L1/L2-bus-bound (its conflicts thrash
	// within an L2-resident working set).
	if res.FBL12Bus() <= res.FBMemBus() {
		t.Errorf("expected L1/L2 bus to dominate for su2cor: mem %v vs l12 %v",
			res.FBMemBus(), res.FBL12Bus())
	}
}

func TestDecomposeBusesStreamingIsMemBusBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing runs")
	}
	p, err := workload.Generate("swm", 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MachineByName(workload.SPEC92, "F", 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecomposeBuses(m, p.Stream())
	if err != nil {
		t.Fatal(err)
	}
	// swm streams through the scaled L2, so the pin-side (memory) bus
	// dominates — the paper's central bottleneck.
	if res.FBMemBus() <= res.FBL12Bus() {
		t.Errorf("expected memory bus to dominate for swm: mem %v vs l12 %v",
			res.FBMemBus(), res.FBL12Bus())
	}
}
