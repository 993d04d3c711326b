package cpu

import (
	"testing"

	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/telemetry"
	"memwall/internal/workload"
)

// A load followed immediately by a dependent use must register operand
// stall cycles on a slow hierarchy.
func TestInOrderOperandStalls(t *testing.T) {
	h := smallHierarchy(t, mem.Full, 1)
	prog := repeat(64,
		isa.Inst{Op: isa.Load, Dst: 3, Addr: 0x10000},
		isa.Inst{Op: isa.IALU, Src1: 3, Dst: 4},
	)
	// Spread loads over distinct blocks so they miss.
	for i := range prog {
		if prog[i].Op == isa.Load {
			prog[i].Addr = uint64(0x10000 + 64*i)
		}
	}
	res, err := Run(inorderCfg(), h, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallOperand == 0 {
		t.Error("dependent loads on a missing hierarchy produced no operand stalls")
	}
	total := res.StallFetch + res.StallOperand + res.StallLS + res.StallWindow
	if total >= res.Cycles {
		t.Errorf("stall cycles %d exceed execution time %d", total, res.Cycles)
	}
	if res.StallWindow != 0 {
		t.Error("in-order core reported window stalls")
	}
}

func TestInOrderFetchStalls(t *testing.T) {
	h := perfectHierarchy(t)
	// Alternate taken/not-taken on one PC so the predictor stays wrong
	// roughly half the time.
	var prog []isa.Inst
	for i := 0; i < 256; i++ {
		prog = append(prog, isa.Inst{Op: isa.Branch, PC: 0x40, Taken: i%2 == 0})
	}
	res, err := Run(inorderCfg(), h, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mispredicts == 0 {
		t.Fatal("alternating branch never mispredicted")
	}
	if res.StallFetch == 0 {
		t.Error("mispredicts produced no fetch stalls")
	}
}

func TestInOrderLSStructuralStalls(t *testing.T) {
	h := perfectHierarchy(t)
	// Four independent stores per cycle against two LS units.
	prog := repeat(128, isa.Inst{Op: isa.Store, Addr: 0x100})
	res, err := Run(inorderCfg(), h, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallLS == 0 {
		t.Error("LS-unit oversubscription produced no structural stalls")
	}
}

func TestOOOWindowStalls(t *testing.T) {
	h := smallHierarchy(t, mem.Full, 8)
	cfg := oooCfg()
	cfg.RUUSlots, cfg.LSQEntries = 4, 2 // tiny window
	var prog []isa.Inst
	for i := 0; i < 256; i++ {
		prog = append(prog, isa.Inst{Op: isa.Load, Dst: 3, Addr: uint64(0x20000 + 64*i)})
	}
	res, err := Run(cfg, h, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallWindow == 0 {
		t.Error("tiny RUU over a missing load stream produced no window stalls")
	}
}

func TestRunPublishesMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := smallHierarchy(t, mem.Full, 1)
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(inorderCfg(), h, prog.Insts, &Probe{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cpu.insts_retired"]; got != res.Insts {
		t.Errorf("cpu.insts_retired = %d, want %d", got, res.Insts)
	}
	if got := snap.Counters["mem.l1.misses"]; got != res.Mem.L1Misses {
		t.Errorf("mem.l1.misses = %d, want %d", got, res.Mem.L1Misses)
	}
	if snap.Counters["mem.bus.mem_busy_cycles"] == 0 {
		t.Error("memory bus busy cycles not published")
	}
	if u := snap.Gauges["mem.bus.mem_utilization"]; u <= 0 || u > 1 {
		t.Errorf("mem bus utilization gauge %v outside (0, 1]", u)
	}
	if ipc := snap.Gauges["cpu.ipc"]; ipc <= 0 {
		t.Errorf("ipc gauge = %v", ipc)
	}
}

func TestRunHeartbeat(t *testing.T) {
	var beats int
	var totalInsts, totalCycles int64
	probe := &Probe{Progress: func(insts, cycles int64) {
		beats++
		totalInsts += insts
		totalCycles += cycles
		if insts < 0 || cycles < 0 {
			t.Errorf("negative progress delta: %d insts, %d cycles", insts, cycles)
		}
	}}
	// A materialised slice spanning five heartbeat periods (about 126 MB),
	// so beats fire inside the slice loop that serve and -progress take.
	insts := repeat(5*ProgressEvery, isa.Inst{Op: isa.IALU, Dst: 1})
	res, err := Run(inorderCfg(), perfectHierarchy(t), insts, probe)
	if err != nil {
		t.Fatal(err)
	}
	// 5 periodic beats plus the final flush.
	if beats < 5 {
		t.Errorf("beats = %d, want >= 5", beats)
	}
	if totalInsts != res.Insts {
		t.Errorf("heartbeat insts = %d, want %d", totalInsts, res.Insts)
	}
	if totalCycles != res.Cycles {
		t.Errorf("heartbeat cycles = %d, want %d", totalCycles, res.Cycles)
	}
}

// The zero-cost contract end to end: a timing run with no telemetry
// configured must cost (within noise) the same as before the telemetry
// layer existed. Compare these two with `go test -bench=RunTelemetry`;
// the acceptance bar is <2% overhead for the Off case versus On.
func benchmarkRun(b *testing.B, probe *Probe) {
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := mem.New(mem.Config{
			L1:              mem.LevelConfig{Size: 8 << 10, BlockSize: 32, Assoc: 1, AccessCycles: 1, MSHRs: 8},
			L2:              mem.LevelConfig{Size: 64 << 10, BlockSize: 64, Assoc: 4, AccessCycles: 10, MSHRs: 8},
			L1L2Bus:         mem.BusConfig{WidthBytes: 16, Ratio: 3},
			MemBus:          mem.BusConfig{WidthBytes: 8, Ratio: 3},
			MemAccessCycles: 30,
			Mode:            mem.Full,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(inorderCfg(), h, prog.Insts, probe); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTelemetryOff(b *testing.B) {
	benchmarkRun(b, nil)
}

func BenchmarkRunTelemetryOn(b *testing.B) {
	benchmarkRun(b, &Probe{
		Metrics:  telemetry.NewRegistry(),
		Progress: func(insts, cycles int64) {},
	})
}
