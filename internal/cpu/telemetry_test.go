package cpu

import (
	"reflect"
	"testing"

	"memwall/internal/attr"
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

// beatLog records a run's heartbeat deltas.
type beatLog struct {
	insts, cycles []int64
}

func (l *beatLog) probe() *Probe {
	return &Probe{Progress: func(insts, cycles int64) {
		l.insts = append(l.insts, insts)
		l.cycles = append(l.cycles, cycles)
	}}
}

// TestRunHeartbeat drives the heartbeat through the chunked drain that
// every run without a collector takes: one beat per ProgressEvery
// retired instructions, each with an instruction delta of exactly
// ProgressEvery, then the final flush, on both cores.
func TestRunHeartbeat(t *testing.T) {
	// One materialised slice spanning five heartbeat periods (about
	// 126 MB), shared by every case; the shorter cases are prefixes.
	insts := repeat(5*ProgressEvery, isa.Inst{Op: isa.IALU, Dst: 1})
	for _, core := range []struct {
		name string
		cfg  Config
	}{{"inorder", inorderCfg()}, {"ooo", oooCfg()}} {
		for _, tc := range []struct {
			name  string
			n     int
			beats int // periodic beats plus the final flush
		}{
			{"5periods", 5 * ProgressEvery, 6},
			{"2periods+17", 2*ProgressEvery + 17, 3},
			{"empty", 0, 1},
		} {
			t.Run(core.name+"/"+tc.name, func(t *testing.T) {
				var log beatLog
				res, err := Run(core.cfg, perfectHierarchy(t), insts[:tc.n], log.probe())
				if err != nil {
					t.Fatal(err)
				}
				if len(log.insts) != tc.beats {
					t.Fatalf("beats = %d, want %d", len(log.insts), tc.beats)
				}
				var totalInsts, totalCycles int64
				for i := range log.insts {
					if log.insts[i] < 0 || log.cycles[i] < 0 {
						t.Errorf("beat %d: negative delta: %d insts, %d cycles", i, log.insts[i], log.cycles[i])
					}
					if i < tc.beats-1 && log.insts[i] != ProgressEvery {
						t.Errorf("periodic beat %d: %d insts, want %d", i, log.insts[i], ProgressEvery)
					}
					totalInsts += log.insts[i]
					totalCycles += log.cycles[i]
				}
				if want := int64(tc.n % ProgressEvery); log.insts[tc.beats-1] != want {
					t.Errorf("final beat: %d insts, want %d", log.insts[tc.beats-1], want)
				}
				if totalInsts != res.Insts || res.Insts != int64(tc.n) {
					t.Errorf("heartbeat insts = %d, result %d, want %d", totalInsts, res.Insts, tc.n)
				}
				if totalCycles != res.Cycles {
					t.Errorf("heartbeat cycles = %d, want %d", totalCycles, res.Cycles)
				}
			})
		}
	}
}

// TestHeartbeatChunksMatchStep: chunking the drain at beats changes
// nothing a run computes. Over a real trace that crosses two beats, a
// heartbeat-only run (chunked drain) returns the nil-probe result, and
// beats at the same instruction counts with the same cycles as a run
// that also carries a collector, which steps one instruction at a time.
func TestHeartbeatChunksMatchStep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation over two heartbeat periods")
	}
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	var insts []isa.Inst
	for len(insts) <= 2*ProgressEvery {
		insts = append(insts, prog.Insts...)
	}
	for _, core := range []struct {
		name string
		cfg  Config
	}{{"inorder", inorderCfg()}, {"ooo", oooCfg()}} {
		t.Run(core.name, func(t *testing.T) {
			base, err := Run(core.cfg, smallHierarchy(t, mem.Full, 4), insts, nil)
			if err != nil {
				t.Fatal(err)
			}
			var drained, stepped beatLog
			chunked, err := Run(core.cfg, smallHierarchy(t, mem.Full, 4), insts, drained.probe())
			if err != nil {
				t.Fatal(err)
			}
			sp := stepped.probe()
			sp.Attr = attr.New(attr.Options{Interval: 1 << 16}, core.cfg.IssueWidth)
			step, err := Run(core.cfg, smallHierarchy(t, mem.Full, 4), insts, sp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, chunked) || !reflect.DeepEqual(base, step) {
				t.Errorf("results differ:\nnil probe %+v\nheartbeat %+v\ncollector %+v", base, chunked, step)
			}
			if len(drained.insts) != 3 {
				t.Errorf("chunked drain beat %d times, want 3", len(drained.insts))
			}
			if !reflect.DeepEqual(drained, stepped) {
				t.Errorf("beats differ:\nchunked drain %+v\nstep loop     %+v", drained, stepped)
			}
		})
	}
}

// The zero-cost contract end to end: a timing run with no telemetry
// configured must cost (within noise) the same as before the telemetry
// layer existed. Compare the Off and On pairs per core with
// `go test -bench=RunTelemetry`; the On runs carry a heartbeat, so they
// take the same chunked drain as the Off runs.
func benchmarkRun(b *testing.B, cfg Config, probe *Probe) {
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
		if _, err := Run(cfg, h, prog.Insts, probe); err != nil {
			b.Fatal(err)
		}
	}
}

func telemetryOn() *Probe {
	return &Probe{
		Metrics:  telemetry.NewRegistry(),
		Progress: func(insts, cycles int64) {},
	}
}

func BenchmarkRunTelemetryOff(b *testing.B) {
	benchmarkRun(b, inorderCfg(), nil)
}

func BenchmarkRunTelemetryOn(b *testing.B) {
	benchmarkRun(b, inorderCfg(), telemetryOn())
}

func BenchmarkRunTelemetryOffOOO(b *testing.B) {
	benchmarkRun(b, oooCfg(), nil)
}

func BenchmarkRunTelemetryOnOOO(b *testing.B) {
	benchmarkRun(b, oooCfg(), telemetryOn())
}
