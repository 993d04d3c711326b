package cpu

import (
	"encoding/json"
	"reflect"
	"testing"

	"memwall/internal/attr"
	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/workload"
)

func attrHierarchy(t *testing.T, mode mem.Mode, mshrs int) *mem.Hierarchy {
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

// attrRun runs prog on both cores with attribution enabled and returns
// the records.
func attrRun(t *testing.T, cfg Config, h *mem.Hierarchy, insts []isa.Inst) (Result, *attr.RunRecord) {
	t.Helper()
	col := attr.New(attr.Options{Interval: 64}, cfg.IssueWidth)
	r, err := Run(cfg, h, insts, &Probe{Attr: col})
	if err != nil {
		t.Fatal(err)
	}
	return r, col.Record()
}

// Every run's ledger must settle to the exact slot identity, whatever
// the core type or stall mix.
func TestLedgerIdentityBothCores(t *testing.T) {
	// A pointer chase with branches: exercises operand, fetch, LS, and
	// (ooo) window stalls against a real hierarchy.
	var insts []isa.Inst
	for i := 0; i < 4000; i++ {
		addr := uint64(i*96) % (1 << 16)
		insts = append(insts,
			isa.Inst{Op: isa.Load, Dst: 1, Addr: addr},
			isa.Inst{Op: isa.IALU, Dst: 2, Src1: 1},
			isa.Inst{Op: isa.Load, Dst: 3, Addr: addr + 8192, Src1: 2},
			isa.Inst{Op: isa.FMul, Dst: 4, Src1: 3, Src2: 2},
			isa.Inst{Op: isa.Branch, PC: uint16(i), Taken: i%3 == 0},
		)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"inorder", inorderCfg()}, {"ooo", oooCfg()}} {
		t.Run(tc.name, func(t *testing.T) {
			r, rec := attrRun(t, tc.cfg, attrHierarchy(t, mem.Full, 4), insts)
			led := rec.Stalls
			if err := led.CheckIdentity(); err != nil {
				t.Fatal(err)
			}
			if led.Cycles != r.Cycles || led.UsefulSlots != r.Insts {
				t.Errorf("ledger closed with cycles=%d insts=%d, run had %d/%d",
					led.Cycles, led.UsefulSlots, r.Cycles, r.Insts)
			}
			// A memory-bound chase on a finite hierarchy must charge
			// some slots to memory causes, bandwidth among them: the
			// probe's collector turns on the hierarchy's
			// latency/bandwidth split, which attrHierarchy leaves off.
			if led.Slots["latency"]+led.Slots["bandwidth"] == 0 {
				t.Errorf("no memory-attributed slots: %v", led.Slots)
			}
			if led.Slots["bandwidth"] == 0 {
				t.Errorf("no bandwidth slots: the probe did not split load waits: %v", led.Slots)
			}
			// And the sampler must have recorded a time series ending
			// at the final cycle.
			ser := rec.Samples
			if ser.Len() == 0 {
				t.Fatal("no samples in record")
			}
			if last := ser.Cycle[ser.Len()-1]; last != r.Cycles {
				t.Errorf("final sample at cycle %d, run ended at %d", last, r.Cycles)
			}
			if ser.Insts[ser.Len()-1] != r.Insts {
				t.Errorf("final sample insts %d, want %d", ser.Insts[ser.Len()-1], r.Insts)
			}
		})
	}
}

// On a perfect memory system every stall is compute/frontend/structural:
// the ledger must charge nothing to latency or bandwidth.
func TestLedgerPerfectMemoryHasNoMemoryCauses(t *testing.T) {
	insts := repeat(2000,
		isa.Inst{Op: isa.Load, Dst: 1, Addr: 64},
		isa.Inst{Op: isa.FDiv, Dst: 2, Src1: 1},
		isa.Inst{Op: isa.IALU, Dst: 3, Src1: 2},
	)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"inorder", inorderCfg()}, {"ooo", oooCfg()}} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := mem.New(mem.Config{Mode: mem.Perfect})
			if err != nil {
				t.Fatal(err)
			}
			_, rec := attrRun(t, tc.cfg, h, insts)
			led := rec.Stalls
			if err := led.CheckIdentity(); err != nil {
				t.Fatal(err)
			}
			if led.Slots["bandwidth"] != 0 {
				t.Errorf("perfect memory charged bandwidth slots: %v", led.Slots)
			}
			// A one-cycle perfect load still leaves the dependent FDiv
			// waiting on compute latency, not memory.
			if led.Slots["compute"] == 0 {
				t.Errorf("dependence chain charged no compute slots: %v", led.Slots)
			}
		})
	}
}

// Attribution must not perturb the simulation: equal Result with the
// collector on and off, on a real workload through both cores.
func TestAttrDoesNotChangeResults(t *testing.T) {
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"inorder", inorderCfg()}, {"ooo", oooCfg()}} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Run(tc.cfg, attrHierarchy(t, mem.Full, 4), prog.Insts, nil)
			if err != nil {
				t.Fatal(err)
			}
			withAttr, err := Run(tc.cfg, attrHierarchy(t, mem.Full, 4), prog.Insts,
				&Probe{Attr: attr.New(attr.Options{Interval: 256}, tc.cfg.IssueWidth)})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, withAttr) {
				t.Errorf("attribution changed the result:\nbase %+v\nattr %+v", base, withAttr)
			}
		})
	}
}

// Records are a pure function of the simulated run: two identical runs
// serialise to identical bytes (the grid-level -j determinism guarantee
// reduces to this).
func TestAttrRecordDeterministic(t *testing.T) {
	prog, err := workload.Generate("eqntott", 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() []byte {
		col := attr.New(attr.Options{Interval: 512}, oooCfg().IssueWidth)
		if _, err := Run(oooCfg(), attrHierarchy(t, mem.Full, 4), prog.Insts, &Probe{Attr: col}); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(col.Record())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Error("identical runs produced different attribution records")
	}
}

// The disabled path must stay zero-cost: compare against
// BenchmarkRunAttrOn as telemetry does with BenchmarkRunTelemetry{Off,On}.
func BenchmarkRunAttrOff(b *testing.B) { benchAttr(b, false) }
func BenchmarkRunAttrOn(b *testing.B)  { benchAttr(b, true) }

func benchAttr(b *testing.B, enabled bool) {
	prog, err := workload.Generate("compress", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := oooCfg()
	for i := 0; i < b.N; i++ {
		h, err := mem.New(mem.Config{
			L1:              mem.LevelConfig{Size: 8 << 10, BlockSize: 32, Assoc: 1, AccessCycles: 1, MSHRs: 4},
			L2:              mem.LevelConfig{Size: 64 << 10, BlockSize: 64, Assoc: 4, AccessCycles: 10, MSHRs: 8},
			L1L2Bus:         mem.BusConfig{WidthBytes: 16, Ratio: 3},
			MemBus:          mem.BusConfig{WidthBytes: 8, Ratio: 3},
			MemAccessCycles: 30,
			Mode:            mem.Full,
		})
		if err != nil {
			b.Fatal(err)
		}
		var probe *Probe
		if enabled {
			probe = &Probe{Attr: attr.New(attr.Options{}, cfg.IssueWidth)}
		}
		if _, err := Run(cfg, h, prog.Insts, probe); err != nil {
			b.Fatal(err)
		}
	}
}
