package cpu

import (
	"testing"

	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/workload"
)

func TestRunMultiValidation(t *testing.T) {
	h := perfectHierarchy(t)
	if _, err := RunMulti(Config{}, []*mem.Hierarchy{h}, [][]isa.Inst{nil}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := RunMulti(inorderCfg(), []*mem.Hierarchy{h}, nil); err == nil {
		t.Error("no streams accepted")
	}
}

func TestRunMultiSingleCoreMatchesRun(t *testing.T) {
	p, err := workload.Generate("espresso", 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(oooCfg(), smallHierarchy(t, mem.Full, 8), p.Insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMulti(oooCfg(), []*mem.Hierarchy{smallHierarchy(t, mem.Full, 8)}, [][]isa.Inst{p.Insts})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cycles != single.Cycles {
		t.Errorf("single-core RunMulti %d cycles != Run %d", multi.Cycles, single.Cycles)
	}
	if multi.TotalInsts() != single.Insts {
		t.Errorf("instruction counts differ")
	}
}

func TestRunMultiBandwidthInterference(t *testing.T) {
	// The paper's Section 2.2 claim: cores sharing a package lose more
	// than proportionally. Two cores streaming through the shared
	// hierarchy must each run slower than one core alone.
	p, err := workload.Generate("swm", 1)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunMulti(oooCfg(), []*mem.Hierarchy{smallHierarchy(t, mem.Full, 8)}, [][]isa.Inst{p.Insts})
	if err != nil {
		t.Fatal(err)
	}
	// Second core runs the same kernel over a disjoint address range
	// (shift all data addresses) so the interference is pure bandwidth,
	// not sharing.
	shifted := make([]isa.Inst, len(p.Insts))
	copy(shifted, p.Insts)
	for i := range shifted {
		if shifted[i].Op.IsMem() {
			shifted[i].Addr += 1 << 28
		}
	}
	pair, err := RunMulti(oooCfg(), []*mem.Hierarchy{smallHierarchy(t, mem.Full, 8)},
		[][]isa.Inst{p.Insts, shifted})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Cycles <= alone.Cycles {
		t.Errorf("two cores (%d cycles) should be slower than one (%d)", pair.Cycles, alone.Cycles)
	}
	// Aggregate throughput must not double (bandwidth-bound).
	if pair.Throughput() >= 2*alone.Throughput()*0.98 {
		t.Errorf("throughput scaled perfectly (%.2f vs %.2f) — no bandwidth contention modelled?",
			pair.Throughput(), alone.Throughput())
	}
	// With this tiny shared L1 the aggregate can even dip below a single
	// core (shared-cache interference, which the paper also calls out) —
	// but it must not collapse entirely.
	if pair.Throughput() < alone.Throughput()/2 {
		t.Errorf("two-core throughput %.2f collapsed below half of single-core %.2f",
			pair.Throughput(), alone.Throughput())
	}
}

func TestRunMultiCoreResults(t *testing.T) {
	a := repeat(100, isa.Inst{Op: isa.IALU, Dst: 1})
	bs := repeat(200, isa.Inst{Op: isa.IALU, Dst: 2})
	res, err := RunMulti(inorderCfg(), []*mem.Hierarchy{perfectHierarchy(t)}, [][]isa.Inst{a, bs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("cores = %d", len(res.Cores))
	}
	if res.Cores[0].Insts != 100 || res.Cores[1].Insts != 200 {
		t.Errorf("per-core insts = %d, %d", res.Cores[0].Insts, res.Cores[1].Insts)
	}
	if res.Cycles < res.Cores[0].Cycles || res.Cycles < res.Cores[1].Cycles {
		t.Error("aggregate cycles below a core's")
	}
}
