package vm

import (
	"strings"
	"testing"

	"memwall/internal/cpu"
	"memwall/internal/isa"
	"memwall/internal/mem"
)

func mustExec(t *testing.T, src string, init map[uint64]int64) *Machine {
	t.Helper()
	m, err := Execute(src, init, 1_000_000)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return m
}

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(`
		; a comment
		li r1, 42        # another comment style
		nop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 3 {
		t.Fatalf("insts = %d", len(p.Insts))
	}
	if p.Insts[0].Op != OpLi || p.Insts[0].Imm != 42 {
		t.Errorf("first inst = %+v", p.Insts[0])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",        // unknown mnemonic
		"li r99, 1",           // bad register
		"li r1",               // missing operand
		"add r1, r2",          // wrong arity
		"lw r1, r2",           // bad memory operand
		"beq r1, r2, nowhere", // undefined label
		"x: x: nop",           // duplicate label
		"1bad: nop",           // bad label
		"li r1, zork",         // bad immediate
		"nop r1",              // operands on nullary op
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembled %q without error", src)
		}
	}
}

func TestArithmetic(t *testing.T) {
	m := mustExec(t, `
		li r1, 21
		li r2, 2
		mul r3, r1, r2     ; 42
		addi r4, r3, -2    ; 40
		sub r5, r3, r4     ; 2
		div r6, r3, r5     ; 21
		and r7, r3, r5     ; 2
		or  r8, r1, r2     ; 23
		xor r9, r1, r1     ; 0
		sll r10, r2, r5    ; 8
		srl r11, r10, r5   ; 2
		slt r12, r1, r3    ; 1
		halt
	`, nil)
	want := map[int]int64{3: 42, 4: 40, 5: 2, 6: 21, 7: 2, 8: 23, 9: 0, 10: 8, 11: 2, 12: 1}
	for r, v := range want {
		if m.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.Regs[r], v)
		}
	}
}

func TestR0Hardwired(t *testing.T) {
	m := mustExec(t, `
		li r0, 99
		addi r0, r0, 5
		add r1, r0, r0
		halt
	`, nil)
	if m.Regs[0] != 0 || m.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d; r0 must stay 0", m.Regs[0], m.Regs[1])
	}
}

func TestLoadStore(t *testing.T) {
	m := mustExec(t, `
		li r1, 0x1000
		lw r2, 0(r1)
		lw r3, 4(r1)
		add r4, r2, r3
		sw r4, 8(r1)
		halt
	`, map[uint64]int64{0x1000: 7, 0x1004: 35})
	if m.Word(0x1008) != 42 {
		t.Errorf("mem[0x1008] = %d, want 42", m.Word(0x1008))
	}
}

func TestLoopSum(t *testing.T) {
	// Sum 1..100 with a counted loop.
	m := mustExec(t, `
		li r1, 100
		li r2, 0
	loop:	add r2, r2, r1
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`, nil)
	if m.Regs[2] != 5050 {
		t.Errorf("sum = %d, want 5050", m.Regs[2])
	}
}

func TestBranchVariants(t *testing.T) {
	m := mustExec(t, `
		li r1, 5
		li r2, 5
		beq r1, r2, eq
		li r10, 1        ; skipped
	eq:	li r3, -1
		blt r3, r0, lt
		li r11, 1        ; skipped
	lt:	bge r0, r3, ge
		li r12, 1        ; skipped
	ge:	j end
		li r13, 1        ; skipped
	end:	halt
	`, nil)
	for _, r := range []int{10, 11, 12, 13} {
		if m.Regs[r] != 0 {
			t.Errorf("r%d = %d, branch failed to skip", r, m.Regs[r])
		}
	}
}

func TestDivByZeroTraps(t *testing.T) {
	_, err := Execute("li r1, 1\nli r2, 0\ndiv r3, r1, r2\nhalt", nil, 100)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestRunawayBounded(t *testing.T) {
	_, err := Execute("loop: j loop", nil, 1000)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("err = %v", err)
	}
}

func TestFallOffEndHalts(t *testing.T) {
	m := mustExec(t, "li r1, 3", nil)
	if !m.Halted || m.Regs[1] != 3 {
		t.Errorf("machine = halted=%v r1=%d", m.Halted, m.Regs[1])
	}
}

func TestTraceMatchesExecution(t *testing.T) {
	m := mustExec(t, `
		li r1, 4
		li r3, 0x2000
	loop:	lw r2, 0(r3)
		add r4, r4, r2
		addi r3, r3, 4
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`, map[uint64]int64{0x2000: 1, 0x2004: 2, 0x2008: 3, 0x200C: 4})
	if m.Regs[4] != 10 {
		t.Fatalf("sum = %d", m.Regs[4])
	}
	tr := m.Trace()
	if int64(len(tr)) != m.Steps {
		t.Errorf("trace %d entries, %d steps", len(tr), m.Steps)
	}
	// Four loads at 0x2000..0x200C; the loop branch taken 3 of 4 times.
	var loads []uint64
	taken, notTaken := 0, 0
	for _, in := range tr {
		switch in.Op {
		case isa.Load:
			loads = append(loads, in.Addr)
		case isa.Branch:
			if in.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if len(loads) != 4 || loads[0] != 0x2000 || loads[3] != 0x200C {
		t.Errorf("loads = %#x", loads)
	}
	if taken != 3 || notTaken != 1 {
		t.Errorf("branches: %d taken, %d not", taken, notTaken)
	}
}

func TestTracingDisabled(t *testing.T) {
	prog, err := Assemble("li r1, 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog)
	m.SetTracing(false)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(m.Trace()) != 0 {
		t.Error("trace recorded while disabled")
	}
}

// TestVMTraceDrivesTimingCores is the integration point: a VM-executed
// kernel's dynamic stream runs on both timing cores, and the OoO core
// wins on a memory-parallel kernel.
func TestVMTraceDrivesTimingCores(t *testing.T) {
	// Strided sum over 256 words (cold misses, independent iterations).
	src := `
		li r1, 256
		li r3, 0x10000
	loop:	lw r2, 0(r3)
		add r4, r4, r2
		addi r3, r3, 512   ; one cache block per iteration, far apart
		addi r1, r1, -1
		bne r1, r0, loop
		halt
	`
	init := map[uint64]int64{}
	for i := 0; i < 256; i++ {
		init[uint64(0x10000+i*512)] = int64(i)
	}
	m := mustExec(t, src, init)
	if m.Regs[4] != 255*256/2 {
		t.Fatalf("sum = %d", m.Regs[4])
	}
	hcfg := mem.Config{
		L1:              mem.LevelConfig{Size: 1 << 10, BlockSize: 32, Assoc: 1, AccessCycles: 1, MSHRs: 8},
		L2:              mem.LevelConfig{Size: 8 << 10, BlockSize: 64, Assoc: 4, AccessCycles: 10, MSHRs: 8},
		L1L2Bus:         mem.BusConfig{WidthBytes: 16, Ratio: 2},
		MemBus:          mem.BusConfig{WidthBytes: 8, Ratio: 2},
		MemAccessCycles: 30,
	}
	run := func(ooo bool) int64 {
		h, err := mem.New(hcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cpu.Config{IssueWidth: 4, LSUnits: 2, PredictorEntries: 1024, MispredictPenalty: 3}
		if ooo {
			cfg.OutOfOrder = true
			cfg.RUUSlots, cfg.LSQEntries, cfg.MispredictPenalty = 64, 32, 7
		}
		r, err := cpu.Run(cfg, h, m.Trace(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Insts != m.Steps {
			t.Fatalf("timing core saw %d insts, VM retired %d", r.Insts, m.Steps)
		}
		return r.Cycles
	}
	inorder, ooo := run(false), run(true)
	if ooo >= inorder {
		t.Errorf("OoO (%d cycles) should beat in-order (%d) on independent misses", ooo, inorder)
	}
}

func TestExecuteAssemblyError(t *testing.T) {
	if _, err := Execute("wat", nil, 10); err == nil {
		t.Error("bad source accepted")
	}
}
