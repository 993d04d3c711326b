package isa

import (
	"testing"

	"memwall/internal/trace"
)

func TestOpString(t *testing.T) {
	want := map[Op]string{
		Nop: "nop", IALU: "ialu", IMul: "imul", FAdd: "fadd",
		FMul: "fmul", FDiv: "fdiv", Load: "load", Store: "store",
		Branch: "branch",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if Op(200).String() == "" {
		t.Error("unknown op should render")
	}
}

func TestIsMem(t *testing.T) {
	for op := Nop; op < numOps; op++ {
		want := op == Load || op == Store
		if op.IsMem() != want {
			t.Errorf("%v.IsMem() = %v", op, op.IsMem())
		}
	}
}

func TestMemRefsFiltersAndMaps(t *testing.T) {
	insts := []Inst{
		{Op: IALU, Dst: 1},
		{Op: Load, Addr: 0x100},
		{Op: Branch, Taken: true},
		{Op: Store, Addr: 0x204},
		{Op: FMul},
	}
	m := NewMemRefs(insts)
	refs := trace.Collect(m)
	if len(refs) != 2 {
		t.Fatalf("refs = %v", refs)
	}
	if refs[0].Kind != trace.Read || refs[0].Addr != 0x100 {
		t.Errorf("first ref = %+v", refs[0])
	}
	if refs[1].Kind != trace.Write || refs[1].Addr != 0x204 {
		t.Errorf("second ref = %+v", refs[1])
	}
	// Restartable.
	if again := trace.Collect(m); len(again) != 2 {
		t.Error("MemRefs not restartable")
	}
}

func TestBuilderSitePCsStable(t *testing.T) {
	b := NewBuilder(0)
	b.Load("siteA", 1, 0x100, 0)
	b.Load("siteB", 2, 0x200, 0)
	b.Load("siteA", 3, 0x300, 0)
	insts := b.Insts()
	if insts[0].PC != insts[2].PC {
		t.Error("same site must share a PC")
	}
	if insts[0].PC == insts[1].PC {
		t.Error("different sites must have distinct PCs")
	}
}

func TestBuilderWordAligns(t *testing.T) {
	b := NewBuilder(0)
	b.Load("l", 1, 0x103, 0)
	b.Store("s", 1, 0x107, 0)
	if b.Insts()[0].Addr != 0x100 || b.Insts()[1].Addr != 0x104 {
		t.Errorf("addresses not word-aligned: %+v", b.Insts())
	}
}

func TestBuilderEmitKinds(t *testing.T) {
	b := NewBuilder(4)
	b.OpRRR("op", FAdd, 10, 11, 12)
	b.Branch("br", 5, true)
	insts := b.Insts()
	if insts[0].Op != FAdd || insts[0].Dst != 10 || insts[0].Src1 != 11 || insts[0].Src2 != 12 {
		t.Errorf("OpRRR = %+v", insts[0])
	}
	if insts[1].Op != Branch || !insts[1].Taken || insts[1].Src1 != 5 {
		t.Errorf("Branch = %+v", insts[1])
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestCount(t *testing.T) {
	insts := []Inst{{Op: Load}, {Op: Load}, {Op: Store}, {Op: Branch}}
	c := Count(insts)
	if c[Load] != 2 || c[Store] != 1 || c[Branch] != 1 || c[IALU] != 0 {
		t.Errorf("Count = %v", c)
	}
}

func TestCountBuilderCountsOnly(t *testing.T) {
	emit := func(b *Builder) {
		b.Load("l", 1, 0x100, 0)
		b.Store("s", 1, 0x104, 0)
		b.OpRRR("op", FAdd, 10, 11, 12)
		b.Branch("br", 5, true)
		b.Emit("raw", Inst{Op: Nop})
		b.Load("l", 2, 0x108, 0)
	}
	c := NewCountBuilder()
	emit(c)
	if c.Len() != 6 || c.Insts() != nil {
		t.Fatalf("count mode: Len = %d, Insts = %v; want 6 and nil", c.Len(), c.Insts())
	}
	b := NewBuilder(c.Len())
	emit(b)
	insts := b.Insts()
	if len(insts) != c.Len() || cap(insts) != len(insts) {
		t.Fatalf("sized from the count: len %d cap %d, want both %d", len(insts), cap(insts), c.Len())
	}
	// Sites get PCs in the order they are first emitted.
	for i, in := range insts[:5] {
		if want := uint32(0x1000 + 4*i); in.PC != want {
			t.Errorf("inst %d: PC %#x, want %#x", i, in.PC, want)
		}
	}
	if insts[5].PC != insts[0].PC {
		t.Errorf("site l re-emitted with PC %#x, first %#x", insts[5].PC, insts[0].PC)
	}
}
