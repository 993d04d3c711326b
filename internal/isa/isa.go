// Package isa defines the dynamic instruction representation consumed by
// the processor timing simulators (internal/cpu).
//
// The paper used SimpleScalar's MIPS-like ISA; binary compatibility is
// irrelevant to its measurements, which depend on microarchitectural
// signal only: register dependences, operation latencies, data addresses,
// and branch outcomes. An Inst carries exactly that signal. Workload
// generators (internal/workload) emit sequences of resolved dynamic
// instructions — the execution-driven semantics (address computation,
// branch resolution) are baked into generation, and the timing cores
// replay the []Inst slice with full dependence, structural, and
// memory-system modelling. A replay only reads the slice, so any number
// of runs, on any number of goroutines, may share one.
package isa

import (
	"fmt"

	"memwall/internal/trace"
)

// Reg identifies an architectural register. Reg 0 is the hardwired zero
// register: writes to it are discarded and reads from it are always ready,
// so 0 doubles as "no register".
type Reg uint8

// NumRegs is the size of the architectural register file.
const NumRegs = 64

// Op is the operation class of an instruction. Classes map to functional
// units and latencies in the timing cores.
type Op uint8

const (
	// Nop does nothing (alignment/padding in generated kernels).
	Nop Op = iota
	// IALU is a single-cycle integer operation.
	IALU
	// IMul is an integer multiply.
	IMul
	// FAdd is a floating-point add/subtract/compare.
	FAdd
	// FMul is a floating-point multiply.
	FMul
	// FDiv is a floating-point divide (long latency, unpipelined).
	FDiv
	// Load reads a word from Addr into Dst.
	Load
	// Store writes a word from Src1 to Addr.
	Store
	// Branch is a conditional branch whose resolved direction is Taken.
	Branch
	numOps
)

// String returns the mnemonic class name.
func (o Op) String() string {
	names := [...]string{"nop", "ialu", "imul", "fadd", "fmul", "fdiv", "load", "store", "branch"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o == Load || o == Store }

// Inst is one dynamic (already-resolved) instruction.
type Inst struct {
	// Addr is the data address for Load/Store (word-aligned by builders).
	Addr uint64
	// PC identifies the static instruction site; branch predictors index
	// on it. Builders assign a distinct PC per static site.
	PC uint32
	// Op is the operation class.
	Op Op
	// Dst is the destination register (0 = none).
	Dst Reg
	// Src1, Src2 are the source registers (0 = always ready).
	Src1, Src2 Reg
	// Taken is the resolved direction of a Branch.
	Taken bool
}

// MemRefs derives the data-reference trace of an instruction slice — what
// QPT produced for the paper's Dinero and MTC experiments ("data memory
// references but no instructions"). It is a cursor over the slice, which
// it only reads, so trace.Collect can consume it in place.
type MemRefs struct {
	insts []Inst
	pos   int
}

// NewMemRefs returns a data-reference cursor over insts (not copied).
func NewMemRefs(insts []Inst) *MemRefs { return &MemRefs{insts: insts} }

// Next implements trace.Stream.
func (m *MemRefs) Next() (trace.Ref, bool) {
	for m.pos < len(m.insts) {
		in := &m.insts[m.pos]
		m.pos++
		switch in.Op {
		case Load:
			return trace.Ref{Kind: trace.Read, Addr: in.Addr}, true
		case Store:
			return trace.Ref{Kind: trace.Write, Addr: in.Addr}, true
		}
	}
	return trace.Ref{}, false
}

// Reset implements trace.Stream.
func (m *MemRefs) Reset() { m.pos = 0 }

var _ trace.Stream = (*MemRefs)(nil)

// Builder helps workload generators construct instruction slices with
// automatically assigned static PCs. Each distinct call site in generator
// code should use a distinct site label so branch-predictor indexing sees
// stable static branches. A site gets its PC when it is first emitted, so
// PCs follow the order in which sites first appear.
//
// A Builder from NewCountBuilder is in count mode: it only counts what is
// emitted, with no site lookup and no storage. Running a deterministic
// generator on one first gives the exact capacity for a second, storing
// Builder, which then never grows its slice.
type Builder struct {
	insts    []Inst
	pcs      map[string]uint32
	next     uint32
	counting bool
	n        int // instructions emitted in count mode
}

// NewBuilder returns an empty storing builder whose instruction slice
// holds capHint instructions before it must grow. With capHint equal to
// the count a count-mode run of the same generator reported, the slice is
// allocated once and Insts returns it with cap == len.
func NewBuilder(capHint int) *Builder {
	return &Builder{
		insts: make([]Inst, 0, capHint),
		pcs:   make(map[string]uint32),
		next:  0x1000,
	}
}

// NewCountBuilder returns a builder in count mode: Len reports how many
// instructions were emitted, and Insts returns nil.
func NewCountBuilder() *Builder { return &Builder{counting: true} }

// site returns a stable PC for the named static site.
func (b *Builder) site(name string) uint32 {
	if pc, ok := b.pcs[name]; ok {
		return pc
	}
	pc := b.next
	b.next += 4
	b.pcs[name] = pc
	return pc
}

// Emit appends a raw instruction, assigning it the named site's PC. In
// count mode it only counts the instruction.
func (b *Builder) Emit(site string, in Inst) {
	if b.counting {
		b.n++
		return
	}
	in.PC = b.site(site)
	b.insts = append(b.insts, in)
}

// Load appends a word load from addr into dst, with optional address
// sources for dependence modelling.
func (b *Builder) Load(site string, dst Reg, addr uint64, addrSrc Reg) {
	b.Emit(site, Inst{Op: Load, Dst: dst, Src1: addrSrc, Addr: addr &^ (trace.WordSize - 1)})
}

// Store appends a word store of src to addr.
func (b *Builder) Store(site string, src Reg, addr uint64, addrSrc Reg) {
	b.Emit(site, Inst{Op: Store, Src1: src, Src2: addrSrc, Addr: addr &^ (trace.WordSize - 1)})
}

// OpRRR appends a register-register operation dst = src1 op src2.
func (b *Builder) OpRRR(site string, op Op, dst, src1, src2 Reg) {
	b.Emit(site, Inst{Op: op, Dst: dst, Src1: src1, Src2: src2})
}

// Branch appends a conditional branch depending on src1 with resolved
// direction taken.
func (b *Builder) Branch(site string, src1 Reg, taken bool) {
	b.Emit(site, Inst{Op: Branch, Src1: src1, Taken: taken})
}

// Insts returns the built instruction slice (nil in count mode).
func (b *Builder) Insts() []Inst { return b.insts }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int {
	if b.counting {
		return b.n
	}
	return len(b.insts)
}

// Count summarises an instruction slice by op class.
func Count(insts []Inst) map[Op]int {
	m := make(map[Op]int)
	for _, in := range insts {
		m[in.Op]++
	}
	return m
}
