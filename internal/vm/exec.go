// Functional execution: run an assembled program, computing real register
// and memory values, while recording the retired dynamic instruction
// stream (resolved addresses and branch outcomes) for the timing cores.
package vm

import (
	"fmt"

	"memwall/internal/isa"
)

// Machine is one executing VM instance.
type Machine struct {
	prog *Program
	// Regs holds the 64 architectural registers; Regs[0] is always 0.
	Regs [isa.NumRegs]int64
	// mem is sparse word-addressed memory.
	mem map[uint64]int64
	pc  int

	// trace accumulates the retired dynamic instruction stream.
	trace   []isa.Inst
	tracing bool

	// Steps counts retired instructions.
	Steps int64
	// Halted is set when the program executes halt or runs off the end.
	Halted bool
}

// New returns a machine loaded with prog, with tracing enabled.
func New(prog *Program) *Machine {
	return &Machine{prog: prog, mem: map[uint64]int64{}, tracing: true}
}

// SetTracing toggles dynamic-stream recording (on by default); functional
// runs that only need results can disable it.
func (m *Machine) SetTracing(on bool) { m.tracing = on }

// SetWord initialises a memory word (for input data).
func (m *Machine) SetWord(addr uint64, v int64) { m.mem[addr&^3] = v }

// Word reads a memory word.
func (m *Machine) Word(addr uint64) int64 { return m.mem[addr&^3] }

// Trace returns the retired dynamic instruction stream recorded so far,
// which the timing cores (cpu.Run, core.Decompose) replay.
func (m *Machine) Trace() []isa.Inst { return m.trace }

// classOf maps VM opcodes to timing-model operation classes.
func classOf(op Opcode) isa.Op {
	switch op {
	case OpMul:
		return isa.IMul
	case OpDiv, OpFDiv:
		return isa.FDiv
	case OpFAdd:
		return isa.FAdd
	case OpFMul:
		return isa.FMul
	case OpLw:
		return isa.Load
	case OpSw:
		return isa.Store
	case OpBeq, OpBne, OpBlt, OpBge, OpJ:
		return isa.Branch
	case OpNop, OpHalt:
		return isa.Nop
	default:
		return isa.IALU
	}
}

// Run executes until halt, program end, or maxSteps retirements. It
// returns an error on traps (division by zero) or exceeding maxSteps.
func (m *Machine) Run(maxSteps int64) error {
	for !m.Halted {
		if m.Steps >= maxSteps {
			return fmt.Errorf("vm: exceeded %d steps at pc %d", maxSteps, m.pc)
		}
		if m.pc < 0 || m.pc >= len(m.prog.Insts) {
			m.Halted = true
			return nil
		}
		in := m.prog.Insts[m.pc]
		if err := m.step(in); err != nil {
			return fmt.Errorf("vm: line %d: %w", in.Line, err)
		}
		m.Steps++
	}
	return nil
}

// emit records the retired instruction in timing-core form.
func (m *Machine) emit(in Inst, dyn isa.Inst) {
	if !m.tracing {
		return
	}
	dyn.PC = uint32(0x1000 + m.pc*4)
	m.trace = append(m.trace, dyn)
}

func (m *Machine) set(rd uint8, v int64) {
	if rd != 0 {
		m.Regs[rd] = v
	}
}

func (m *Machine) step(in Inst) error {
	next := m.pc + 1
	switch in.Op {
	case OpNop:
		m.emit(in, isa.Inst{Op: isa.Nop})
	case OpHalt:
		m.Halted = true
		m.emit(in, isa.Inst{Op: isa.Nop})
	case OpLi:
		m.set(in.Rd, in.Imm)
		m.emit(in, isa.Inst{Op: isa.IALU, Dst: isa.Reg(in.Rd)})
	case OpAddi:
		m.set(in.Rd, m.Regs[in.Rs]+in.Imm)
		m.emit(in, isa.Inst{Op: isa.IALU, Dst: isa.Reg(in.Rd), Src1: isa.Reg(in.Rs)})
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpSll, OpSrl, OpSlt,
		OpFAdd, OpFMul, OpFDiv:
		a, b := m.Regs[in.Rs], m.Regs[in.Rt]
		var v int64
		switch in.Op {
		case OpAdd, OpFAdd:
			v = a + b
		case OpSub:
			v = a - b
		case OpMul, OpFMul:
			v = a * b
		case OpDiv, OpFDiv:
			if b == 0 {
				return fmt.Errorf("division by zero")
			}
			v = a / b
		case OpAnd:
			v = a & b
		case OpOr:
			v = a | b
		case OpXor:
			v = a ^ b
		case OpSll:
			v = a << (uint64(b) & 63)
		case OpSrl:
			v = int64(uint64(a) >> (uint64(b) & 63))
		case OpSlt:
			if a < b {
				v = 1
			}
		}
		m.set(in.Rd, v)
		m.emit(in, isa.Inst{Op: classOf(in.Op), Dst: isa.Reg(in.Rd),
			Src1: isa.Reg(in.Rs), Src2: isa.Reg(in.Rt)})
	case OpLw:
		addr := uint64(m.Regs[in.Rs] + in.Imm)
		m.set(in.Rd, m.mem[addr&^3])
		m.emit(in, isa.Inst{Op: isa.Load, Dst: isa.Reg(in.Rd),
			Src1: isa.Reg(in.Rs), Addr: addr &^ 3})
	case OpSw:
		addr := uint64(m.Regs[in.Rs] + in.Imm)
		m.mem[addr&^3] = m.Regs[in.Rd] // Rd holds the source register here
		m.emit(in, isa.Inst{Op: isa.Store, Src1: isa.Reg(in.Rd),
			Src2: isa.Reg(in.Rs), Addr: addr &^ 3})
	case OpBeq, OpBne, OpBlt, OpBge:
		a, b := m.Regs[in.Rs], m.Regs[in.Rt]
		var taken bool
		switch in.Op {
		case OpBeq:
			taken = a == b
		case OpBne:
			taken = a != b
		case OpBlt:
			taken = a < b
		case OpBge:
			taken = a >= b
		}
		if taken {
			next = in.Target
		}
		m.emit(in, isa.Inst{Op: isa.Branch, Src1: isa.Reg(in.Rs),
			Src2: isa.Reg(in.Rt), Taken: taken})
	case OpJ:
		next = in.Target
		m.emit(in, isa.Inst{Op: isa.Branch, Taken: true})
	default:
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
	m.pc = next
	return nil
}

// Execute is the one-shot convenience API: assemble, optionally preload
// memory, run, and return the machine.
func Execute(src string, init map[uint64]int64, maxSteps int64) (*Machine, error) {
	prog, err := Assemble(src)
	if err != nil {
		return nil, err
	}
	m := New(prog)
	for a, v := range init {
		m.SetWord(a, v)
	}
	if err := m.Run(maxSteps); err != nil {
		return m, err
	}
	return m, nil
}
