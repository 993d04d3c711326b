// Finer-grained decomposition of bandwidth stall time. The paper notes
// that its three execution-time categories "can be broken down further to
// isolate individual parts of the system"; this file attributes the
// bandwidth stall fraction f_B to the two finite buses of the Table 4
// system by re-simulating with each bus made infinitely wide in turn:
//
//	f_B(mem bus)  ≈ (T − T_memInf)  / T
//	f_B(L1/L2 bus) ≈ (T − T_l12Inf) / T
//
// The two components need not sum exactly to f_B (queueing interacts),
// so the residual is reported as "interaction".
package core

import (
	"fmt"

	"memwall/internal/cpu"
	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/units"
)

// BusDecomposition splits a machine's bandwidth stall time by bus.
type BusDecomposition struct {
	Decomposition
	// TMemInf and TL12Inf are execution times with the memory bus or the
	// L1/L2 bus (respectively) infinitely wide.
	TMemInf units.Cycles
	TL12Inf units.Cycles
}

// FBMemBus returns the bandwidth-stall fraction attributable to the
// memory bus.
func (b BusDecomposition) FBMemBus() float64 { return ratio(b.T-b.TMemInf, b.T) }

// FBL12Bus returns the bandwidth-stall fraction attributable to the
// L1/L2 bus.
func (b BusDecomposition) FBL12Bus() float64 { return ratio(b.T-b.TL12Inf, b.T) }

// FBInteraction returns the part of f_B not attributed to either bus
// alone (contention coupling; may be negative when the buses' queueing
// effects overlap).
func (b BusDecomposition) FBInteraction() float64 {
	return b.FB() - b.FBMemBus() - b.FBL12Bus()
}

// DecomposeBuses measures the five-simulation decomposition for the
// instruction slice insts on machine m.
func DecomposeBuses(m Machine, insts []isa.Inst) (BusDecomposition, error) {
	base, err := Decompose(m, insts)
	if err != nil {
		return BusDecomposition{}, err
	}
	out := BusDecomposition{Decomposition: base.Decomposition}

	run := func(mut func(*mem.Config)) (units.Cycles, error) {
		cfg := m.Mem
		cfg.Mode = mem.Full
		mut(&cfg)
		h, err := mem.New(cfg)
		if err != nil {
			return 0, fmt.Errorf("machine %s: %w", m.Name, err)
		}
		res, err := cpu.Run(m.CPU, h, insts, nil)
		if err != nil {
			return 0, err
		}
		return units.Cycles(res.Cycles), nil
	}
	if out.TMemInf, err = run(func(c *mem.Config) { c.InfiniteMemBus = true }); err != nil {
		return out, err
	}
	if out.TL12Inf, err = run(func(c *mem.Config) { c.InfiniteL1L2Bus = true }); err != nil {
		return out, err
	}
	// Removing a constraint can only speed the system up; clamp the rare
	// cache/prefetch-timing artifacts so the attribution stays sane.
	if out.TMemInf > out.T {
		out.TMemInf = out.T
	}
	if out.TL12Inf > out.T {
		out.TL12Inf = out.T
	}
	return out, nil
}
