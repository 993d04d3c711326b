// Package memwall is a from-scratch Go reproduction of Burger, Goodman &
// Kägi, "Memory Bandwidth Limitations of Future Microprocessors" (ISCA
// 1996). It provides:
//
//   - synthetic SPEC92/SPEC95 surrogate workloads (Table 3);
//   - a trace-driven cache simulator and a Belady-MIN minimal-traffic
//     cache (MTC) for the traffic studies of Sections 4–5 (Tables 7–10,
//     Figure 4);
//   - execution-driven processor timing simulation — in-order and
//     out-of-order (RUU) cores over a two-level hierarchy with finite
//     buses, MSHRs, and tagged prefetching — for the execution-time
//     decomposition of Section 3 (Figure 3, Table 6);
//   - the paper's analytical artifacts: package trends and extrapolation
//     (Figure 1, Section 4.3) and I/O-complexity growth rates (Table 2,
//     Figure 2).
//
// This package is the public facade over the internal simulators; the
// cmd/memwall command regenerates every table and figure of the paper.
//
// # Quick start
//
//	prog, _ := memwall.GenerateWorkload("compress", 1)
//	res, _ := memwall.MeasureTraffic(prog, 64<<10)
//	fmt.Printf("R=%.2f G=%.1f\n", res.TrafficRatio, res.Inefficiency)
//
//	dec, _ := memwall.RunExperiment("F", prog)
//	fmt.Printf("f_P=%.2f f_L=%.2f f_B=%.2f\n", dec.FP(), dec.FL(), dec.FB())
package memwall

import (
	"fmt"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/mtc"
	"memwall/internal/trace"
	"memwall/internal/units"
	"memwall/internal/workload"
)

// Program is a generated benchmark surrogate; see GenerateWorkload.
type Program = workload.Program

// Decomposition is the paper's three-way execution-time split; its FP, FL,
// and FB methods return the processing, latency-stall, and bandwidth-stall
// fractions (Equations 1–3).
type Decomposition = core.Decomposition

// Workloads returns the names of the fourteen SPEC92/SPEC95 surrogate
// benchmarks (Table 3).
func Workloads() []string { return workload.Names() }

// GenerateWorkload builds the named surrogate benchmark. scale multiplies
// the trace length (1 = fast, sized for interactive use; larger scales
// approach the paper's reference counts).
func GenerateWorkload(name string, scale int) (*Program, error) {
	return workload.Generate(name, scale)
}

// TrafficResult reports the Section 4–5 traffic metrics of one cache
// configuration on one workload.
type TrafficResult struct {
	// CacheBytes and MTCBytes are total traffic below the cache and
	// below the same-size minimal-traffic cache, including write-backs
	// and the end-of-run flush.
	CacheBytes units.Bytes
	MTCBytes   units.Bytes
	// TrafficRatio is R (Equation 4): cache traffic over processor
	// traffic (refs x 4 bytes).
	TrafficRatio float64
	// Inefficiency is G (Equation 6): cache traffic over MTC traffic.
	Inefficiency float64
	// MissRate is the conventional cache's miss rate, for reference.
	MissRate float64
}

// MeasureTraffic runs the workload's data-reference trace through a
// direct-mapped, 32-byte-block, write-back cache of cacheBytes capacity
// (the configuration of Tables 7 and 8) and through the canonical MTC of
// the same size, returning both traffic metrics.
func MeasureTraffic(p *Program, cacheBytes int) (TrafficResult, error) {
	cfg := cache.Config{Size: cacheBytes, BlockSize: 32, Assoc: 1}
	return MeasureTrafficConfig(p, cfg)
}

// MeasureTrafficConfig is MeasureTraffic with a caller-supplied cache
// configuration.
func MeasureTrafficConfig(p *Program, cfg cache.Config) (TrafficResult, error) {
	refs := trace.Collect(p.MemRefs())
	c, err := cache.New(cfg)
	if err != nil {
		return TrafficResult{}, err
	}
	cst := c.RunRefs(refs)
	fut, err := mtc.FutureOfRefs(refs, trace.WordSize)
	if err != nil {
		return TrafficResult{}, err
	}
	mst, err := mtc.SimulateRefs(mtc.Config{
		Size: cfg.Size, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate,
	}, fut, refs)
	if err != nil {
		return TrafficResult{}, err
	}
	return TrafficResult{
		CacheBytes:   cst.TrafficBytes(),
		MTCBytes:     mst.TrafficBytes(),
		TrafficRatio: core.TrafficRatio(cst.TrafficBytes(), units.Words(len(refs)).Bytes(trace.WordSize)),
		Inefficiency: core.Inefficiency(cst.TrafficBytes(), mst.TrafficBytes()),
		MissRate:     cst.MissRate(),
	}, nil
}

// EffectivePinBandwidth computes E_pin = B_pin / R (Equation 5) for a pin
// bandwidth in MB/s and a measured traffic ratio.
func EffectivePinBandwidth(pinMBs, ratio float64) float64 {
	return core.EffectivePinBandwidth(pinMBs, ratio)
}

// OptimalEffectivePinBandwidth computes the Equation 7 upper bound
// OE_pin = B_pin * G / R.
func OptimalEffectivePinBandwidth(pinMBs, g, r float64) float64 {
	return core.OptimalEffectivePinBandwidth(pinMBs, []float64{g}, []float64{r})
}

// ExperimentResult couples a decomposition with the simulation detail of
// the full-memory-system run.
type ExperimentResult = core.DecomposeResult

// RunExperiment simulates the program on one of the paper's machines A–F
// (Table 5) for the program's own benchmark suite, with the hierarchy
// scaled to the surrogate data sets (cache scale 16; use the internal
// core.MachinesScaled API directly for other scales). It returns the
// three-simulation execution-time decomposition of Section 3.1.
func RunExperiment(experiment string, p *Program) (ExperimentResult, error) {
	m, err := core.MachineByName(p.Suite, experiment, 16)
	if err != nil {
		return ExperimentResult{}, err
	}
	res, err := core.Decompose(m, p.Insts)
	if err != nil {
		return ExperimentResult{}, fmt.Errorf("memwall: %s on %s: %w", p.Name, experiment, err)
	}
	return res, nil
}

// Experiments returns the experiment names of Table 5 in order.
func Experiments() []string { return []string{"A", "B", "C", "D", "E", "F"} }
