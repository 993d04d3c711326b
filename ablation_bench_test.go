// Ablation benchmarks for the design choices DESIGN.md calls out: the
// traffic-reduction schemes of Sections 5.3 and 6 (sector transfers,
// write-validate, stream buffers) and the single-chip multiprocessor
// projection of Section 2.2. Each reports the measured effect as a
// custom metric.
package memwall

import (
	"testing"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/cpu"
	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/trace"
	"memwall/internal/units"
	"memwall/internal/workload"
)

// BenchmarkAblationSectorCache measures how much 4-byte sector transfers
// cut a probe-dominated workload's traffic versus whole-block fills.
func BenchmarkAblationSectorCache(b *testing.B) {
	refs := trace.Collect(mustGen(b, "compress").MemRefs())
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(sub int) units.Bytes {
			c, err := cache.New(cache.Config{Size: 64 << 10, BlockSize: 32, Assoc: 1, SubBlockSize: sub})
			if err != nil {
				b.Fatal(err)
			}
			return c.RunRefs(refs).TrafficBytes()
		}
		ratio = float64(run(0)) / float64(run(4))
	}
	b.ReportMetric(ratio, "traffic-reduction-x")
}

// BenchmarkAblationWriteValidate measures the write-validate policy's
// traffic saving on the store-heavy eqntott surrogate.
func BenchmarkAblationWriteValidate(b *testing.B) {
	refs := trace.Collect(mustGen(b, "eqntott").MemRefs())
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(alloc cache.AllocPolicy) units.Bytes {
			c, err := cache.New(cache.Config{Size: 64 << 10, BlockSize: 32, Assoc: 1,
				SubBlockSize: 4, Alloc: alloc})
			if err != nil {
				b.Fatal(err)
			}
			return c.RunRefs(refs).TrafficBytes()
		}
		ratio = float64(run(cache.WriteAllocate)) / float64(run(cache.WriteValidate))
	}
	b.ReportMetric(ratio, "traffic-reduction-x")
}

// BenchmarkAblationStreamBuffers compares tagged prefetching against
// stream buffers on a streaming workload (execution time on machine D's
// core with each prefetcher added).
func BenchmarkAblationStreamBuffers(b *testing.B) {
	p := mustGen(b, "swm")
	base, err := core.MachineByName(workload.SPEC92, "D", 16)
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(mut func(*mem.Config)) int64 {
			cfg := base.Mem
			mut(&cfg)
			h, err := mem.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r, err := cpu.Run(base.CPU, h, p.Insts, nil)
			if err != nil {
				b.Fatal(err)
			}
			return r.Cycles
		}
		plain := run(func(*mem.Config) {})
		buffered := run(func(c *mem.Config) {
			c.StreamBuffers = mem.StreamBufferConfig{Buffers: 4, Depth: 4}
		})
		speedup = float64(plain) / float64(buffered)
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkAblationBusWidth measures how doubling the package's bus
// widths (the "better packaging technology" row of Table 1C) shrinks
// bandwidth stalls on a bandwidth-bound workload.
func BenchmarkAblationBusWidth(b *testing.B) {
	p := mustGen(b, "su2cor")
	base, err := core.MachineByName(workload.SPEC92, "F", 16)
	if err != nil {
		b.Fatal(err)
	}
	var dfb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		narrow, err := core.Decompose(base, p.Insts)
		if err != nil {
			b.Fatal(err)
		}
		wide := base
		wide.Mem.L1L2Bus.WidthBytes *= 2
		wide.Mem.MemBus.WidthBytes *= 2
		w, err := core.Decompose(wide, p.Insts)
		if err != nil {
			b.Fatal(err)
		}
		dfb = (narrow.FB() - w.FB()) * 100
	}
	b.ReportMetric(dfb, "f_B-drop-pts")
}

// BenchmarkCMPScaling measures per-core slowdown when four cores share
// one package (Section 2.2).
func BenchmarkCMPScaling(b *testing.B) {
	p := mustGen(b, "swim95")
	m, err := core.MachineByName(workload.SPEC95, "F", 16)
	if err != nil {
		b.Fatal(err)
	}
	mkProgs := func(n int) [][]isa.Inst {
		progs := make([][]isa.Inst, n)
		for i := 0; i < n; i++ {
			insts := make([]isa.Inst, len(p.Insts))
			copy(insts, p.Insts)
			for j := range insts {
				if insts[j].Op.IsMem() {
					insts[j].Addr += uint64(i) << 30
				}
			}
			progs[i] = insts
		}
		return progs
	}
	var slowdown float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(n int) int64 {
			hs, err := mem.NewCluster(m.Mem, n)
			if err != nil {
				b.Fatal(err)
			}
			res, err := cpu.RunMulti(m.CPU, hs, mkProgs(n))
			if err != nil {
				b.Fatal(err)
			}
			return res.Cycles
		}
		slowdown = float64(run(4)) / float64(run(1))
	}
	b.ReportMetric(slowdown, "4core-slowdown-x")
}

// BenchmarkAblationBlockSize sweeps L1/L2 block sizes on the timing model
// (the A-vs-B comparison of Figure 3) and reports the bandwidth-stall
// change for a low-spatial-locality workload.
func BenchmarkAblationBlockSize(b *testing.B) {
	p := mustGen(b, "compress")
	var dfb float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.MachineByName(workload.SPEC92, "A", 16)
		if err != nil {
			b.Fatal(err)
		}
		ra, err := core.Decompose(a, p.Insts)
		if err != nil {
			b.Fatal(err)
		}
		bb, err := core.MachineByName(workload.SPEC92, "B", 16)
		if err != nil {
			b.Fatal(err)
		}
		rb, err := core.Decompose(bb, p.Insts)
		if err != nil {
			b.Fatal(err)
		}
		dfb = (rb.FB() - ra.FB()) * 100
	}
	b.ReportMetric(dfb, "f_B-rise-pts")
}
