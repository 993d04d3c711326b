// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus component microbenchmarks for the simulators
// themselves. Each paper-artifact benchmark regenerates the corresponding
// result and reports its headline number(s) as custom metrics, so
//
//	go test -bench=. -benchmem
//
// both exercises and summarises the whole reproduction.
package memwall

import (
	"runtime"
	"testing"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/cpu"
	"memwall/internal/iocomplexity"
	"memwall/internal/mem"
	"memwall/internal/mtc"
	"memwall/internal/stats"
	"memwall/internal/trace"
	"memwall/internal/trends"
	"memwall/internal/workload"
)

func mustGen(b *testing.B, name string) *workload.Program {
	b.Helper()
	p, err := workload.Generate(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- Figure 1: physical microprocessor trends ---

func BenchmarkFigure1Trends(b *testing.B) {
	var fits trends.Fits
	for i := 0; i < b.N; i++ {
		var err error
		fits, err = trends.Fit(trends.Chips())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fits.PinGrowth*100, "pin-%/yr")
	b.ReportMetric(fits.MIPSPerPinGrowth*100, "MIPS/pin-%/yr")
}

// --- Table 2: application growth rates ---

func BenchmarkTable2Growth(b *testing.B) {
	var tmm float64
	for i := 0; i < b.N; i++ {
		for _, row := range iocomplexity.Table() {
			g := row.CDGrowth(4096, 1<<16, 4)
			if row.Algorithm == iocomplexity.TMM {
				tmm = g
			}
		}
	}
	b.ReportMetric(tmm, "TMM-C/D-gain-k4")
}

// --- Figure 2: processing vs bandwidth trend curves ---

func BenchmarkFigure2Curves(b *testing.B) {
	var gap1 float64
	for i := 0; i < b.N; i++ {
		pts := iocomplexity.Figure2(0.60, 0.25, 0.55)
		last := pts[len(pts)-1]
		gap1 = last.ProcessorBW / last.OffChipBW
	}
	b.ReportMetric(gap1, "gap1-1996")
}

// --- Table 3: workload generation ---

func BenchmarkTable3Workloads(b *testing.B) {
	var insts int64
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, name := range workload.Names() {
			p, err := workload.Generate(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			insts += int64(len(p.Insts))
		}
	}
	b.ReportMetric(float64(insts)/1e6, "Minsts")
}

// --- Figure 3: execution-time decomposition, experiments A-F ---

func benchmarkFigure3(b *testing.B, suite workload.Suite, names []string) {
	var progs []*workload.Program
	for _, n := range names {
		progs = append(progs, mustGen(b, n))
	}
	b.ResetTimer()
	var fbF float64
	for i := 0; i < b.N; i++ {
		cells, err := core.Figure3(suite, progs, 16)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Experiment == "F" {
				fbF = c.Result.FB()
			}
		}
	}
	b.ReportMetric(fbF*100, "last-f_B-%")
}

func BenchmarkFigure3SPEC92(b *testing.B) {
	benchmarkFigure3(b, workload.SPEC92, []string{"compress", "eqntott", "espresso", "su2cor", "swm", "tomcatv"})
}

func BenchmarkFigure3SPEC95(b *testing.B) {
	benchmarkFigure3(b, workload.SPEC95, []string{"applu", "hydro2d", "li", "perl", "su2cor95", "swim95", "vortex"})
}

// --- Table 6: latency vs bandwidth stalls, experiments A vs F ---

func BenchmarkTable6StallReversal(b *testing.B) {
	p := mustGen(b, "su2cor")
	var fbWins int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fbWins = 0
		for _, exp := range []string{"A", "F"} {
			m, err := core.MachineByName(workload.SPEC92, exp, 16)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Decompose(m, p.Insts)
			if err != nil {
				b.Fatal(err)
			}
			if exp == "F" && res.FB() > res.FL() {
				fbWins = 1
			}
		}
	}
	b.ReportMetric(float64(fbWins), "F:f_B>f_L")
}

// --- Table 7: traffic ratios ---

func BenchmarkTable7TrafficRatios(b *testing.B) {
	progs := map[string]*workload.Program{}
	traces := map[string]core.RefTrace{}
	for _, n := range workload.SuiteNames(workload.SPEC92) {
		progs[n] = mustGen(b, n)
		traces[n] = core.TraceOfRefs(trace.Collect(progs[n].MemRefs()))
	}
	sizes := []int{1 << 10, 8 << 10, 64 << 10, 256 << 10}
	b.ResetTimer()
	var r64 float64
	for i := 0; i < b.N; i++ {
		for _, n := range workload.SuiteNames(workload.SPEC92) {
			for _, sz := range sizes {
				cfg := cache.Config{Size: sz, BlockSize: 32, Assoc: 1}
				res, err := core.MeasureRatioRefs(cfg, traces[n], progs[n].DataSetBytes)
				if err != nil {
					b.Fatal(err)
				}
				if n == "compress" && sz == 64<<10 {
					r64 = res.R
				}
			}
		}
	}
	b.ReportMetric(r64, "compress-R-64KB")
}

// --- Table 8: traffic inefficiencies ---

func BenchmarkTable8Inefficiency(b *testing.B) {
	p := mustGen(b, "compress")
	tr := core.TraceOfRefs(trace.Collect(p.MemRefs()))
	b.ResetTimer()
	var g float64
	for i := 0; i < b.N; i++ {
		cfg := cache.Config{Size: 64 << 10, BlockSize: 32, Assoc: 1}
		res, err := core.MeasureInefficiencyRefs(cfg, tr, p.DataSetBytes)
		if err != nil {
			b.Fatal(err)
		}
		g = res.G
	}
	b.ReportMetric(g, "compress-G-64KB")
}

// --- Figure 4: traffic vs cache and MTC size ---

func BenchmarkFigure4TrafficCurves(b *testing.B) {
	refs := trace.Collect(mustGen(b, "eqntott").MemRefs())
	blockSizes := []int{4, 32, 128}
	sizes := []int{4 << 10, 64 << 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bs := range blockSizes {
			for _, sz := range sizes {
				c, err := cache.New(cache.Config{Size: sz, BlockSize: bs, Assoc: 4})
				if err != nil {
					b.Fatal(err)
				}
				c.RunRefs(refs)
			}
		}
		fut, err := mtc.FutureOfRefs(refs, trace.WordSize)
		if err != nil {
			b.Fatal(err)
		}
		for _, sz := range sizes {
			if _, err := mtc.SimulateRefs(mtc.Config{Size: sz, BlockSize: 4, Alloc: mtc.WriteValidate}, fut, refs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Tables 9-10: factor isolation ---

func BenchmarkTable9Factors(b *testing.B) {
	tr := core.TraceOfRefs(trace.Collect(mustGen(b, "eqntott").MemRefs()))
	b.ResetTimer()
	var wv float64
	for i := 0; i < b.N; i++ {
		_, results, err := core.MeasureFactorColumn(tr, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Spec.Name == "Write validate" {
				wv = res.DeltaG
			}
		}
	}
	b.ReportMetric(wv, "eqntott-WV-dG")
}

// --- Section 4.3: extrapolation ---

func BenchmarkSection43Extrapolation(b *testing.B) {
	var e trends.Extrapolation
	for i := 0; i < b.N; i++ {
		e = trends.Paper2006()
	}
	b.ReportMetric(e.BandwidthPerPinFactor, "bw/pin-2006x")
}

// --- Component microbenchmarks ---

func BenchmarkCacheAccess(b *testing.B) { cacheAccessBench(b, 2) }

// BenchmarkCacheAccessFullyAssoc is Table 9's 64 KB/32 B fully-associative
// cache, one 2,048-way set, which cache.New indexes instead of scanning.
func BenchmarkCacheAccessFullyAssoc(b *testing.B) { cacheAccessBench(b, 0) }

func cacheAccessBench(b *testing.B, assoc int) {
	c, err := cache.New(cache.Config{Size: 64 << 10, BlockSize: 32, Assoc: assoc})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(trace.Ref{Kind: trace.Read, Addr: addrs[i&(1<<14-1)]})
	}
}

func BenchmarkMTCSimulate(b *testing.B) {
	p := mustGen(b, "espresso")
	refs := trace.Collect(p.MemRefs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fut, err := mtc.FutureOfRefs(refs, trace.WordSize)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mtc.SimulateRefs(mtc.Config{Size: 16 << 10, BlockSize: 4, Alloc: mtc.WriteValidate}, fut, refs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(refs)) * 4)
}

// BenchmarkMTCReplay replays Table 8's twelve MTC sizes on su2cor over
// one shared future table, so it times the MIN replay alone, not the
// table's construction, and reports the cost per replayed reference.
func BenchmarkMTCReplay(b *testing.B) {
	refs := trace.Collect(mustGen(b, "su2cor").MemRefs())
	fut, err := mtc.FutureOfRefs(refs, trace.WordSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sz := range mtcGridSizes {
			cfg := mtc.Config{Size: sz, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}
			if _, err := mtc.SimulateRefs(cfg, fut, refs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(mtcGridSizes)*len(refs)), "ns/ref")
}

func coreBench(b *testing.B, ooo bool) {
	p := mustGen(b, "li")
	cfg := cpu.Config{IssueWidth: 4, LSUnits: 2, PredictorEntries: 8192, MispredictPenalty: 3}
	if ooo {
		cfg.OutOfOrder = true
		cfg.RUUSlots, cfg.LSQEntries, cfg.MispredictPenalty = 64, 32, 7
	}
	mcfg := core.MachinesScaled(workload.SPEC95, 16)[0].Mem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := mem.New(mcfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cpu.Run(cfg, h, p.Insts, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(p.Insts)))
}

func BenchmarkInOrderCore(b *testing.B)    { coreBench(b, false) }
func BenchmarkOutOfOrderCore(b *testing.B) { coreBench(b, true) }

// BenchmarkWorkloadGeneration generates the 13 Figure 3 programs at
// scale 1, the set-up of every Figure 3 run, and reports the bytes it
// allocates per instruction kept: 24 (one isa.Inst) when generation
// allocates only what it keeps.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var insts int
	for i := 0; i < b.N; i++ {
		for _, s := range []workload.Suite{workload.SPEC92, workload.SPEC95} {
			for _, name := range core.Figure3Benchmarks(s) {
				insts += len(mustGen(b, name).Insts)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-alloc0)/float64(insts), "B/inst")
}
