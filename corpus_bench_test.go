// Before/after benchmarks for the trace corpus. Each *NoCorpus benchmark
// replays the pre-corpus cost model — every table regenerates its own
// traces and every MTC configuration rebuilds its future-knowledge table
// from scratch — while the matching *Corpus benchmark runs the same grid
// through a shared corpus (one materialization per trace, one future
// table per block size). Compare a pair with
// `go test -run '^$' -bench 'MTCGrid' -count 10 .`; memwallbench's
// traffic-sweep workload measures the corpus path end to end.
package memwall

import (
	"testing"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/mtc"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// mtcGridSizes is the multi-configuration MTC sweep: one trace, the
// paper's twelve Figure 4 capacities, all at word-grain blocks.
var mtcGridSizes = []int{
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10,
	64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20,
}

// BenchmarkMTCGridNoCorpus is the pre-corpus path: generate the trace,
// then rebuild the future table for every capacity, as mtc.Simulate on a
// raw stream must. Generation sits inside the timed loop on both sides
// of the pair, so the comparison is end to end.
func BenchmarkMTCGridNoCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := mustGen(b, "eqntott")
		for _, sz := range mtcGridSizes {
			cfg := mtc.Config{Size: sz, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}
			if _, err := mtc.Simulate(cfg, p.MemRefs()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMTCGridCorpus materializes the trace and builds the word-grain
// future table once, then replays it for every capacity. A fresh corpus
// per iteration keeps its generation and materialization cost inside the
// timed loop.
func BenchmarkMTCGridCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corp := corpus.New(corpus.Options{})
		e := corp.Get("eqntott", 1)
		refs, err := e.Refs()
		if err != nil {
			b.Fatal(err)
		}
		fut, err := e.Future(trace.WordSize)
		if err != nil {
			b.Fatal(err)
		}
		for _, sz := range mtcGridSizes {
			cfg := mtc.Config{Size: sz, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}
			if _, err := mtc.SimulateRefs(cfg, fut, refs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The Table 7/8 grid: three benchmarks, two cache sizes, and two passes
// (traffic ratios, then inefficiencies) — the shape of `memwall table7`
// followed by `memwall table8`, or of one report.Collect call.
var (
	trafficGridBenches = []string{"compress", "eqntott", "espresso"}
	trafficGridSizes   = []int{4 << 10, 64 << 10}
)

// BenchmarkTable7GridNoCorpus is the pre-corpus path: each pass generates
// its own programs, and every inefficiency cell's MTC run rebuilds the
// future table.
func BenchmarkTable7GridNoCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range trafficGridBenches {
			p := mustGen(b, name)
			for _, sz := range trafficGridSizes {
				cfg := cache.Config{Size: sz, BlockSize: 32, Assoc: 1}
				if _, err := core.MeasureRatio(cfg, p.MemRefs(), p.RefCount(), p.DataSetBytes); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, name := range trafficGridBenches {
			p := mustGen(b, name)
			for _, sz := range trafficGridSizes {
				cfg := cache.Config{Size: sz, BlockSize: 32, Assoc: 1}
				if _, err := core.MeasureInefficiency(cfg, p.MemRefs(), p.DataSetBytes); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTable7GridCorpus runs the identical grid through one shared
// corpus: each trace materializes once and the word-grain future table is
// built once per benchmark, not once per inefficiency cell.
func BenchmarkTable7GridCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		corp := corpus.New(corpus.Options{})
		for _, name := range trafficGridBenches {
			e := corp.Get(name, 1)
			meta, err := e.Meta()
			if err != nil {
				b.Fatal(err)
			}
			for _, sz := range trafficGridSizes {
				cfg := cache.Config{Size: sz, BlockSize: 32, Assoc: 1}
				if _, err := core.MeasureRatioRefs(cfg, e, meta.DataSetBytes); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, name := range trafficGridBenches {
			e := corp.Get(name, 1)
			meta, err := e.Meta()
			if err != nil {
				b.Fatal(err)
			}
			for _, sz := range trafficGridSizes {
				cfg := cache.Config{Size: sz, BlockSize: 32, Assoc: 1}
				if _, err := core.MeasureInefficiencyRefs(cfg, e, meta.DataSetBytes); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// The Figure 3 grid: two timing passes over the same programs (as `memwall
// all` runs fig3 and table6 back to back). The corpus saves only the
// second generation — timing simulation dominates, so the pair documents
// that the corpus is nearly neutral here rather than claiming a win.
func benchFig3Grid(b *testing.B, newProg func() func(name string) (*workload.Program, error)) {
	names := []string{"compress", "eqntott"}
	for i := 0; i < b.N; i++ {
		prog := newProg() // fresh corpus (or none) per iteration, as elsewhere
		for pass := 0; pass < 2; pass++ {
			var progs []*workload.Program
			for _, n := range names {
				p, err := prog(n)
				if err != nil {
					b.Fatal(err)
				}
				progs = append(progs, p)
			}
			if _, err := core.Figure3(workload.SPEC92, progs, 16); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigure3GridNoCorpus(b *testing.B) {
	benchFig3Grid(b, func() func(string) (*workload.Program, error) {
		return func(name string) (*workload.Program, error) {
			return workload.Generate(name, 1)
		}
	})
}

func BenchmarkFigure3GridCorpus(b *testing.B) {
	benchFig3Grid(b, func() func(string) (*workload.Program, error) {
		corp := corpus.New(corpus.Options{})
		return func(name string) (*workload.Program, error) {
			return corp.Get(name, 1).Program()
		}
	})
}
