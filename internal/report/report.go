// Package report collects every experiment of the reproduction into
// structured, JSON-serialisable records, so downstream tooling (plotters,
// regression checks, dashboards) can consume the results without parsing
// the CLI's ASCII tables. The cmd/memwall "export" subcommand emits the
// full Report as JSON.
package report

import (
	"encoding/json"
	"fmt"
	"io"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/iocomplexity"
	"memwall/internal/runner"
	"memwall/internal/trends"
	"memwall/internal/workload"
)

// Options controls which experiments run and at what scale.
type Options struct {
	// Scale is the workload trace-length multiplier (default 1).
	Scale int
	// CacheScale divides the Table 4 cache sizes for the timing runs
	// (default 16; see core.MachinesScaled).
	CacheScale int
	// SkipTiming omits the (slower) Figure 3 decomposition runs.
	SkipTiming bool
	// Pool, when non-nil, supplies the worker-pool configuration for the
	// Figure 3 (benchmark × experiment) grid — worker count, telemetry
	// hooks, and the Flight and fault injector of a crash-safe CLI run
	// (cmd/memwall's -j, -checkpoint-dir and -fault-schedule). Nil runs
	// the grid serially; results are identical for any worker count.
	Pool *runner.Config `json:"-"`
	// Sizes are the cache sizes for the traffic tables (defaults to the
	// paper's 1KB-2MB columns).
	Sizes []int
	// Corpus supplies the shared trace corpus. When nil, Collect builds a
	// private in-memory corpus for the run — the tables below revisit each
	// benchmark many times, and regenerating per table would only waste
	// work without changing a single output byte.
	Corpus *corpus.Corpus `json:"-"`
}

func (o *Options) defaults() {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.CacheScale < 1 {
		o.CacheScale = 16
	}
	if len(o.Sizes) == 0 {
		o.Sizes = core.TrafficSizes()
	}
}

// Report is the full set of reproduced results.
type Report struct {
	// Meta records the generation parameters.
	Meta Options `json:"meta"`
	// Chips and TrendFits cover Figure 1.
	Chips     []trends.Chip `json:"chips"`
	TrendFits trends.Fits   `json:"trendFits"`
	// Extrapolation2006 covers Section 4.3.
	Extrapolation2006 trends.Extrapolation `json:"extrapolation2006"`
	// Growth covers Table 2 (evaluated C/D gains at k=4).
	Growth []GrowthRow `json:"growth"`
	// Workloads covers Table 3.
	Workloads []WorkloadRow `json:"workloads"`
	// TrafficRatios and Inefficiencies cover Tables 7 and 8.
	TrafficRatios  []TrafficRow `json:"trafficRatios"`
	Inefficiencies []TrafficRow `json:"inefficiencies"`
	// Factors covers Tables 9-10.
	Factors []FactorRow `json:"factors"`
	// Decompositions covers Figure 3 / Table 6 (empty with SkipTiming).
	Decompositions []DecompRow `json:"decompositions,omitempty"`
}

// GrowthRow is one Table 2 record.
type GrowthRow struct {
	Algorithm string  `json:"algorithm"`
	Memory    string  `json:"memory"`
	Comp      string  `json:"comp"`
	Traffic   string  `json:"traffic"`
	CDGrowth  string  `json:"cdGrowth"`
	GainAtK4  float64 `json:"gainAtK4"`
}

// WorkloadRow is one Table 3 record.
type WorkloadRow struct {
	Name         string `json:"name"`
	Suite        string `json:"suite"`
	Instructions int64  `json:"instructions"`
	References   int64  `json:"references"`
	DataSetBytes int64  `json:"dataSetBytes"`
}

// TrafficRow holds one benchmark's values across the size sweep; entries
// for caches at least as large as the data set are NaN-free: they are
// omitted (Fits=true).
type TrafficRow struct {
	Benchmark string      `json:"benchmark"`
	Cells     []CacheCell `json:"cells"`
}

// CacheCell is one (size, value) point.
type CacheCell struct {
	SizeBytes int     `json:"sizeBytes"`
	Value     float64 `json:"value"`
	Fits      bool    `json:"fitsDataSet,omitempty"`
}

// FactorRow is one Table 9 cell set for a benchmark.
type FactorRow struct {
	Benchmark string             `json:"benchmark"`
	SizeBytes int                `json:"sizeBytes"`
	DeltaG    map[string]float64 `json:"deltaG"`
}

// DecompRow is one Figure 3 cell.
type DecompRow struct {
	Benchmark  string  `json:"benchmark"`
	Experiment string  `json:"experiment"`
	NormTime   float64 `json:"normTime"`
	FP         float64 `json:"fP"`
	FL         float64 `json:"fL"`
	FB         float64 `json:"fB"`
	IPC        float64 `json:"ipc"`
}

// Collect runs the experiment suite and assembles the report.
func Collect(opts Options) (*Report, error) {
	opts.defaults()
	r := &Report{Meta: opts}

	// Figure 1 / Section 4.3.
	r.Chips = trends.Chips()
	fits, err := trends.Fit(r.Chips)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	r.TrendFits = fits
	r.Extrapolation2006 = trends.Paper2006()

	// Table 2.
	for _, row := range iocomplexity.Table() {
		r.Growth = append(r.Growth, GrowthRow{
			Algorithm: row.Algorithm.String(),
			Memory:    row.MemoryFormula,
			Comp:      row.CompFormula,
			Traffic:   row.TrafficFormula,
			CDGrowth:  row.CDGrowthFormula,
			GainAtK4:  row.CDGrowth(4096, 1<<16, 4),
		})
	}

	// All tables below draw from one corpus: each benchmark's instruction
	// stream is generated once and its reference trace materialized once,
	// however many tables revisit it.
	corp := opts.Corpus
	if corp == nil {
		corp = corpus.New(corpus.Options{})
	}

	// Table 3 (all fourteen workloads).
	progs := map[string]*workload.Program{}
	for _, name := range workload.Names() {
		p, err := corp.Get(name, opts.Scale).Program()
		if err != nil {
			return nil, err
		}
		progs[name] = p
		r.Workloads = append(r.Workloads, WorkloadRow{
			Name:         p.Name,
			Suite:        p.Suite.String(),
			Instructions: int64(len(p.Insts)),
			References:   p.RefCount(),
			DataSetBytes: p.DataSetBytes,
		})
	}

	// Tables 7 and 8 over SPEC92.
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		e := corp.Get(name, opts.Scale)
		dataSet := progs[name].DataSetBytes
		tr := TrafficRow{Benchmark: name}
		ir := TrafficRow{Benchmark: name}
		for _, sz := range opts.Sizes {
			cfg := cache.Config{Size: sz, BlockSize: 32, Assoc: 1}
			rr, err := core.MeasureRatioRefs(cfg, e, dataSet)
			if err != nil {
				return nil, err
			}
			tr.Cells = append(tr.Cells, CacheCell{SizeBytes: sz, Value: rr.R, Fits: rr.FitsDataSet})
			if rr.FitsDataSet {
				ir.Cells = append(ir.Cells, CacheCell{SizeBytes: sz, Fits: true})
				continue
			}
			ie, err := core.MeasureInefficiencyRefs(cfg, e, dataSet)
			if err != nil {
				return nil, err
			}
			ir.Cells = append(ir.Cells, CacheCell{SizeBytes: sz, Value: ie.G})
		}
		r.TrafficRatios = append(r.TrafficRatios, tr)
		r.Inefficiencies = append(r.Inefficiencies, ir)
	}

	// Tables 9-10. The word-grain future tables built for Table 8's MTC
	// runs are reused here via the corpus.
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		size := core.FactorSize(name)
		_, results, err := core.MeasureFactorColumn(corp.Get(name, opts.Scale), size)
		if err != nil {
			return nil, err
		}
		fr := FactorRow{Benchmark: name, SizeBytes: size, DeltaG: map[string]float64{}}
		for _, res := range results {
			fr.DeltaG[res.Spec.Name] = res.DeltaG
		}
		r.Factors = append(r.Factors, fr)
	}

	// Figure 3 / Table 6.
	if !opts.SkipTiming {
		for _, suite := range []workload.Suite{workload.SPEC92, workload.SPEC95} {
			var list []*workload.Program
			for _, name := range core.Figure3Benchmarks(suite) {
				list = append(list, progs[name])
			}
			pool := runner.Config{Workers: 1}
			if opts.Pool != nil {
				pool = *opts.Pool
			}
			cells, err := core.Figure3Pool(suite, list, opts.CacheScale, pool)
			if err != nil {
				return nil, err
			}
			for _, c := range cells {
				r.Decompositions = append(r.Decompositions, DecompRow{
					Benchmark:  c.Benchmark,
					Experiment: c.Experiment,
					NormTime:   c.NormTime,
					FP:         c.Result.FP(),
					FL:         c.Result.FL(),
					FB:         c.Result.FB(),
					IPC:        c.Result.Full.IPC(),
				})
			}
		}
	}
	return r, nil
}

// WriteJSON marshals the report with indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Headline extracts the reproduction's key scalar claims for quick
// regression checks.
type Headline struct {
	PinGrowthPct      float64 `json:"pinGrowthPct"`
	BWPerPin2006      float64 `json:"bwPerPin2006"`
	TMMGainAtK4       float64 `json:"tmmGainAtK4"`
	FBExceedsFLCount  int     `json:"fbExceedsFLCountExpF"`
	TimedBenchmarks   int     `json:"timedBenchmarks"`
	MaxInefficiency   float64 `json:"maxInefficiency"`
	SmallCacheAmplify int     `json:"benchmarksWithRAbove1At1KB"`
}

// Headline computes the summary from a collected report.
func (r *Report) Headline() Headline {
	h := Headline{
		PinGrowthPct: r.TrendFits.PinGrowth * 100,
		BWPerPin2006: r.Extrapolation2006.BandwidthPerPinFactor,
	}
	for _, g := range r.Growth {
		if g.Algorithm == "TMM" {
			h.TMMGainAtK4 = g.GainAtK4
		}
	}
	perBench := map[string][2]float64{} // fL, fB at F
	for _, d := range r.Decompositions {
		if d.Experiment == "F" {
			perBench[d.Benchmark] = [2]float64{d.FL, d.FB}
		}
	}
	h.TimedBenchmarks = len(perBench)
	for _, v := range perBench {
		if v[1] > v[0] {
			h.FBExceedsFLCount++
		}
	}
	for _, row := range r.Inefficiencies {
		for _, c := range row.Cells {
			if !c.Fits && c.Value > h.MaxInefficiency {
				h.MaxInefficiency = c.Value
			}
		}
	}
	for _, row := range r.TrafficRatios {
		if len(row.Cells) > 0 && row.Cells[0].Value > 1 {
			h.SmallCacheAmplify++
		}
	}
	return h
}
