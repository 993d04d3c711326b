// Subcommands for the trace-driven traffic studies: Tables 3, 7, 8, 9 and
// Figure 4, plus the effective-pin-bandwidth calculations of Equations
// 5 and 7.
//
// All of these sweep a (benchmark × configuration) grid over the same
// reference traces, so they draw the traces from the run-wide corpus:
// each benchmark materializes once, every configuration replays the
// shared slice (core.*Refs fast paths), and every MTC configuration
// replays against the trace's shared future table.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/mtc"
	"memwall/internal/runner"
	"memwall/internal/tablefmt"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

func init() {
	register("table3", "Table 3: benchmark reference counts and data-set sizes", runTable3)
	register("table7", "Table 7: traffic ratios for 1KB-2MB direct-mapped caches", runTable7)
	register("table8", "Table 8: traffic inefficiencies vs the MTC", runTable8)
	register("fig4", "Figure 4: total traffic vs cache and MTC size", runFig4)
	register("table9", "Tables 9-10: inefficiency-gap factor isolation", runTable9)
	register("epin", "Equations 5 & 7: effective pin bandwidth and its bound", runEpin)
}

func runTable3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ContinueOnError)
	scale := scaleFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	t := tablefmt.New("Table 3: benchmark trace lengths and data sets (surrogates at -scale)",
		"Benchmark", "suite", "insts (K)", "refs (K)", "data set (KB)")
	for _, name := range workload.Names() {
		p, err := corpusProgram(name, *scale)
		if err != nil {
			return err
		}
		t.AddRow(name, p.Suite.String(),
			fmt.Sprintf("%.0f", float64(len(p.Insts))/1e3),
			fmt.Sprintf("%.0f", float64(p.RefCount())/1e3),
			fmt.Sprintf("%.0f", float64(p.DataSetBytes)/1024))
	}
	fmt.Println(t)
	return nil
}

// spec92Traces materializes the SPEC92 surrogate traces used by the
// traffic studies (the paper runs Tables 7-9 on SPEC92 only) and returns
// their corpus entries, keyed by benchmark.
func spec92Traces(scale int) (map[string]*corpus.Entry, error) {
	entries := make(map[string]*corpus.Entry)
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		e := corpusEntry(name, scale)
		if _, err := e.Refs(); err != nil {
			return nil, err
		}
		entries[name] = e
	}
	return entries, nil
}

// ladderRow is one table row: a trace measured at every core.TrafficSizes
// column. Exported field: the row must survive the ledger's JSON
// round-trip.
type ladderRow[T any] struct {
	Cells []T
}

// sizeLadders runs Tables 7 and 8 on the runner pool, one task per trace,
// each walking the full size ladder of 32-byte-block direct-mapped caches,
// so a checkpointed cell is a complete table row named "<table>:<trace>".
func sizeLadders[T any](workers, scale int, table string, names []string, entries map[string]*corpus.Entry,
	measure func(cache.Config, core.RefTrace, int64) (T, error)) ([]ladderRow[T], error) {
	return runner.Map(context.Background(), gridPool(workers, scale, defaultCacheScale, func(i int) string {
		return table + ":" + names[i]
	}), len(names), func(_ context.Context, i int, _ *telemetry.Tracer) (ladderRow[T], error) {
		e := entries[names[i]]
		meta, err := e.Meta()
		if err != nil {
			return ladderRow[T]{}, err
		}
		var row ladderRow[T]
		for _, sz := range core.TrafficSizes() {
			res, err := measure(cache.Config{Size: sz, BlockSize: 32, Assoc: 1}, e, meta.DataSetBytes)
			if err != nil {
				return ladderRow[T]{}, err
			}
			row.Cells = append(row.Cells, res)
		}
		return row, nil
	})
}

func runTable7(args []string) error {
	fs := flag.NewFlagSet("table7", flag.ContinueOnError)
	scale := scaleFlag(fs)
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	entries, err := spec92Traces(*scale)
	if err != nil {
		return err
	}
	sizes := core.TrafficSizes()
	header := []string{"Trace"}
	for _, sz := range sizes {
		header = append(header, tablefmt.Bytes(int64(sz)))
	}
	t := tablefmt.New("Table 7: traffic ratios for 32-byte block, direct-mapped caches", header...)
	names := workload.SuiteNames(workload.SPEC92)
	rows, err := sizeLadders(*workers, *scale, "table7", names, entries, core.MeasureRatioRefs)
	if err != nil {
		return err
	}
	// Render — and publish the per-configuration counters — from the
	// ordered results, outside the pool: a rerun serves rows from the
	// ledger without re-simulating, and publishing here keeps its metrics
	// identical to an uninterrupted run's.
	results := map[string][]core.RatioResult{}
	for i, name := range names {
		row := []string{name}
		for j, res := range rows[i].Cells {
			res.Stats.Publish(observation().Metrics,
				fmt.Sprintf("cache.%s.%s", name, tablefmt.Bytes(int64(sizes[j]))))
			results[name] = append(results[name], res)
			if res.FitsDataSet {
				row = append(row, "<<<")
			} else {
				row = append(row, fmt.Sprintf("%.2f", res.R))
			}
		}
		t.AddRow(row...)
	}
	fmt.Println(t)
	fmt.Println("(\"<<<\" marks caches at least as large as the data set, as in the paper.)")
	// The paper's Section 4.2 summary statistic: the arithmetic mean of R
	// over caches >= 64KB and smaller than each benchmark's data set
	// ("reasonably-sized on-chip caches reduce the traffic from the
	// processor by about half": mean 0.51).
	var sum float64
	var n int
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		meta, err := entries[name].Meta()
		if err != nil {
			return err
		}
		for i, sz := range sizes {
			if sz < 64<<10 || int64(sz) >= meta.DataSetBytes {
				continue
			}
			sum += results[name][i].R
			n++
		}
	}
	if n > 0 {
		fmt.Printf("mean R over >=64KB caches smaller than the data set: %.2f (paper: 0.51)\n", sum/float64(n))
	}
	fmt.Println()
	return nil
}

func runTable8(args []string) error {
	fs := flag.NewFlagSet("table8", flag.ContinueOnError)
	scale := scaleFlag(fs)
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	entries, err := spec92Traces(*scale)
	if err != nil {
		return err
	}
	header := []string{"Trace"}
	for _, sz := range core.TrafficSizes() {
		header = append(header, tablefmt.Bytes(int64(sz)))
	}
	t := tablefmt.New("Table 8: traffic inefficiencies for 32-byte block, direct-mapped caches", header...)
	names := workload.SuiteNames(workload.SPEC92)
	rows, err := sizeLadders(*workers, *scale, "table8", names, entries, core.MeasureInefficiencyRefs)
	if err != nil {
		return err
	}
	for i, name := range names {
		row := []string{name}
		for _, res := range rows[i].Cells {
			if res.FitsDataSet {
				row = append(row, "<<<")
			} else {
				row = append(row, fmt.Sprintf("%.1f", res.G))
			}
		}
		t.AddRow(row...)
	}
	fmt.Println(t)
	return nil
}

func runFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ContinueOnError)
	scale := scaleFlag(fs)
	benchList := benchListFlag(fs, "bench", "compress,eqntott,swm", "comma-separated `benchmarks` to plot")
	plot := fs.Bool("plot", true, "render ASCII plots")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	blockSizes := []int{4, 8, 16, 32, 64, 128}
	sizes := core.TrafficSizes()
	for _, name := range *benchList {
		e := corpusEntry(name, *scale)
		refs, err := e.Refs()
		if err != nil {
			return err
		}
		header := []string{"config"}
		for _, sz := range sizes {
			header = append(header, tablefmt.Bytes(int64(sz)))
		}
		t := tablefmt.New(fmt.Sprintf("Figure 4 (%s): total traffic (KB) by cache/MTC size", name), header...)
		pl := tablefmt.Plot{
			Title:  fmt.Sprintf("Figure 4 (%s): traffic vs size, log-log", name),
			XLabel: "bytes", LogX: true, LogY: true, Height: 16,
		}
		for _, bs := range blockSizes {
			row := []string{fmt.Sprintf("4-way %dB blocks", bs)}
			var xs, ys []float64
			for _, sz := range sizes {
				if sz < bs*8 {
					row = append(row, "-")
					continue
				}
				cfg := cache.Config{Size: sz, BlockSize: bs, Assoc: 4}
				c, err := cache.New(cfg)
				if err != nil {
					return err
				}
				st := c.RunRefs(refs)
				kb := float64(st.TrafficBytes()) / 1024
				row = append(row, fmt.Sprintf("%.0f", kb))
				xs = append(xs, float64(sz))
				ys = append(ys, kb)
			}
			t.AddRow(row...)
			pl.Add(tablefmt.Series{Name: fmt.Sprintf("%dB blocks", bs), X: xs, Y: ys})
		}
		for _, m := range []struct {
			label string
			alloc mtc.AllocPolicy
		}{
			{"MTC write-allocate", mtc.WriteAllocate},
			{"MTC write-validate", mtc.WriteValidate},
		} {
			row := []string{m.label}
			var xs, ys []float64
			// One word-grain future table serves all 12 sizes × 2 policies.
			fut, err := e.Future(trace.WordSize)
			if err != nil {
				return err
			}
			for _, sz := range sizes {
				st, err := mtc.SimulateRefs(mtc.Config{Size: sz, BlockSize: trace.WordSize, Alloc: m.alloc}, fut, refs)
				if err != nil {
					return err
				}
				kb := float64(st.TrafficBytes()) / 1024
				row = append(row, fmt.Sprintf("%.0f", kb))
				xs = append(xs, float64(sz))
				ys = append(ys, kb)
			}
			t.AddRow(row...)
			pl.Add(tablefmt.Series{Name: m.label, X: xs, Y: ys})
		}
		fmt.Println(t)
		if *plot {
			fmt.Println(pl.String())
		}
	}
	return nil
}

func runTable9(args []string) error {
	fs := flag.NewFlagSet("table9", flag.ContinueOnError)
	scale := scaleFlag(fs)
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	entries, err := spec92Traces(*scale)
	if err != nil {
		return err
	}
	names := workload.SuiteNames(workload.SPEC92)
	header := []string{"Factor"}
	header = append(header, names...)
	t := tablefmt.New("Table 9: inefficiency gap for different optimizations (64KB caches; 16KB espresso)", header...)
	// Print the experiment-pair legend (Table 10) first.
	legend := tablefmt.New("Table 10: experimental parameters",
		"Factor", "Exp1", "Exp2")
	for _, spec := range core.Factors(64 << 10) {
		legend.AddRow(spec.Name, spec.Exp1.Label, spec.Exp2.Label)
	}
	fmt.Println(legend)

	// One task per benchmark: its column of the table, ΔG for each factor
	// pair in core.Factors order.
	type factorColumn struct {
		DeltaG []float64
	}
	cols, err := runner.Map(context.Background(), gridPool(*workers, *scale, defaultCacheScale, func(i int) string {
		return "table9:" + names[i]
	}), len(names), func(_ context.Context, i int, _ *telemetry.Tracer) (factorColumn, error) {
		_, results, err := core.MeasureFactorColumn(entries[names[i]], core.FactorSize(names[i]))
		if err != nil {
			return factorColumn{}, err
		}
		var col factorColumn
		for _, res := range results {
			col.DeltaG = append(col.DeltaG, res.DeltaG)
		}
		return col, nil
	})
	if err != nil {
		return err
	}
	for f, spec := range core.Factors(64 << 10) {
		row := []string{spec.Name}
		for i := range names {
			row = append(row, fmt.Sprintf("%.1f", cols[i].DeltaG[f]))
		}
		t.AddRow(row...)
	}
	fmt.Println(t)
	return nil
}

func runEpin(args []string) error {
	fs := flag.NewFlagSet("epin", flag.ContinueOnError)
	scale := scaleFlag(fs)
	pinBW := fs.Float64("pinbw", 1600, "raw pin bandwidth in MB/s (R10000-class package)")
	size := minIntFlag(fs, "cachekb", 64, 1, "on-chip L1 size in `KB`")
	l2kb := minIntFlag(fs, "l2kb", 0, 0, "optional on-chip L2 size in `KB` (0 = single level); Eq. 5 then uses R1*R2")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if !(*pinBW > 0) || math.IsInf(*pinBW, 1) {
		return usageErr(fmt.Errorf("-pinbw %v: want a positive, finite bandwidth", *pinBW))
	}
	entries, err := spec92Traces(*scale)
	if err != nil {
		return err
	}
	t := tablefmt.New(fmt.Sprintf("Effective pin bandwidth, %dKB on-chip cache, B_pin=%.0f MB/s", *size, *pinBW),
		"Benchmark", "R", "E_pin (MB/s)", "G", "OE_pin (MB/s)")
	for _, name := range workload.SuiteNames(workload.SPEC92) {
		e := entries[name]
		meta, err := e.Meta()
		if err != nil {
			return err
		}
		cfg := cache.Config{Size: *size << 10, BlockSize: 32, Assoc: 1}
		rr, err := core.MeasureRatioRefs(cfg, e, meta.DataSetBytes)
		if err != nil {
			return err
		}
		ir, err := core.MeasureInefficiencyRefs(cfg, e, meta.DataSetBytes)
		if err != nil {
			return err
		}
		if rr.FitsDataSet {
			t.AddRow(name, "<<<", "-", "-", "-")
			continue
		}
		ratios := []float64{rr.R}
		if *l2kb > 0 {
			hier, err := cache.NewHierarchy(
				cache.Config{Size: *size << 10, BlockSize: 32, Assoc: 1},
				cache.Config{Size: *l2kb << 10, BlockSize: 64, Assoc: 4},
			)
			if err != nil {
				return err
			}
			refs, err := e.Refs()
			if err != nil {
				return err
			}
			ratios = hier.Run(refs)
		}
		epin := core.EffectivePinBandwidth(*pinBW, ratios...)
		// With -l2kb this is Equation 7 with G2 = 1: G2 >= 1, so it is no
		// larger than the true bound, and G1 >= 1 keeps it above E_pin.
		oepin := core.OptimalEffectivePinBandwidth(*pinBW, []float64{ir.G}, ratios)
		t.AddRow(name,
			fmt.Sprintf("%.2f", rr.R),
			fmt.Sprintf("%.0f", epin),
			fmt.Sprintf("%.1f", ir.G),
			fmt.Sprintf("%.0f", oepin))
	}
	fmt.Println(t)
	if *l2kb > 0 {
		fmt.Printf("E_pin = B_pin / (R1*R2) (Eq. 5), R2 from a %dKB L2; R and G are level 1's.\n", *l2kb)
		fmt.Println("OE_pin = B_pin * G / (R1*R2) (Eq. 7 with G2 = 1, no larger than the true bound).")
	} else {
		fmt.Println("E_pin = B_pin / R (Eq. 5); OE_pin = B_pin * G / R (Eq. 7).")
	}
	fmt.Println()
	return nil
}
