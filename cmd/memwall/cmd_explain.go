// The explain subcommand: a structured time-attribution report over the
// Figure 3 grid. It answers two questions no paper table covers —
// where did the *simulated* time go (the T_P/T_L/T_B decomposition per
// machine config, cross-checked against the stall ledger's cause
// accounting) and where did the *wall-clock* time go (per-cell runner
// stats, computed against checkpoint-served cells).
//
// Output layers:
//
//	stdout       human tables: per-config decomposition, top stall
//	             causes, grid wall-clock breakdown
//	-json        the full attr.Report (add -record to embed each cell's
//	             raw samples and stall ledger)
//	-samples     interval samples as JSONL, one object per sample
//	-csv         the same samples as CSV under attr.SamplesCSVHeader
//	-perfetto    the same samples as Perfetto counter tracks
//	-check       validate schema + T_P+T_L+T_B reconciliation, exit 1
//	             on violation (the CI gate)
//
// The interval-sample exports are byte-identical at any -j: they derive
// only from the per-cell attribution records, which are a pure function
// of the simulated run. Wall-clock data appears only in the report
// proper (stdout/-json) and is the one part that varies run to run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"memwall/internal/attr"
	"memwall/internal/checkpoint"
	"memwall/internal/core"
	"memwall/internal/runner"
	"memwall/internal/tablefmt"
	"memwall/internal/workload"
)

func init() {
	register("explain", "structured run report: T_P/T_L/T_B split, stall causes, interval samples", runExplain)
}

func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	workers := workersFlag(fs)
	suiteName := fs.String("suite", "92", "92, 95, or both")
	benches := benchListFlag(fs, "benches", "", "comma-separated benchmark `subset` (default: the suite's timing benchmarks)")
	interval := minIntFlag(fs, "interval", 8192, 1, "sampling period in simulated `cycles`")
	maxSamples := minIntFlag(fs, "max-samples", 2048, 1, "per-series sample `cap` (beyond it, decimation doubles the interval)")
	top := minIntFlag(fs, "top", 5, 0, "`rows` in the top-causes table")
	jsonPath := pathFlag(fs, "json", "write the full report as JSON to this `file`")
	record := fs.Bool("record", false, "embed each cell's raw samples and stall ledger in the JSON report")
	samplesPath := pathFlag(fs, "samples", "write interval samples as JSONL to this `file`")
	csvPath := pathFlag(fs, "csv", "write interval samples as CSV to this `file`")
	perfettoPath := pathFlag(fs, "perfetto", "write interval samples as Perfetto counter tracks to this `file`")
	check := fs.Bool("check", false, "validate report schema and reconciliation; non-zero exit on violation")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	suites, err := workload.ParseSuites(*suiteName)
	if err != nil {
		return usageErr(err)
	}
	panels, err := explainPanels(suites, *benches)
	if err != nil {
		return usageErr(err)
	}

	opts := attr.Options{Interval: int64(*interval), MaxSamples: *maxSamples}
	type labeledRecord struct {
		label string
		rec   *attr.RunRecord
	}
	var (
		configs []attr.ConfigReport
		records []labeledRecord
		wall    attr.WallReport
	)
	for i, suite := range suites {
		if len(panels[i]) == 0 {
			continue
		}
		progs, err := generatePrograms(panels[i], *scale)
		if err != nil {
			return err
		}
		// The panel's Figure 3 cells with attribution attached, resolved
		// like every other Figure 3 caller's (see core.ResolveFigure3).
		var cells []core.Figure3Cell
		for _, p := range progs {
			for _, m := range core.MachinesScaled(suite, *cacheScale) {
				m.Attr = &opts
				cells = append(cells, core.Figure3Cell{Suite: suite, Program: p, Machine: m})
			}
		}
		pool := gridPool(*workers, nil)
		stats := &runner.CellStats{}
		pool.Cells = stats
		results, err := core.ResolveFigure3(context.Background(), cells, pool)
		if err != nil {
			return err
		}
		for i, c := range cells {
			configs = append(configs, core.BuildConfigReport(c, results[i], *record))
			records = append(records, labeledRecord{
				label: fmt.Sprintf("%s:%s/%s", suite, c.Program.Name, c.Machine.Name),
				rec:   results[i].Attr,
			})
		}
		for _, r := range stats.Records() {
			cached := r.Source == checkpoint.SourceCached.String()
			wall.Cells = append(wall.Cells, attr.WallCell{
				Key: r.Key, Seconds: r.WallSeconds,
				QueueSeconds: r.QueueSeconds, FromCheckpoint: cached,
			})
			wall.TotalSeconds += r.WallSeconds
			if cached {
				wall.CheckpointCells++
			} else {
				wall.ComputedCells++
			}
		}
	}

	rep := &attr.Report{
		SchemaVersion: attr.ReportSchemaVersion,
		Interval:      opts.Interval,
		Configs:       configs,
		TopCauses:     attr.TopCausesFromConfigs(configs),
		Wall:          wall,
	}
	printExplain(rep, *top)

	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *samplesPath != "" {
		if err := writeExport(*samplesPath, "", func(w *os.File) error {
			for _, lr := range records {
				if err := lr.rec.WriteSamplesJSONL(w, lr.label); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		if err := writeExport(*csvPath, attr.SamplesCSVHeader+"\n", func(w *os.File) error {
			for _, lr := range records {
				if err := lr.rec.WriteSamplesCSV(w, lr.label); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if *perfettoPath != "" {
		if err := writeExport(*perfettoPath, "", func(w *os.File) error {
			for i, lr := range records {
				// One pid per cell, so Perfetto groups each cell's
				// counter tracks together.
				if err := lr.rec.WritePerfetto(w, lr.label, i+1); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}

	if *check {
		if err := rep.Validate(); err != nil {
			return err
		}
		fmt.Println("explain: report valid — schema ok, decomposition reconciles, ledger identities hold")
	}
	return nil
}

// explainPanels returns, for each suite, the benchmarks its panel runs:
// its timing benchmarks, or the -benches names among them in the list's
// order. A name that no suite's panel keeps is a usage error.
func explainPanels(suites []workload.Suite, benches []string) ([][]string, error) {
	panels := make([][]string, len(suites))
	kept := map[string]bool{}
	for i, suite := range suites {
		timing := core.Figure3Benchmarks(suite)
		if benches == nil {
			panels[i] = timing
			continue
		}
		for _, name := range benches {
			if slices.Contains(timing, name) {
				panels[i] = append(panels[i], name)
				kept[name] = true
			}
		}
	}
	for _, name := range benches {
		if !kept[name] {
			return nil, fmt.Errorf("-benches %s: not a timing benchmark of %v", name, suites)
		}
	}
	return panels, nil
}

// printExplain renders the report's human tables.
func printExplain(rep *attr.Report, top int) {
	t := tablefmt.New("explain: simulated-time attribution per machine config",
		"suite", "benchmark", "exp", "T (cycles)", "f_P", "f_L", "f_B", "ledger top cause", "skew")
	for _, c := range rep.Configs {
		t.AddRow(c.Suite, c.Benchmark, c.Experiment,
			fmt.Sprintf("%d", c.T),
			fmt.Sprintf("%.2f", frac(c.TP, c.T)),
			fmt.Sprintf("%.2f", frac(c.TL, c.T)),
			fmt.Sprintf("%.2f", frac(c.TB, c.T)),
			topCause(c.CauseCycles),
			fmt.Sprintf("%.3f", c.AttributionSkew))
	}
	fmt.Println(t)

	ct := tablefmt.New("explain: top stall causes across the grid (ledger cycles)", "cause", "cycles")
	for i, c := range rep.TopCauses {
		if i >= top {
			break
		}
		ct.AddRow(c.Cause, fmt.Sprintf("%.0f", c.Cycles))
	}
	fmt.Println(ct)

	fmt.Printf("explain: wall clock — %.2fs total across %d cells (%d computed, %d from checkpoint)\n",
		rep.Wall.TotalSeconds, len(rep.Wall.Cells), rep.Wall.ComputedCells, rep.Wall.CheckpointCells)
	fmt.Println()
}

// topCause names the cause with the most ledger cycles ("-" when the
// cell has no ledger data).
func topCause(causes map[string]float64) string {
	best, bestV := "-", -1.0
	for _, name := range attr.CauseNames() {
		if v := causes[name]; v > bestV {
			best, bestV = name, v
		}
	}
	if bestV <= 0 {
		return "-"
	}
	return best
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// writeExport creates path, writes the optional header, runs fill, and
// closes — surfacing the close error (short writes on full disks appear
// there).
func writeExport(path, header string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if header != "" {
		if _, err := f.WriteString(header); err != nil {
			f.Close()
			return err
		}
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
