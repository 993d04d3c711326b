// The explain subcommand: a structured time-attribution report over the
// Figure 3 grid. It answers two questions no paper table covers —
// where did the *simulated* time go (the T_P/T_L/T_B decomposition per
// machine config, cross-checked against the stall ledger's cause
// accounting) and where did the *wall-clock* time go (per-cell runner
// stats, corpus/checkpoint hit attribution).
//
// Output layers:
//
//	stdout       human tables: per-config decomposition, top stall
//	             causes, grid wall-clock breakdown
//	-json        the full attr.Report (add -record to embed the raw
//	             per-cell series and ledgers)
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
	"strings"

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
	benches := fs.String("benches", "", "comma-separated benchmark subset (default: the suite's timing benchmarks)")
	interval := minIntFlag(fs, "interval", 8192, 1, "sampling period in simulated `cycles`")
	maxSamples := minIntFlag(fs, "max-samples", 2048, 1, "per-series sample `cap` (beyond it, decimation doubles the interval)")
	top := minIntFlag(fs, "top", 5, 0, "`rows` in the top-causes table")
	jsonPath := fs.String("json", "", "write the full report as JSON to this file")
	record := fs.Bool("record", false, "embed raw per-cell series/ledger records in the JSON report")
	samplesPath := fs.String("samples", "", "write interval samples as JSONL to this file")
	csvPath := fs.String("csv", "", "write interval samples as CSV to this file")
	perfettoPath := fs.String("perfetto", "", "write interval samples as Perfetto counter tracks to this file")
	check := fs.Bool("check", false, "validate report schema and reconciliation; non-zero exit on violation")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	suites, err := workload.ParseSuites(*suiteName)
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
	for _, suite := range suites {
		progs, err := generateSuite(suite, *scale)
		if err != nil {
			return err
		}
		progs, err = filterBenches(progs, *benches)
		if err != nil {
			return usageErr(err)
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
	// Corpus/checkpoint/serve hit attribution rides on the metrics
	// registry: present only when the run had -metrics (the counters
	// live there). The serve.* prefix covers reports written by a
	// draining `memwall serve -metrics` run.
	if snap := observation().Metrics.Snapshot(); len(snap.Counters) > 0 {
		if hits := snap.CounterPrefix("corpus.", "checkpoint.", "serve."); len(hits) > 0 {
			rep.Corpus = hits
		}
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

// filterBenches restricts progs to the comma-separated names in list
// (empty list keeps everything); unknown names are a usage error, not a
// silent empty grid.
func filterBenches(progs []*workload.Program, list string) ([]*workload.Program, error) {
	if list == "" {
		return progs, nil
	}
	byName := map[string]*workload.Program{}
	for _, p := range progs {
		byName[p.Name] = p
	}
	var out []*workload.Program
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q in -benches", name)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-benches %q selected no benchmarks", list)
	}
	return out, nil
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
	if len(rep.Corpus) > 0 {
		fmt.Printf("explain: corpus/checkpoint counters: %d recorded (see -json report)\n", len(rep.Corpus))
	}
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
