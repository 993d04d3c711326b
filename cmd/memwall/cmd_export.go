// The export and future subcommands: machine-readable results, and the
// measured version of the Section 2.4 "future processor" thought
// experiment.
package main

import (
	"flag"
	"fmt"
	"os"

	"memwall/internal/core"
	"memwall/internal/report"
	"memwall/internal/tablefmt"
	"memwall/internal/workload"
)

func init() {
	register("export", "emit all experiment results as JSON", runExport)
	register("future", "Section 2.4: scale the processor, watch f_B grow", runFuture)
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	workers := workersFlag(fs)
	skipTiming := fs.Bool("notiming", false, "skip the Figure 3 timing runs")
	headline := fs.Bool("headline", false, "emit only the headline summary")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// gridPool threads the run's Flight and fault injector into
	// the Figure 3 grid (Figure3Pool names the cells itself).
	pool := gridPool(*workers, nil)
	r, err := report.Collect(report.Options{
		Scale:      *scale,
		CacheScale: *cacheScale,
		SkipTiming: *skipTiming,
		Pool:       &pool,
		Corpus:     activeCorpus(),
	})
	if err != nil {
		return err
	}
	if *headline {
		h := r.Headline()
		fmt.Printf("{\n  \"pinGrowthPct\": %.2f,\n  \"bwPerPin2006\": %.2f,\n  \"tmmGainAtK4\": %.3f,\n  \"fbExceedsFLCountExpF\": %d,\n  \"timedBenchmarks\": %d,\n  \"maxInefficiency\": %.2f,\n  \"benchmarksWithRAbove1At1KB\": %d\n}\n",
			h.PinGrowthPct, h.BWPerPin2006, h.TMMGainAtK4,
			h.FBExceedsFLCount, h.TimedBenchmarks, h.MaxInefficiency, h.SmallCacheAmplify)
		return nil
	}
	return r.WriteJSON(os.Stdout)
}

// runFuture measures Section 2.4's argument directly: hold the memory
// system's absolute speed constant, make the processor faster generation
// by generation, and watch the bandwidth-stall fraction grow — then grow
// the on-chip memory by 4x per generation (with processing "only" 2x
// faster, the TMM balance point) and watch the balance hold.
func runFuture(args []string) error {
	fs := flag.NewFlagSet("future", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	bench := benchFlag(fs, "bench", "compress", "`workload` to project")
	gens := minIntFlag(fs, "generations", 3, 0, "`number` of processor generations to project")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	p, err := corpusProgram(*bench, *scale)
	if err != nil {
		return err
	}
	base, err := core.MachineByName(workload.SPEC92, "F", *cacheScale)
	if err != nil {
		return err
	}

	t := tablefmt.New(fmt.Sprintf("Faster processors, same package (%s, machine F base)", *bench),
		"generation", "clock x", "f_P", "f_L", "f_B")
	m := base
	for g := 0; g <= *gens; g++ {
		res, err := core.Decompose(m, p.Insts)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%dx", 1<<g),
			fmt.Sprintf("%.2f", res.FP()),
			fmt.Sprintf("%.2f", res.FL()),
			fmt.Sprintf("%.2f", res.FB()))
		fasterClock(&m)
	}
	fmt.Println(t)

	t2 := tablefmt.New("Adding on-chip memory with each generation (4x memory, 2x clock)",
		"generation", "clock x", "L1", "L2", "f_P", "f_L", "f_B")
	m = base
	for g := 0; g <= *gens; g++ {
		res, err := core.Decompose(m, p.Insts)
		if err != nil {
			return err
		}
		t2.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%dx", 1<<g),
			tablefmt.Bytes(int64(m.Mem.L1.Size)), tablefmt.Bytes(int64(m.Mem.L2.Size)),
			fmt.Sprintf("%.2f", res.FP()),
			fmt.Sprintf("%.2f", res.FL()),
			fmt.Sprintf("%.2f", res.FB()))
		fasterClock(&m)
		m.Mem.L1.Size *= 4
		m.Mem.L2.Size *= 4
	}
	fmt.Println(t2)
	fmt.Println("Section 2.4: faster clocks against a fixed package push f_B up; growing")
	fmt.Println("the on-chip memory by the square of the speedup restores the balance.")
	fmt.Println()
	return nil
}
