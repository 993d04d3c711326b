// The scratchpad subcommand: the paper's Section 6 proposal that "the
// kinds of analyses performed for effective register allocation might be
// readily extended" to let software place data structures in on-chip
// memory. For one workload, each named data region is tried in a
// software-managed scratchpad and the execution-time decomposition
// reports what pinning it on chip would buy — a measurement a compiler's
// placement pass would use.
package main

import (
	"flag"
	"fmt"

	"memwall/internal/core"
	"memwall/internal/mem"
	"memwall/internal/tablefmt"
	"memwall/internal/workload"
)

func init() {
	register("scratchpad", "Section 6: compiler-managed on-chip data placement study", runScratchpad)
}

func runScratchpad(args []string) error {
	fs := flag.NewFlagSet("scratchpad", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	bench := benchFlag(fs, "bench", "compress", "`workload` to study")
	exp := fs.String("exp", "F", "experiment machine (A-F)")
	budget := minIntFlag(fs, "kb", 64, 0, "scratchpad capacity budget in `KB`")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	p, err := corpusProgram(*bench, *scale)
	if err != nil {
		return err
	}
	m, err := core.MachineByName(p.Suite, *exp, *cacheScale)
	if err != nil {
		return err
	}
	base, err := core.Decompose(m, p.Insts)
	if err != nil {
		return err
	}

	t := tablefmt.New(
		fmt.Sprintf("Scratchpad placement study: %s on machine %s (budget %dKB)", *bench, *exp, *budget),
		"region on chip", "size", "cycles", "speedup", "f_P", "f_L", "f_B")
	t.AddRow("(none)", "-",
		fmt.Sprintf("%d", base.T), "1.00x",
		fmt.Sprintf("%.2f", base.FP()),
		fmt.Sprintf("%.2f", base.FL()),
		fmt.Sprintf("%.2f", base.FB()))

	type candidate struct {
		region  workload.Region
		speedup float64
	}
	var best *candidate
	for _, region := range p.Regions {
		if region.Size > uint64(*budget)<<10 {
			t.AddRow(region.Name, tablefmt.Bytes(int64(region.Size)),
				"-", "over budget", "-", "-", "-")
			continue
		}
		mm := m
		mm.Mem.Scratchpad = mem.ScratchpadConfig{Base: region.Base, Size: region.Size}
		res, err := core.Decompose(mm, p.Insts)
		if err != nil {
			return err
		}
		speedup := float64(base.T) / float64(max(1, res.T))
		t.AddRow(region.Name, tablefmt.Bytes(int64(region.Size)),
			fmt.Sprintf("%d", res.T),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.2f", res.FP()),
			fmt.Sprintf("%.2f", res.FL()),
			fmt.Sprintf("%.2f", res.FB()))
		if best == nil || speedup > best.speedup {
			best = &candidate{region, speedup}
		}
	}
	fmt.Println(t)
	if best != nil {
		fmt.Printf("best single placement: %s (%.2fx)\n", best.region.Name, best.speedup)
	}
	fmt.Println("Section 6: software-managed on-chip memory turns the hottest structure's")
	fmt.Println("traffic into one-cycle accesses — the paper's register-allocation analogy.")
	fmt.Println()
	return nil
}
