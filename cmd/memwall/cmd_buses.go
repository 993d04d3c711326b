// The buses subcommand: per-bus attribution of bandwidth stalls.
package main

import (
	"flag"
	"fmt"
	"strings"

	"memwall/internal/core"
	"memwall/internal/tablefmt"
)

func init() {
	register("buses", "attribute f_B to the L1/L2 bus vs the memory bus", runBuses)
}

func runBuses(args []string) error {
	fs := flag.NewFlagSet("buses", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	exp := fs.String("exp", "F", "experiment machine (A-F)")
	benchList := fs.String("bench", "su2cor,swm,compress,eqntott", "comma-separated workloads")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	t := tablefmt.New(fmt.Sprintf("Bandwidth-stall attribution by bus (machine %s)", *exp),
		"benchmark", "f_B", "f_B(mem bus)", "f_B(L1/L2 bus)", "interaction")
	for _, name := range strings.Split(*benchList, ",") {
		name = strings.TrimSpace(name)
		p, err := corpusProgram(name, *scale)
		if err != nil {
			return err
		}
		m, err := core.MachineByName(p.Suite, *exp, *cacheScale)
		if err != nil {
			return err
		}
		res, err := core.DecomposeBuses(m, p.Insts)
		if err != nil {
			return err
		}
		t.AddRow(name,
			fmt.Sprintf("%.2f", res.FB()),
			fmt.Sprintf("%.2f", res.FBMemBus()),
			fmt.Sprintf("%.2f", res.FBL12Bus()),
			fmt.Sprintf("%+.2f", res.FBInteraction()))
	}
	fmt.Println(t)
	fmt.Println("The paper argues the pin interface (here the memory bus) is the")
	fmt.Println("bottleneck hardest to widen (Section 2.3); the attribution shows where")
	fmt.Println("each workload's bandwidth stalls actually come from.")
	fmt.Println()
	return nil
}
