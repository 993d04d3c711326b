// Subcommands for the paper's trend and analytical artifacts: Figure 1,
// Table 2, Figure 2, and the Section 4.3 extrapolation.
package main

import (
	"flag"
	"fmt"
	"math"

	"memwall/internal/iocomplexity"
	"memwall/internal/tablefmt"
	"memwall/internal/trends"
)

func init() {
	register("fig1", "Figure 1: pin/performance/bandwidth trends 1978-1997", runFig1)
	register("table2", "Table 2: I/O-complexity growth rates", runTable2)
	register("fig2", "Figure 2: processing vs bandwidth trend curves", runFig2)
	register("extrapolate", "Section 4.3: the processor of 2006", runExtrapolate)
}

func runFig1(args []string) error {
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	plot := fs.Bool("plot", true, "render ASCII plots")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	chips := trends.Chips()
	t := tablefmt.New("Figure 1 data: microprocessor packages 1978-1997",
		"chip", "year", "pins", "MIPS", "pin MB/s", "MIPS/pin", "MIPS/(MB/s)")
	for _, c := range chips {
		t.AddRow(c.Name,
			fmt.Sprintf("%.1f", c.Year),
			fmt.Sprintf("%d", c.Pins),
			fmt.Sprintf("%.2f", c.MIPS),
			fmt.Sprintf("%.0f", c.PinBWMBs),
			fmt.Sprintf("%.4f", c.MIPSPerPin()),
			fmt.Sprintf("%.4f", c.MIPSPerBW()))
	}
	fmt.Println(t)
	f, err := trends.Fit(chips)
	if err != nil {
		return err
	}
	fmt.Printf("fitted growth rates: pins %.1f%%/yr (paper: ~16%%/yr), MIPS/pin %.1f%%/yr, MIPS/(MB/s) %.1f%%/yr\n\n",
		f.PinGrowth*100, f.MIPSPerPinGrowth*100, f.MIPSPerBWGrowth*100)
	if !*plot {
		return nil
	}
	for _, panel := range []struct {
		title string
		y     func(c trends.Chip) float64
	}{
		{"Figure 1a: pins per processor (log scale)", func(c trends.Chip) float64 { return float64(c.Pins) }},
		{"Figure 1b: MIPS per pin (log scale)", trends.Chip.MIPSPerPin},
		{"Figure 1c: MIPS per (pin MB/s) (log scale)", trends.Chip.MIPSPerBW},
	} {
		p := tablefmt.Plot{Title: panel.title, XLabel: "year", LogY: true, Height: 14}
		var xs, ys []float64
		for _, c := range chips {
			xs = append(xs, c.Year)
			ys = append(ys, panel.y(c))
		}
		p.Add(tablefmt.Series{Name: "processors", X: xs, Y: ys})
		fmt.Println(p.String())
	}
	return nil
}

func runTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ContinueOnError)
	n := fs.Float64("n", 4096, "problem size N for numeric evaluation")
	s := fs.Float64("s", 65536, "on-chip memory size S (words)")
	k := fs.Float64("k", 4, "memory growth factor k")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	for _, p := range []struct {
		flag, name string
		v, x       float64 // the flag's value and the formulas' argument
	}{{"-n", "N", *n, *n}, {"-s", "S", *s, *s}, {"-k", "k·S", *k, *k * *s}} {
		if !iocomplexity.InDomain(p.x) {
			return usageErr(fmt.Errorf("%s %v: want 1 < %s <= %g", p.flag, p.v, p.name, iocomplexity.MaxArg))
		}
	}
	t := tablefmt.New("Table 2: application growth rates",
		"Algorithm", "Memory", "Comp. (C)", "Memory traffic (D)", "C/D growth",
		fmt.Sprintf("measured C/D gain (N=%.0f,S=%.0f,k=%.0f)", *n, *s, *k))
	for _, row := range iocomplexity.Table() {
		t.AddRow(row.Algorithm.String(), row.MemoryFormula, row.CompFormula,
			row.TrafficFormula, row.CDGrowthFormula,
			fmt.Sprintf("%.3f", row.CDGrowth(*n, *s, *k)))
	}
	fmt.Println(t)
	fmt.Printf("balance check (Section 2.4): with 4x the gates, TMM needs only %.2fx processing speed\n",
		iocomplexity.Table()[0].BalancePoint(*n, *s, 4))
	fmt.Println()
	return nil
}

func runFig2(args []string) error {
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	proc := fs.Float64("proc", 0.60, "processor bandwidth growth per year")
	pin := fs.Float64("pin", 0.25, "off-chip bandwidth growth per year")
	mem := fs.Float64("mem", 0.55, "on-chip memory growth per year")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	for _, g := range []struct {
		flag string
		v    float64
	}{{"-proc", *proc}, {"-pin", *pin}, {"-mem", *mem}} {
		if !iocomplexity.ValidGrowth(g.v) {
			return usageErr(fmt.Errorf("%s %v: want a growth rate above -1 and at most %g", g.flag, g.v, iocomplexity.MaxGrowth))
		}
	}
	pts := iocomplexity.Figure2(*proc, *pin, *mem)
	t := tablefmt.New("Figure 2: processing vs bandwidth changes (normalised to 1984)",
		"year", "processor b/w", "off-chip b/w", "gap(1)", "computation", "traffic", "gap(2)")
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%.0f", p.Year),
			fmt.Sprintf("%.2f", p.ProcessorBW),
			fmt.Sprintf("%.2f", p.OffChipBW),
			fmt.Sprintf("%.2f", ratio(p.ProcessorBW, p.OffChipBW)),
			fmt.Sprintf("%.2f", p.Computation),
			fmt.Sprintf("%.3f", p.Traffic),
			fmt.Sprintf("%.2f", ratio(p.Computation, p.Traffic)))
	}
	fmt.Println(t)
	fmt.Println("gap(1) is processor-vs-pin bandwidth; gap(2) is computation-vs-traffic.")
	fmt.Println("When gap(1) outgrows gap(2), machines become more bandwidth-bound (Section 2.4).")
	fmt.Println()
	return nil
}

func runExtrapolate(args []string) error {
	fs := flag.NewFlagSet("extrapolate", flag.ContinueOnError)
	pins := fs.Float64("pins", 500, "base package pin count")
	pinG := fs.Float64("pingrowth", 0.16, "pin growth per year")
	perfG := fs.Float64("perfgrowth", 0.60, "sustained performance growth per year")
	years := minIntFlag(fs, "years", 10, 0, "`years` ahead")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if !(*pins > 0) || math.IsInf(*pins, 1) {
		return usageErr(fmt.Errorf("-pins %v: want a positive, finite pin count", *pins))
	}
	for _, g := range []struct {
		flag string
		v    float64
	}{{"-pingrowth", *pinG}, {"-perfgrowth", *perfG}} {
		if !(g.v > -1) || math.IsInf(g.v, 1) {
			return usageErr(fmt.Errorf("%s %v: want a finite growth rate above -1", g.flag, g.v))
		}
	}
	e := trends.Extrapolate(*pins, *pinG, *perfG, *years)
	for _, x := range []float64{e.Pins, e.PerformanceFactor, e.BandwidthPerPinFactor} {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return usageErr(fmt.Errorf("-years %d: the projection leaves float64's range at these growth rates", *years))
		}
	}
	fmt.Printf("Section 4.3 extrapolation (%d years ahead):\n", e.Years)
	fmt.Printf("  projected package pins:        %.0f (paper: \"two or three thousand\")\n", e.Pins)
	fmt.Printf("  performance factor:            %.1fx\n", e.PerformanceFactor)
	fmt.Printf("  required bandwidth per pin:    %.1fx today's (paper: \"a factor of 25\")\n", e.BandwidthPerPinFactor)
	fmt.Println()
	return nil
}
