// Command memplot regenerates the paper's figures as SVG files:
//
//	memplot [-out dir] [-scale N] [-cachescale D] [fig1 fig3 fig4]
//
// With no figure arguments it renders all three. Figure 1 produces three
// panels (fig1a/b/c); Figure 3 one panel per suite; Figure 4 one panel
// per benchmark in its default trio.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/mtc"
	"memwall/internal/svgplot"
	"memwall/internal/trace"
	"memwall/internal/trends"
	"memwall/internal/workload"
)

func writeSVG(dir, name string, render func(f *os.File) error) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func plotFig1(dir string) error {
	chips := trends.Chips()
	panels := []struct {
		file, title, ylabel string
		y                   func(c trends.Chip) float64
	}{
		{"fig1a.svg", "Figure 1a: pins per processor, 1978-1997", "pins",
			func(c trends.Chip) float64 { return float64(c.Pins) }},
		{"fig1b.svg", "Figure 1b: performance per pin", "MIPS/pin", trends.Chip.MIPSPerPin},
		{"fig1c.svg", "Figure 1c: performance over pin bandwidth", "MIPS/(MB/s)", trends.Chip.MIPSPerBW},
	}
	for _, p := range panels {
		ch := svgplot.Chart{Title: p.title, XLabel: "year", YLabel: p.ylabel, LogY: true}
		var xs, ys []float64
		for _, c := range chips {
			xs = append(xs, c.Year)
			ys = append(ys, p.y(c))
		}
		ch.Add(svgplot.Series{Name: "processors", X: xs, Y: ys})
		if err := writeSVG(dir, p.file, func(f *os.File) error { return ch.Render(f) }); err != nil {
			return err
		}
	}
	return nil
}

func plotFig3(dir string, scale, cacheScale int) error {
	for _, suite := range []workload.Suite{workload.SPEC92, workload.SPEC95} {
		var progs []*workload.Program
		for _, name := range core.Figure3Benchmarks(suite) {
			p, err := workload.Generate(name, scale)
			if err != nil {
				return err
			}
			progs = append(progs, p)
		}
		cells, err := core.Figure3(suite, progs, cacheScale)
		if err != nil {
			return err
		}
		bars := svgplot.StackedBars{
			Title:        fmt.Sprintf("Figure 3 (%s): normalized execution time", suite),
			SegmentNames: []string{"f_P (compute)", "f_L (latency)", "f_B (bandwidth)"},
			BarLabels:    []string{"A", "B", "C", "D", "E", "F"},
		}
		byBench := map[string][][]float64{}
		var order []string
		for _, c := range cells {
			if _, seen := byBench[c.Benchmark]; !seen {
				order = append(order, c.Benchmark)
				byBench[c.Benchmark] = make([][]float64, 6)
			}
			idx := int(c.Experiment[0] - 'A')
			n := c.NormTime
			byBench[c.Benchmark][idx] = []float64{
				c.Result.FP() * n, c.Result.FL() * n, c.Result.FB() * n,
			}
		}
		for _, name := range order {
			bars.Groups = append(bars.Groups, name)
			bars.Parts = append(bars.Parts, byBench[name])
		}
		file := fmt.Sprintf("fig3-%s.svg", suite)
		if err := writeSVG(dir, file, func(f *os.File) error { return bars.Render(f) }); err != nil {
			return err
		}
	}
	return nil
}

func plotFig4(dir string, scale int) error {
	sizes := []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}
	for _, name := range []string{"compress", "eqntott", "swm"} {
		p, err := workload.Generate(name, scale)
		if err != nil {
			return err
		}
		refs := trace.Collect(p.MemRefs())
		fut, err := mtc.FutureOfRefs(refs, trace.WordSize)
		if err != nil {
			return err
		}
		ch := svgplot.Chart{
			Title:  fmt.Sprintf("Figure 4 (%s): total traffic vs cache and MTC size", name),
			XLabel: "cache size (bytes)", YLabel: "traffic (KB)",
			LogX: true, LogY: true, Lines: true,
		}
		for _, bs := range []int{4, 16, 32, 128} {
			var xs, ys []float64
			for _, sz := range sizes {
				if sz < bs*8 {
					continue
				}
				c, err := cache.New(cache.Config{Size: sz, BlockSize: bs, Assoc: 4})
				if err != nil {
					return err
				}
				st := c.RunRefs(refs)
				xs = append(xs, float64(sz))
				ys = append(ys, float64(st.TrafficBytes())/1024)
			}
			ch.Add(svgplot.Series{Name: fmt.Sprintf("%dB blocks", bs), X: xs, Y: ys})
		}
		for _, m := range []struct {
			label string
			alloc mtc.AllocPolicy
		}{{"MTC (write-allocate)", mtc.WriteAllocate}, {"MTC (write-validate)", mtc.WriteValidate}} {
			var xs, ys []float64
			for _, sz := range sizes {
				st, err := mtc.SimulateRefs(mtc.Config{Size: sz, BlockSize: trace.WordSize, Alloc: m.alloc}, fut, refs)
				if err != nil {
					return err
				}
				xs = append(xs, float64(sz))
				ys = append(ys, float64(st.TrafficBytes())/1024)
			}
			ch.Add(svgplot.Series{Name: m.label, X: xs, Y: ys})
		}
		file := fmt.Sprintf("fig4-%s.svg", name)
		if err := writeSVG(dir, file, func(f *os.File) error { return ch.Render(f) }); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	out := flag.String("out", "figures", "output directory for SVG files")
	scale := flag.Int("scale", 1, "workload trace-length multiplier")
	cacheScale := flag.Int("cachescale", 16, "cache-size divisor for the timing runs")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "memplot: %v\n", err)
		os.Exit(1)
	}
	figs := flag.Args()
	if len(figs) == 0 {
		figs = []string{"fig1", "fig3", "fig4"}
	}
	for _, fig := range figs {
		var err error
		switch fig {
		case "fig1":
			err = plotFig1(*out)
		case "fig3":
			err = plotFig3(*out, *scale, *cacheScale)
		case "fig4":
			err = plotFig4(*out, *scale)
		default:
			err = fmt.Errorf("unknown figure %q (want fig1, fig3, fig4)", fig)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "memplot %s: %v\n", fig, err)
			os.Exit(1)
		}
	}
}
