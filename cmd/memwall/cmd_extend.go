// Subcommands for the paper's forward-looking claims: the single-chip
// multiprocessor experiment (Section 2.2) and ablations of the
// traffic-reduction schemes it proposes (Section 5.3 / Section 6) —
// sector caches, write-validate caches, stream buffers, and the
// write-conscious MIN tie-breaker.
package main

import (
	"flag"
	"fmt"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/cpu"
	"memwall/internal/isa"
	"memwall/internal/mem"
	"memwall/internal/mtc"
	"memwall/internal/tablefmt"
	"memwall/internal/trace"
	"memwall/internal/units"
)

func init() {
	register("cmp", "Section 2.2: single-chip multiprocessor bandwidth scaling", runCMP)
	register("ablate", "Section 5.3/6: traffic-reduction scheme ablations", runAblate)
}

func runCMP(args []string) error {
	fs := flag.NewFlagSet("cmp", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	bench := benchFlag(fs, "bench", "swim95", "`workload` each core runs (disjoint address spaces)")
	maxCores := minIntFlag(fs, "cores", 4, 1, "maximum core `count` to sweep")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	p, err := corpusProgram(*bench, *scale)
	if err != nil {
		return err
	}
	m, err := core.MachineByName(p.Suite, "F", *cacheScale)
	if err != nil {
		return err
	}
	t := tablefmt.New(fmt.Sprintf("Single-chip multiprocessor scaling on %s (machine F)", *bench),
		"cores", "cycles", "aggregate IPC", "per-core slowdown", "mem traffic MB", "traffic/core MB")
	var baseCycles int64
	for n := 1; n <= *maxCores; n *= 2 {
		progs := make([][]isa.Inst, n)
		// Core 0 replays the program in place: RunMulti only reads its
		// slices, and core 0's region is the program's own.
		progs[0] = p.Insts
		for i := 1; i < n; i++ {
			// Each other core gets a private copy of the kernel shifted
			// to a disjoint address region: pure bandwidth/capacity
			// interference, no sharing.
			insts := make([]isa.Inst, len(p.Insts))
			copy(insts, p.Insts)
			for j := range insts {
				if insts[j].Op.IsMem() {
					insts[j].Addr += uint64(i) << 30
				}
			}
			progs[i] = insts
		}
		hs, err := mem.NewCluster(m.Mem, n)
		if err != nil {
			return err
		}
		res, err := cpu.RunMulti(m.CPU, hs, progs)
		if err != nil {
			return err
		}
		if n == 1 {
			baseCycles = res.Cycles
		}
		if baseCycles < 1 {
			baseCycles = 1 // the n==1 pass ran first and any run takes >= 1 cycle
		}
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%.2f", res.Throughput()),
			fmt.Sprintf("%.2fx", float64(res.Cycles)/float64(baseCycles)),
			fmt.Sprintf("%.1f", float64(res.Mem.MemTrafficBytes)/1e6),
			fmt.Sprintf("%.1f", float64(res.Mem.MemTrafficBytes)/1e6/float64(max(1, n))))
	}
	fmt.Println(t)
	fmt.Println("Paper, Section 2.2: \"If one processor loses performance due to limited")
	fmt.Println("pin bandwidth, then multiple processors on a chip will lose far more")
	fmt.Println("performance for the same reason.\" The shared memory bus pins aggregate")
	fmt.Println("IPC at its transfer rate, so each added core slows every core down.")
	fmt.Println()
	return nil
}

func runAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	scale := scaleFlag(fs)
	benchList := benchListFlag(fs, "bench", "compress,eqntott,swm", "comma-separated `workloads`")
	size := minIntFlag(fs, "kb", 64, 1, "cache capacity in `KB`")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	bytes := *size << 10
	t := tablefmt.New(fmt.Sprintf("Traffic-reduction scheme ablations (%dKB caches; traffic ratios R)", *size),
		"benchmark", "32B blocks", "4B sector", "write-validate", "MTC")
	for _, name := range *benchList {
		e := corpusEntry(name, *scale)
		refs, err := e.Refs()
		if err != nil {
			return err
		}
		meta, err := e.Meta()
		if err != nil {
			return err
		}
		refBytes := units.Words(meta.RefCount).Bytes(trace.WordSize)
		row := []string{name}
		for _, cfg := range []cache.Config{
			{Size: bytes, BlockSize: 32, Assoc: 1},
			{Size: bytes, BlockSize: 32, Assoc: 1, SubBlockSize: 4},
			{Size: bytes, BlockSize: 32, Assoc: 1, SubBlockSize: 4, Alloc: cache.WriteValidate},
		} {
			c, err := cache.New(cfg)
			if err != nil {
				return err
			}
			st := c.RunRefs(refs)
			row = append(row, fmt.Sprintf("%.3f", core.TrafficRatio(st.TrafficBytes(), refBytes)))
		}
		fut, err := e.Future(trace.WordSize)
		if err != nil {
			return err
		}
		st, err := mtc.SimulateRefs(mtc.Config{Size: bytes, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}, fut, refs)
		if err != nil {
			return err
		}
		row = append(row, fmt.Sprintf("%.3f", core.TrafficRatio(st.TrafficBytes(), refBytes)))
		t.AddRow(row...)
	}
	fmt.Println(t)
	fmt.Println("Sector (sub-block) transfers and write-validate recover much of the")
	fmt.Println("cache/MTC gap for low-spatial-locality codes — the flexible on-chip")
	fmt.Println("memory the paper proposes.")
	fmt.Println()

	// Timing ablation: a 4-entry victim cache (Jouppi) against the
	// conflict-bound su2cor on machine D.
	vt := tablefmt.New("Victim-cache timing ablation (machine D)",
		"benchmark", "cycles", "+victim cache", "speedup", "victim hits")
	for _, name := range []string{"su2cor", "swm"} {
		p, err := corpusProgram(name, *scale)
		if err != nil {
			return err
		}
		m, err := core.MachineByName(p.Suite, "D", 16)
		if err != nil {
			return err
		}
		run := func(entries int) (cycles, hits int64, err error) {
			cfg := m.Mem
			cfg.VictimCache = mem.VictimCacheConfig{Entries: entries}
			h, err := mem.New(cfg)
			if err != nil {
				return 0, 0, err
			}
			r, err := cpu.Run(m.CPU, h, p.Insts, nil)
			if err != nil {
				return 0, 0, err
			}
			return r.Cycles, h.Stats().VictimHits, nil
		}
		base, _, err := run(0)
		if err != nil {
			return err
		}
		with, hits, err := run(4)
		if err != nil {
			return err
		}
		if with < 1 {
			with = 1 // a run takes at least one cycle
		}
		vt.AddRow(name,
			fmt.Sprintf("%d", base),
			fmt.Sprintf("%d", with),
			fmt.Sprintf("%.2fx", float64(base)/float64(with)),
			fmt.Sprintf("%d", hits))
	}
	fmt.Println(vt)
	fmt.Println("Victim caching converts direct-mapped conflict misses (su2cor's")
	fmt.Println("whole problem) into one-cycle swaps; streaming codes gain nothing.")
	fmt.Println()
	return nil
}
