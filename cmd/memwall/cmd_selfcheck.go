// The selfcheck subcommand: a battery of cross-simulator invariants run
// over every workload, verifying the relationships the reproduction's
// conclusions rest on. Any FAIL indicates a simulator defect, not a
// calibration difference.
//
// The check grids shard over the -j worker pool (see internal/runner):
// each task owns its own simulators, failures are collected in task
// order, and the emitted report is byte-identical for any worker count.
package main

import (
	"context"
	"flag"
	"fmt"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/mem"
	"memwall/internal/mtc"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/units"
	"memwall/internal/workload"
)

func init() {
	register("selfcheck", "run cross-simulator invariant checks over all workloads", runSelfcheck)
}

type checkResult struct {
	name   string
	passed int
	failed []string
}

// collect folds ordered per-task failure messages ("" = pass) into a
// checkResult, preserving task order so the report is schedule-independent.
func (c *checkResult) collect(msgs []string) {
	for _, m := range msgs {
		if m != "" {
			c.failed = append(c.failed, m)
		} else {
			c.passed++
		}
	}
}

func runSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	scale := scaleFlag(fs)
	cacheScale := cacheScaleFlag(fs)
	workers := workersFlag(fs)
	timing := fs.Bool("timing", true, "include the (slower) timing-model checks")
	benchList := benchListFlag(fs, "benches", "", "comma-separated workload `subset` to check (default: all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	names := workload.Names()
	if *benchList != nil {
		names = *benchList
	}

	progs := map[string]*workload.Program{}
	for _, name := range names {
		p, err := corpusProgram(name, *scale)
		if err != nil {
			return err
		}
		progs[name] = p
	}
	// pick intersects a check's fixed benchmark list with the -benches
	// filter, keeping the check's own order.
	pick := func(candidates ...string) []string {
		var out []string
		for _, c := range candidates {
			if progs[c] != nil {
				out = append(out, c)
			}
		}
		return out
	}

	ctx := context.Background()
	// gridPool threads the run's Flight and fault injector
	// through every check grid; the per-check labels below double as the
	// ledger's cell keys.
	pool := func(label func(i int) string) runner.Config {
		return gridPool(*workers, *scale, *cacheScale, label)
	}

	var results []checkResult

	// Check 1: the MTC never generates more traffic than the
	// fully-associative LRU cache of the same size (MIN dominance) —
	// Equation 6's G >= 1 for the matched configuration.
	c1 := checkResult{name: "MIN dominance (MTC <= fully-assoc LRU, 4B blocks)"}
	type sizedCell struct {
		name string
		size int
	}
	var grid1 []sizedCell
	for _, name := range names {
		for _, size := range []int{4 << 10, 32 << 10} {
			grid1 = append(grid1, sizedCell{name, size})
		}
	}
	msgs, err := runner.Map(ctx, pool(func(i int) string {
		return fmt.Sprintf("selfcheck:min-dominance:%s@%dKB", grid1[i].name, grid1[i].size>>10)
	}), len(grid1), func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
		g := grid1[i]
		// Tasks share one corpus entry per benchmark: the reference slice is
		// read-only and the word-grain future table is built once, no matter
		// how many (benchmark, size) cells land on the grid.
		e := corpusEntry(g.name, *scale)
		refs, err := e.Refs()
		if err != nil {
			return "", err
		}
		lru, err := cache.New(cache.Config{Size: g.size, BlockSize: 4, Assoc: 0})
		if err != nil {
			return "", err
		}
		lt := lru.RunRefs(refs).TrafficBytes()
		fut, err := e.Future(4)
		if err != nil {
			return "", err
		}
		mt, err := mtc.SimulateRefs(mtc.Config{Size: g.size, BlockSize: 4, Alloc: mtc.WriteValidate}, fut, refs)
		if err != nil {
			return "", err
		}
		if mt.TrafficBytes() > lt {
			return fmt.Sprintf("%s@%dKB: MTC %d > LRU %d", g.name, g.size>>10, mt.TrafficBytes(), lt), nil
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	c1.collect(msgs)
	results = append(results, c1)

	// Check 2: cache traffic decreases (weakly) with fully-associative
	// LRU size — the inclusion property. The size ladder chains within a
	// benchmark, so each task walks one benchmark's ladder serially.
	c2 := checkResult{name: "LRU inclusion (traffic non-increasing with size)"}
	// Exported fields: a ladder is a checkpointed cell result, so it must
	// survive the ledger's JSON round-trip intact.
	type ladder struct {
		Passed int
		Failed []string
	}
	ladders, err := runner.Map(ctx, pool(func(i int) string {
		return "selfcheck:lru-inclusion:" + names[i]
	}), len(names), func(ctx context.Context, i int, _ *telemetry.Tracer) (ladder, error) {
		refs, err := corpusEntry(names[i], *scale).Refs()
		if err != nil {
			return ladder{}, err
		}
		var l ladder
		var prev int64 = -1
		for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
			c, err := cache.New(cache.Config{Size: size, BlockSize: 32, Assoc: 0})
			if err != nil {
				return ladder{}, err
			}
			cur := c.RunRefs(refs).Misses
			if prev >= 0 && cur > prev {
				l.Failed = append(l.Failed, fmt.Sprintf("%s: misses rose %d -> %d at %dKB", names[i], prev, cur, size>>10))
			} else {
				l.Passed++
			}
			prev = cur
		}
		return l, nil
	})
	if err != nil {
		return err
	}
	for _, l := range ladders {
		c2.passed += l.Passed
		c2.failed = append(c2.failed, l.Failed...)
	}
	results = append(results, c2)

	// Check 3: traffic accounting conservation.
	c3 := checkResult{name: "traffic conservation (fetch+wb bytes match counters)"}
	msgs, err = runner.Map(ctx, pool(func(i int) string {
		return "selfcheck:conservation:" + names[i]
	}), len(names), func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
		name := names[i]
		c, err := cache.New(cache.Config{Size: 16 << 10, BlockSize: 32, Assoc: 2})
		if err != nil {
			return "", err
		}
		refs, err := corpusEntry(name, *scale).Refs()
		if err != nil {
			return "", err
		}
		st := c.RunRefs(refs)
		if st.FetchBytes != units.Blocks(st.Fetches).Bytes(32) || st.Fetches != st.Misses {
			return name, nil
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	c3.collect(msgs)
	results = append(results, c3)

	// Check 4: deterministic replay — two runs of everything agree.
	c4 := checkResult{name: "determinism (generation + simulation replay)"}
	replayNames := pick("compress", "swm", "vortex")
	msgs, err = runner.Map(ctx, pool(func(i int) string {
		return "selfcheck:determinism:" + replayNames[i]
	}), len(replayNames), func(ctx context.Context, i int, _ *telemetry.Tracer) (string, error) {
		name := replayNames[i]
		// Deliberately bypasses the corpus: this check exists to prove a
		// fresh generation reproduces what the (possibly cached) corpus
		// copy produced.
		a, err := workload.Generate(name, *scale)
		if err != nil {
			return "", err
		}
		if len(a.Insts) != len(progs[name].Insts) {
			return name + ": generation differs", nil
		}
		var traffic [2]units.Bytes
		for j, p := range []*workload.Program{a, progs[name]} {
			c, err := cache.New(cache.Config{Size: 8 << 10, BlockSize: 32, Assoc: 1})
			if err != nil {
				return "", err
			}
			traffic[j] = c.RunRefs(trace.Collect(p.MemRefs())).TrafficBytes()
		}
		if traffic[0] != traffic[1] {
			return name + ": simulation differs", nil
		}
		return "", nil
	})
	if err != nil {
		return err
	}
	c4.collect(msgs)
	results = append(results, c4)

	// Check 5 (timing): T_P <= T_I <= T on every machine.
	if *timing {
		c5 := checkResult{name: "decomposition ordering (T_P <= T_I <= T, machines A/C/F)"}
		type timedCell struct {
			name, exp string
		}
		var grid5 []timedCell
		for _, name := range pick("espresso", "su2cor", "li", "swim95") {
			for _, expName := range []string{"A", "C", "F"} {
				grid5 = append(grid5, timedCell{name, expName})
			}
		}
		msgs, err = runner.Map(ctx, pool(func(i int) string {
			return fmt.Sprintf("selfcheck:ordering:%s/%s", grid5[i].name, grid5[i].exp)
		}), len(grid5), func(ctx context.Context, i int, tracer *telemetry.Tracer) (string, error) {
			g := grid5[i]
			p := progs[g.name]
			m, err := core.MachineByName(p.Suite, g.exp, *cacheScale)
			if err != nil {
				return "", err
			}
			m.Obs = taskObservation(tracer)
			res, err := core.Decompose(m, p.Insts)
			if err != nil {
				return "", err
			}
			if err := res.Validate(); err != nil {
				return fmt.Sprintf("%s/%s: %v", g.name, g.exp, err), nil
			}
			return "", nil
		})
		if err != nil {
			return err
		}
		c5.collect(msgs)
		results = append(results, c5)

		// Check 6 (timing): wider buses never slow the full system down.
		c6 := checkResult{name: "bus-width monotonicity (2x width never slower)"}
		busNames := pick("su2cor", "swm")
		msgs, err = runner.Map(ctx, pool(func(i int) string {
			return "selfcheck:bus-width:" + busNames[i]
		}), len(busNames), func(ctx context.Context, i int, tracer *telemetry.Tracer) (string, error) {
			name := busNames[i]
			p := progs[name]
			m, err := core.MachineByName(workload.SPEC92, "F", *cacheScale)
			if err != nil {
				return "", err
			}
			m.Obs = taskObservation(tracer)
			base, err := core.Decompose(m, p.Insts)
			if err != nil {
				return "", err
			}
			wide := m
			wide.Mem.L1L2Bus.WidthBytes *= 2
			wide.Mem.MemBus.WidthBytes *= 2
			w, err := core.Decompose(wide, p.Insts)
			if err != nil {
				return "", err
			}
			if w.T > base.T {
				return fmt.Sprintf("%s: %d -> %d cycles", name, base.T, w.T), nil
			}
			return "", nil
		})
		if err != nil {
			return err
		}
		c6.collect(msgs)
		results = append(results, c6)

		// Check 7 (timing): miss-accounting conservation. Every access
		// classifies as exactly one of scratchpad hit, L1 hit, merged miss,
		// or miss; and every L2 access (the L1 misses that fall through the
		// victim and stream buffers, plus tagged and stream-buffer
		// prefetches) classifies as exactly one of L2 hit, merged miss, or
		// miss. The in-flight forwarding path historically incremented
		// nothing, so the L2 ledger leaked. The grid includes a stream-
		// buffer + victim-cache variant of C so the buffer terms are
		// exercised, and E so prefetches are.
		c7 := checkResult{name: "miss accounting (L1 and L2 ledgers conserve)"}
		type acctCell struct {
			name, exp string
			buffers   bool
		}
		var grid7 []acctCell
		for _, name := range pick("compress", "su2cor", "li") {
			for _, expName := range []string{"A", "C", "E"} {
				grid7 = append(grid7, acctCell{name, expName, false})
			}
			grid7 = append(grid7, acctCell{name, "C", true})
		}
		msgs, err = runner.Map(ctx, pool(func(i int) string {
			g := grid7[i]
			key := "selfcheck:miss-accounting:" + g.name + "/" + g.exp
			if g.buffers {
				key += "+buffers"
			}
			return key
		}), len(grid7), func(ctx context.Context, i int, tracer *telemetry.Tracer) (string, error) {
			g := grid7[i]
			p := progs[g.name]
			m, err := core.MachineByName(p.Suite, g.exp, *cacheScale)
			if err != nil {
				return "", err
			}
			if g.buffers {
				m.Mem.StreamBuffers = mem.StreamBufferConfig{Buffers: 4, Depth: 4}
				m.Mem.VictimCache = mem.VictimCacheConfig{Entries: 4}
			}
			m.Obs = taskObservation(tracer)
			res, err := core.Decompose(m, p.Insts)
			if err != nil {
				return "", err
			}
			st := res.Full.Mem
			accesses := st.Loads + st.Stores
			classified := st.ScratchpadHits + st.L1Hits + st.L1MergedMisses + st.L1Misses
			if accesses != classified {
				return fmt.Sprintf("%s/%s: L1 ledger leaks: %d accesses, %d classified", g.name, g.exp, accesses, classified), nil
			}
			l2Accesses := (st.L1Misses - st.VictimHits - st.StreamBufHits) + st.Prefetches + st.StreamBufPrefetches
			l2Classified := st.L2Hits + st.L2MergedMisses + st.L2Misses
			if l2Accesses != l2Classified {
				return fmt.Sprintf("%s/%s: L2 ledger leaks: %d accesses, %d classified", g.name, g.exp, l2Accesses, l2Classified), nil
			}
			return "", nil
		})
		if err != nil {
			return err
		}
		c7.collect(msgs)
		results = append(results, c7)
	}

	bad := 0
	for _, r := range results {
		status := "PASS"
		if len(r.failed) > 0 {
			status = "FAIL"
			bad++
		}
		fmt.Printf("[%s] %-55s %d checks\n", status, r.name, r.passed+len(r.failed))
		for _, f := range r.failed {
			fmt.Printf("       %s\n", f)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d invariant group(s) failed", bad)
	}
	fmt.Println("all invariants hold")
	return nil
}
