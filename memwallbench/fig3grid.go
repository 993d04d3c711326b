// fig3-grid: Figure 3 for both suites through core.Figure3Pool, the
// `memwall fig3 -j <nproc>` path.
package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/cpu"
	"memwall/internal/runner"
	"memwall/internal/workload"
)

func init() {
	register(bench{name: "fig3-grid", minPasses: 3, setup: setupFig3})
}

// cacheScale is the CLI's default -cachescale.
const cacheScale = 16

// suites are the two Figure 3 panels.
var suites = []workload.Suite{workload.SPEC92, workload.SPEC95}

// timingBenchmarks is a suite's Figure 3 panel: the paper's SPEC92 panel
// omits dnasa2, which only the traffic studies use.
func timingBenchmarks(s workload.Suite) []string {
	var out []string
	for _, n := range workload.SuiteNames(s) {
		if n != "dnasa2" {
			out = append(out, n)
		}
	}
	return out
}

// timingPrograms generates every Figure 3 program into a fresh corpus,
// timed as workload.generate_s, and counts their instructions.
func timingPrograms(r *run) (*corpus.Corpus, map[workload.Suite][]*workload.Program, error) {
	c := corpus.New(corpus.Options{})
	progs := map[workload.Suite][]*workload.Program{}
	var insts int64
	err := r.setupPhase("workload.generate_s", func() error {
		for _, s := range suites {
			for _, n := range timingBenchmarks(s) {
				p, err := c.Get(n, 1).Program()
				if err != nil {
					return err
				}
				progs[s] = append(progs[s], p)
				insts += int64(len(p.Insts))
			}
		}
		return nil
	})
	r.sample("workload.insts", "count", float64(insts))
	return c, progs, err
}

// cellKey names a Figure 3 cell the way core.Figure3CellKey does. The
// benchmark spells it out so that it also builds against commits that
// predate that function.
func cellKey(suite, bench, exp string) string {
	return "fig3:" + suite + ":" + bench + "/" + exp
}

// maxQueue is the longest any cell of a grid waited to be claimed.
func maxQueue(recs []runner.CellRecord) float64 {
	var q float64
	for _, rec := range recs {
		q = max(q, rec.QueueSeconds)
	}
	return q
}

// timingDigest hashes one timing cell: the decomposition and the full
// run's result, every counter included.
func timingDigest(d core.Decomposition, full cpu.Result) string {
	return digest(struct {
		D    core.Decomposition
		Full cpu.Result
	}{d, full})
}

// countTiming adds one cell's simulated work to the pass's counts.
func countTiming(r *run, full cpu.Result) {
	r.count("cpu.insts", full.Insts)
	r.count("cpu.cycles", full.Cycles)
	r.count("mem.l1_misses", full.Mem.L1Misses)
	r.count("mem.l2_misses", full.Mem.L2Misses)
	r.count("mem.traffic_bytes", int64(full.Mem.L1L2TrafficBytes+full.Mem.MemTrafficBytes))
	r.count("mem.bus_busy_cycles", int64(full.Mem.L1L2BusBusyCycles+full.Mem.MemBusBusyCycles))
}

type fig3Grid struct {
	corp  *corpus.Corpus
	progs map[workload.Suite][]*workload.Program
	rng   *rand.Rand
}

func setupFig3(r *run, rng *rand.Rand) (instance, error) {
	c, progs, err := timingPrograms(r)
	return &fig3Grid{corp: c, progs: progs, rng: rng}, err
}

func (g *fig3Grid) close() {}

// pass runs both suites' grids in a seeded order, each over a seeded
// permutation of its programs, and checks all 78 cells.
func (g *fig3Grid) pass(r *run) error {
	order := append([]workload.Suite(nil), suites...)
	g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	var gridWall, busy, queue float64
	var cellMS []float64
	for _, s := range order {
		progs := append([]*workload.Program(nil), g.progs[s]...)
		g.rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
		pool := runner.Config{Workers: nproc}
		var stats runner.CellStats
		if r.rec != nil {
			pool.Cells = &stats
		}
		t0 := time.Now()
		cells, err := core.Figure3Pool(s, progs, cacheScale, pool)
		t1 := time.Now()
		if err != nil {
			for i := 0; i < len(progs)*6; i++ {
				r.fail("fig3 "+s.String(), err)
			}
			continue
		}
		for _, c := range cells {
			r.check(cellKey(s.String(), c.Benchmark, c.Experiment), timingDigest(c.Result.Decomposition, c.Result.Full))
			countTiming(r, c.Result.Full)
		}
		if r.rec != nil {
			recs := stats.Records()
			traceGrid(r, s, cells, recs, t0, t1)
			gridWall += t1.Sub(t0).Seconds()
			for _, rec := range recs {
				busy += rec.WallSeconds
				cellMS = append(cellMS, rec.WallSeconds*1e3)
			}
			queue += maxQueue(recs)
		}
	}
	if r.rec != nil {
		r.sample("runner.busy_share", "ratio", busy/(float64(nproc)*gridWall))
		r.sample("runner.cell_ms.p50", "ms", median(cellMS))
		r.sample("runner.cell_ms.max", "ms", quantile(cellMS, 1))
		r.sample("runner.queue_s", "s", queue)
	}
	return nil
}

// traceGrid turns one Figure3Pool call into spans. Each cell comes from
// its runner.CellStats record; its DecomposeResult.Wall gives the
// infinite-bandwidth and full runs, which end the cell. What precedes
// them is the cell's wait on its core's shared perfect run: the first
// cell of each (program, core) group to start ran core.PerfectTime
// there, and the others waited for it.
func traceGrid(r *run, s workload.Suite, cells []core.BenchmarkDecomposition, recs []runner.CellRecord, t0, t1 time.Time) {
	rc := r.rec
	rc.add(span{name: "core.Figure3Pool " + s.String(), start: rc.at(t0), end: rc.at(t1), parent: -1, req: -1})
	machines := core.MachinesScaled(s, cacheScale)
	owner := map[string]int{} // (program, core) group → earliest record
	for i, rec := range recs {
		c := cells[rec.Index]
		k := c.Benchmark + fmt.Sprintf("%+v", machines[rec.Index%len(machines)].CPU)
		if j, ok := owner[k]; !ok || rec.QueueSeconds < recs[j].QueueSeconds {
			owner[k] = i
		}
	}
	isOwner := map[int]bool{}
	for _, i := range owner {
		isOwner[i] = true
	}
	var top []int
	var inorderNS, inorderInsts, oooNS, oooInsts float64
	for i, rec := range recs {
		c := cells[rec.Index]
		w := c.Result.Wall
		start := t0.Add(time.Duration(rec.QueueSeconds * float64(time.Second)))
		end := start.Add(time.Duration(rec.WallSeconds * float64(time.Second)))
		cell := rc.add(span{name: "cell " + c.Benchmark + "/" + c.Experiment, layer: "other_s",
			track: -1, start: rc.at(start), end: rc.at(end), parent: -1, req: -1})
		top = append(top, cell)
		fullStart := end.Add(-w.Full)
		infStart := fullStart.Add(-w.InfiniteBW)
		name, layer := "wait on shared perfect run", "idle_s"
		if isOwner[i] {
			name, layer = "core.PerfectTime", "cpu.perfect_s"
			ns := float64(infStart.Sub(start).Nanoseconds())
			if machines[rec.Index%len(machines)].CPU.OutOfOrder {
				oooNS += ns
				oooInsts += float64(c.Result.Full.Insts)
			} else {
				inorderNS += ns
				inorderInsts += float64(c.Result.Full.Insts)
			}
		}
		if infStart.After(start) {
			rc.add(span{name: name, layer: layer, track: -1, start: rc.at(start), end: rc.at(infStart), parent: cell, req: -1})
		}
		rc.add(span{name: "sim:infinite-bw", layer: "mem.infbw_s", track: -1, start: rc.at(infStart), end: rc.at(fullStart), parent: cell, req: -1})
		rc.add(span{name: "sim:full", layer: "mem.full_s", track: -1, start: rc.at(fullStart), end: rc.at(end), parent: cell, req: -1})
	}
	rc.packTracks(top, nproc)
	r.sample("cpu.inorder.ns_per_inst", "ns", inorderNS/inorderInsts)
	r.sample("cpu.ooo.ns_per_inst", "ns", oooNS/oooInsts)
}

func (g *fig3Grid) probes(r *run) error {
	if err := memProbe(r, g.corp); err != nil {
		return err
	}
	return runnerProbe(r)
}
