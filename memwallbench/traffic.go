// traffic-sweep: Tables 7, 8 and 9 over the seven SPEC92 traces, called
// the way `memwall table7`, `table8` and `table9` call them.
package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"memwall/internal/cache"
	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/mtc"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

func init() {
	register(bench{name: "traffic-sweep", minPasses: 3, setup: setupTraffic})
}

// cacheSizes are the columns of Tables 7 and 8.
var cacheSizes = []int{
	1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10,
	64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20,
}

type trafficSweep struct {
	names   []string
	entries map[string]*corpus.Entry
	meta    map[string]corpus.Meta
	rng     *rand.Rand
}

// setupTraffic builds the corpus every pass reads: each trace's program,
// its reference slice, and its MIN future tables for the 4-byte and
// 32-byte blocks Tables 8 and 9 use.
func setupTraffic(r *run, rng *rand.Rand) (instance, error) {
	t := &trafficSweep{names: workload.SuiteNames(workload.SPEC92), entries: map[string]*corpus.Entry{},
		meta: map[string]corpus.Meta{}, rng: rng}
	c := corpus.New(corpus.Options{})
	var insts int64
	err := r.setupPhase("workload.generate_s", func() error {
		for _, n := range t.names {
			t.entries[n] = c.Get(n, 1)
			p, err := t.entries[n].Program()
			if err != nil {
				return err
			}
			insts += int64(len(p.Insts))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.sample("workload.insts", "count", float64(insts))
	if err := r.setupPhase("corpus.refs_s", func() error {
		for _, n := range t.names {
			m, err := t.entries[n].Meta()
			if err != nil {
				return err
			}
			t.meta[n] = m
		}
		return nil
	}); err != nil {
		return nil, err
	}
	err = r.setupPhase("corpus.future_s", func() error {
		for _, n := range t.names {
			for _, bs := range []int{trace.WordSize, 32} {
				if _, err := t.entries[n].Future(bs); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return t, err
}

func (t *trafficSweep) close() {}

func (t *trafficSweep) shuffled() []string {
	names := append([]string(nil), t.names...)
	t.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// pass runs Table 7 on the runner pool and Tables 8 and 9 serially, each
// over a seeded trace order, and checks every R, G and ΔG.
func (t *trafficSweep) pass(r *run) error {
	rc := r.rec
	// Table 7: one pool task per trace, each walking the size ladder.
	names := t.shuffled()
	pool := runner.Config{Workers: nproc}
	var stats runner.CellStats
	if rc != nil {
		pool.Cells = &stats
	}
	rows := make([]int, len(names))
	t7 := time.Now()
	results, err := runner.Map(context.Background(), pool, len(names),
		func(_ context.Context, i int, _ *telemetry.Tracer) ([]core.RatioResult, error) {
			e := t.entries[names[i]]
			rows[i] = rc.begin("table7 "+names[i], "", -1, -1, -1)
			defer rc.end(rows[i])
			var row []core.RatioResult
			for _, sz := range cacheSizes {
				cfg := cache.Config{Size: sz, BlockSize: 32, Assoc: 1}
				sp := rc.begin("core.MeasureRatioRefs", "cache.run_s", -1, rows[i], -1)
				res, err := core.MeasureRatioRefs(cfg, e, t.meta[names[i]].DataSetBytes)
				rc.end(sp)
				if err != nil {
					return nil, err
				}
				row = append(row, res)
			}
			return row, nil
		})
	t7Wall := time.Since(t7).Seconds()
	if err != nil {
		for range len(names) * len(cacheSizes) {
			r.fail("table7", err)
		}
	} else {
		for i, n := range names {
			for j, res := range results[i] {
				r.check(fmt.Sprintf("table7:%s/%d", n, cacheSizes[j]), digest(res))
				r.count("cache.refs", res.Refs)
			}
		}
	}
	if rc != nil {
		rc.packTracks(rows, nproc)
	}

	// Tables 8 and 9 run serially on the calling goroutine, track 1.
	serial := time.Now()
	for _, n := range t.shuffled() {
		e := t.entries[n]
		for _, sz := range cacheSizes {
			cfg := cache.Config{Size: sz, BlockSize: 32, Assoc: 1}
			sp := rc.begin("core.MeasureInefficiencyRefs", "core.inefficiency_s", 1, -1, -1)
			res, err := core.MeasureInefficiencyRefs(cfg, e, t.meta[n].DataSetBytes)
			rc.end(sp)
			key := fmt.Sprintf("table8:%s/%d", n, sz)
			if err != nil {
				r.fail(key, err)
				continue
			}
			r.check(key, digest(res))
		}
	}
	for _, n := range t.shuffled() {
		if err := t.table9(r, n); err != nil {
			r.fail("table9:"+n, err)
		}
	}
	serialWall := time.Since(serial).Seconds()
	if rc != nil {
		recs := stats.Records()
		var busy float64
		var cellMS []float64
		for _, rec := range recs {
			busy += rec.WallSeconds
			cellMS = append(cellMS, rec.WallSeconds*1e3)
		}
		r.sample("runner.busy_share", "ratio", (busy+serialWall)/(float64(nproc)*(t7Wall+serialWall)))
		r.sample("runner.cell_ms.p50", "ms", median(cellMS))
		r.sample("runner.cell_ms.max", "ms", quantile(cellMS, 1))
		r.sample("runner.queue_s", "s", maxQueue(recs))
	}
	return nil
}

// table9 runs one trace's column of Table 9: the reference MTC, then the
// five factor pairs against it.
func (t *trafficSweep) table9(r *run, n string) error {
	rc := r.rec
	e := t.entries[n]
	refs, err := e.Refs()
	if err != nil {
		return err
	}
	fut, err := e.Future(trace.WordSize)
	if err != nil {
		return err
	}
	size := 64 << 10
	if n == "espresso" {
		size = 16 << 10 // the paper shrinks espresso's cache to fit its data set
	}
	sp := rc.begin("mtc.SimulateRefs", "mtc.simulate_s", 1, -1, -1)
	ref, err := mtc.SimulateRefs(mtc.Config{Size: size, BlockSize: trace.WordSize, Alloc: mtc.WriteValidate}, fut, refs)
	rc.end(sp)
	if err != nil {
		return err
	}
	r.check("table9:"+n+"/ref", digest(ref))
	r.count("mtc.refs", int64(len(refs)))
	for _, spec := range core.Factors(size) {
		sp := rc.begin("core.MeasureFactorRefs", "core.factor_s", 1, -1, -1)
		res, err := core.MeasureFactorRefs(spec, e, ref.TrafficBytes())
		rc.end(sp)
		key := "table9:" + n + "/" + spec.Name
		if err != nil {
			r.fail(key, err)
			continue
		}
		// The spec holds config pointers; digest the measured values.
		r.check(key, digest([]any{spec.Name, res.Traffic1, res.Traffic2, res.DeltaG}))
	}
	return nil
}

func (t *trafficSweep) probes(r *run) error { return runnerProbe(r) }
