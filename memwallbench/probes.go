// Layer microprobes: small timed loops over one layer's public functions,
// run after a traced run's passes and not counted in them.
package main

import (
	"context"
	"time"

	"memwall/internal/core"
	"memwall/internal/corpus"
	"memwall/internal/mem"
	"memwall/internal/runner"
	"memwall/internal/telemetry"
	"memwall/internal/trace"
	"memwall/internal/workload"
)

// probeReps is how many timed repetitions each probe takes; the metric
// is their median.
const probeReps = 7

// probe times probeReps repetitions of f, each doing n operations, and
// samples the cost per operation in unit (scale converts seconds).
func probe(r *run, name, unit string, scale float64, n int, f func() error) error {
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return err
		}
		r.sample(name, unit, time.Since(t).Seconds()*scale/float64(n))
	}
	return nil
}

// memProbe replays su2cor's data references through a machine C
// hierarchy's Load and Store, as a blocking core would issue them: each
// load waits for its data, each store takes one cycle.
func memProbe(r *run, c *corpus.Corpus) error {
	p, err := c.Get("su2cor", 1).Program()
	if err != nil {
		return err
	}
	refs := trace.Collect(p.MemRefs())
	m, err := core.MachineByName(workload.SPEC92, "C", cacheScale)
	if err != nil {
		return err
	}
	cfg := m.Mem
	cfg.Mode = mem.Full
	return probe(r, "mem.ns_per_access", "ns", 1e9, len(refs), func() error {
		h, err := mem.New(cfg)
		if err != nil {
			return err
		}
		var now int64
		for _, ref := range refs {
			if ref.Kind == trace.Read {
				now = h.Load(ref.Addr, now)
			} else {
				now = h.Store(ref.Addr, now)
			}
		}
		return nil
	})
}

// runnerProbe times runner.Map's per-task cost on tasks that do nothing.
func runnerProbe(r *run) error {
	const tasks = 20000
	return probe(r, "runner.overhead_us", "us", 1e6, tasks, func() error {
		_, err := runner.Map(context.Background(), runner.Config{Workers: nproc}, tasks,
			func(context.Context, int, *telemetry.Tracer) (struct{}, error) { return struct{}{}, nil })
		return err
	})
}
