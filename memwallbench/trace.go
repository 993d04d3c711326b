// The traced run: spans recorded by the benchmark's own code around its
// calls into memwall's packages, per-layer self times, and the Chrome
// trace file.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval. Spans on tracks 1..nproc are accounted:
// together with their idle gaps they fill nproc × pass wall. Track 0 is
// the benchmark's driving goroutine, drawn in the trace but not counted,
// since it only waits while the tracks work.
type span struct {
	name       string
	layer      string // metric that owns the span's self time; "" for none
	track      int
	start, end time.Duration // since the recorder's origin
	parent     int           // index of the enclosing span, -1 for none
	pass, req  int
}

// recorder keeps a run's spans in memory until the run ends.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	pass   int
	first  int // index of the current pass's first span

	// perPass holds each traced pass's layer self times in seconds.
	perPass []map[string]float64
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// at converts a wall-clock instant to recorder time.
func (rc *recorder) at(t time.Time) time.Duration { return t.Sub(rc.origin) }

// add records a finished span and returns its index.
func (rc *recorder) add(s span) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	s.pass = rc.pass
	rc.spans = append(rc.spans, s)
	return len(rc.spans) - 1
}

// begin opens a span at the current time and returns its index. A nil
// recorder records nothing, so untraced passes run the same code.
func (rc *recorder) begin(name, layer string, track, parent, req int) int {
	if rc == nil {
		return -1
	}
	now := rc.at(time.Now())
	return rc.add(span{name: name, layer: layer, track: track, start: now, end: now, parent: parent, req: req})
}

// end closes span i at the current time.
func (rc *recorder) end(i int) {
	if rc == nil {
		return
	}
	now := rc.at(time.Now())
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.spans[i].end = now
}

// packTracks gives spans that ran on an unnamed pool worker a track: each
// goes to the lowest track free at its start, or else the one that frees
// first. A pool of n workers runs at most n spans at once, so the packing
// reproduces a valid worker assignment.
func (rc *recorder) packTracks(idx []int, tracks int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	sort.Slice(idx, func(a, b int) bool { return rc.spans[idx[a]].start < rc.spans[idx[b]].start })
	free := make([]time.Duration, tracks+1)
	for _, i := range idx {
		best := 1
		for t := 1; t <= tracks; t++ {
			if free[t] <= rc.spans[i].start {
				best = t
				break
			}
			if free[t] < free[best] {
				best = t
			}
		}
		rc.spans[i].track = best
		free[best] = rc.spans[i].end
	}
	// Children run on their parent's worker.
	for i := rc.first; i < len(rc.spans); i++ {
		if p := rc.spans[i].parent; p >= 0 && rc.spans[i].track < 0 {
			rc.spans[i].track = rc.spans[p].track
		}
	}
}

func (rc *recorder) beginPass(n int) time.Time {
	rc.mu.Lock()
	rc.pass = n
	rc.first = len(rc.spans)
	rc.mu.Unlock()
	return time.Now()
}

// endPass accounts one traced pass: each layer's self time (its spans'
// durations minus their children's), idle_s (time the tracks spent in no
// span, plus spans marked idle), and other_s, the rest of nproc × wall.
func (rc *recorder) endPass(start, end time.Time) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	from, to := rc.at(start), rc.at(end)
	rc.spans = append(rc.spans, span{name: fmt.Sprintf("pass %d", rc.pass), start: from, end: to,
		parent: -1, pass: rc.pass, req: -1})
	spans := rc.spans[rc.first:]
	childDur := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= rc.first {
			childDur[s.parent-rc.first] += s.end - s.start
		}
	}
	self := map[string]float64{}
	busy := make([]time.Duration, nproc+1)
	for i, s := range spans {
		if s.track < 1 || s.track > nproc {
			continue
		}
		if s.parent < 0 {
			busy[s.track] += min(s.end, to) - max(s.start, from)
		}
		if s.layer != "" {
			self[s.layer] += (s.end - s.start - childDur[i]).Seconds()
		}
	}
	wall := (to - from).Seconds()
	for t := 1; t <= nproc; t++ {
		self["idle_s"] += wall - busy[t].Seconds()
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	self["other_s"] += float64(nproc)*wall - sum
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4f", k, self[k])
	}
	fmt.Fprintf(os.Stderr, "traced pass %d: %d tracks × %.4f s wall =%s\n", rc.pass, nproc, wall, b.String())
	rc.perPass = append(rc.perPass, self)
}

// chromeEvent is one complete event of the Chrome trace format, which
// Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write saves the spans as a Chrome trace.
func (rc *recorder) write(path string) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	events := make([]chromeEvent, 0, len(rc.spans))
	for i, s := range rc.spans {
		args := map[string]any{"pass": s.pass, "id": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		if s.req >= 0 {
			args["req"] = s.req
		}
		events = append(events, chromeEvent{Name: s.name, Cat: s.layer, Ph: "X",
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.track, Args: args})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerNames lists every per-layer metric a traced run prints, in every
// workload. A layer the workload leaves idle reads 0: that is the
// control the README predicts for it.
var layerNames = []string{
	"workload.generate_s", "workload.insts", "corpus.refs_s", "corpus.future_s",
	"cpu.perfect_s", "cpu.inorder.ns_per_inst", "cpu.ooo.ns_per_inst", "cpu.insts", "cpu.cycles",
	"mem.infbw_s", "mem.full_s", "mem.ns_per_access",
	"mem.l1_misses", "mem.l2_misses", "mem.traffic_bytes", "mem.bus_busy_cycles",
	"cache.run_s", "cache.ns_per_ref", "cache.refs",
	"mtc.simulate_s", "mtc.ns_per_ref", "mtc.refs", "core.inefficiency_s", "core.factor_s",
	"runner.busy_share", "runner.cell_ms.p50", "runner.cell_ms.max", "runner.queue_s", "runner.overhead_us",
	"checkpoint.record_ms", "checkpoint.ledger_bytes", "checkpoint.memo_hit_us",
	"serve.handler_s", "serve.transport_s", "serve.handler_us", "serve.transport_us",
	"serve.cached_ms.p99", "serve.computed_cells", "serve.cells", "serve.memo_share", "serve.rejected",
	"computed_ms.p50", "computed_ms.p90", "coalesced_ms.p50", "cached_ms.p50", "cached_rps",
	"go.alloc_mb", "go.gc_count", "trace.overhead", "other_s", "idle_s",
}

// requestMetrics are serve-mix's request latencies and rate, taken from
// the untraced passes of the traced run: the q-quantile of a series.
var requestMetrics = []struct {
	name, series string
	q            float64
}{
	{"computed_ms.p50", "computed_ms", 0.5},
	{"computed_ms.p90", "computed_ms", 0.9},
	{"coalesced_ms.p50", "coalesced_ms", 0.5},
	{"cached_ms.p50", "cached_ms", 0.5},
	{"cached_rps", "cached_rps", 0.5},
}

// layerMetrics is the -trace 1 run: untraced and traced passes alternate
// until the run's time is up, then the microprobes run. It reports each
// layer's median self time per traced pass, the exact per-pass counts,
// trace.overhead and the Go runtime's per-pass allocation and GCs.
func layerMetrics(r *run, inst instance, w bench, seconds float64) (map[string]metric, error) {
	rc := newRecorder()
	var plain, traced, allocMB, gcs []float64
	start := time.Now()
	for n := 0; n < max(w.minPasses, 4) || time.Since(start).Seconds() < seconds; n++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var t0 time.Time
		if n%2 == 1 {
			r.rec = rc
			t0 = rc.beginPass(n)
		} else {
			t0 = time.Now()
		}
		err := inst.pass(r)
		t1 := time.Now()
		r.rec = nil
		if err != nil {
			return nil, err
		}
		if n%2 == 1 {
			rc.endPass(t0, t1)
			traced = append(traced, t1.Sub(t0).Seconds())
		} else {
			runtime.ReadMemStats(&ms1)
			plain = append(plain, t1.Sub(t0).Seconds())
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		}
		r.endPassCounts()
	}
	if err := inst.probes(r); err != nil {
		return nil, fmt.Errorf("microprobes: %w", err)
	}
	path := filepath.Join(r.workdir, fmt.Sprintf("trace-%s.json", w.name))
	if err := rc.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(rc.spans), path)

	out := map[string]metric{}
	layers := map[string][]float64{}
	for _, p := range rc.perPass {
		for k, v := range p {
			layers[k] = append(layers[k], v)
		}
	}
	for k, xs := range layers {
		out[k] = metric{Value: median(xs), Unit: "s", samples: len(xs)}
	}
	// Host time per simulated reference, where a pass counts them.
	for _, d := range []struct{ name, time, count string }{
		{"cache.ns_per_ref", "cache.run_s", "cache.refs"},
		{"mtc.ns_per_ref", "mtc.simulate_s", "mtc.refs"},
	} {
		if m, ok := out[d.time]; ok && r.firstPass[d.count] > 0 {
			out[d.name] = metric{Value: m.Value * 1e9 / float64(r.firstPass[d.count]), Unit: "ns", samples: m.samples}
		}
	}
	out["trace.overhead"] = metric{Value: median(traced) / median(plain), Unit: "ratio", samples: len(traced)}
	out["go.alloc_mb"] = metric{Value: median(allocMB), Unit: "MB", samples: len(allocMB)}
	out["go.gc_count"] = metric{Value: median(gcs), Unit: "count", samples: len(gcs)}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.firstPass {
		out[k] = metric{Value: float64(v), Unit: "count", samples: 1}
	}
	// Samples named after a layer metric (set-up phases, probes, and
	// derived per-pass values) report their median.
	for k, xs := range r.samples {
		if strings.Contains(k, ".") {
			out[k] = metric{Value: median(xs), Unit: r.units[k], samples: len(xs)}
		}
	}
	for _, e := range requestMetrics {
		if xs := r.samples[e.series]; len(xs) > 0 {
			out[e.name] = metric{Value: quantile(xs, e.q), Unit: r.units[e.series], samples: len(xs)}
		}
	}
	listed := map[string]metric{}
	for _, k := range layerNames {
		listed[k] = out[k]
		if _, ok := out[k]; !ok {
			listed[k] = metric{Unit: layerUnit(k)}
		}
		delete(out, k)
	}
	for k := range out {
		return nil, fmt.Errorf("metric %s is not in the per-layer list", k)
	}
	return listed, nil
}

// layerUnit is the unit of a per-layer metric, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_rps"):
		return "req/s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, ".ns_per"):
		return "ns"
	case strings.HasSuffix(name, "_share") || name == "trace.overhead":
		return "ratio"
	}
	return "count"
}
