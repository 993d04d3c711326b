// Command memwallbench is memwall's repository benchmark. It runs one
// workload for a fixed time, checks every simulated output against
// committed per-cell digests, and prints every metric with its unit and
// sample count, then one JSON result line:
//
//	memwallbench -workload fig3-grid -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics (host time of
// untraced passes). With -trace 1 it carries the per-layer metrics: the
// run alternates untraced and traced passes, records spans around every
// call the benchmark makes into a memwall package, writes them as a
// Chrome trace, and then runs the layer microprobes. See README.md for
// the workloads, the metrics and how they are meant to move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

// nproc is the pool width every workload uses: runner workers, serve
// workers per job, and serve clients.
var nproc = runtime.GOMAXPROCS(0)

// setupRuns is how many times a run builds its set-up; setup_s is the
// median, and the passes read the last one.
const setupRuns = 5

// bench is one benchmark workload.
type bench struct {
	name string
	// minPasses is the fewest passes a run makes, whatever -seconds says.
	minPasses int
	// setup builds everything a pass reads. rng is the workload seed's
	// stream; it orders inputs and never changes what is simulated.
	setup func(r *run, rng *rand.Rand) (instance, error)
}

// instance is one set-up of a workload.
type instance interface {
	// pass runs one pass; r.rec is non-nil when the pass is traced.
	pass(r *run) error
	// probes runs the layer microprobes of a traced run.
	probes(r *run) error
	close()
}

var workloads = map[string]bench{}

func register(w bench) { workloads[w.name] = w }

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// run holds one invocation's state: the output check, the samples behind
// every metric, the per-pass counts and the span recorder.
type run struct {
	workdir  string
	expected map[string]string
	writing  bool // -write-expected: collect digests instead of checking

	mu        sync.Mutex
	digests   map[string]string
	mismatch  int
	attempted int64
	failed    int64
	samples   map[string][]float64
	units     map[string]string
	counts    map[string]int64 // this pass's exact work counts
	firstPass map[string]int64 // the first pass's, which every pass repeats
	countErr  string

	rec *recorder // non-nil during a traced pass
}

func newRun(workdir string) *run {
	return &run{
		workdir: workdir,
		digests: map[string]string{},
		samples: map[string][]float64{},
		units:   map[string]string{},
		counts:  map[string]int64{},
	}
}

// digest hashes a simulated output. %+v spells out every field of the
// result structs, so any changed counter changes the digest.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:16])
}

// verify compares one cell's digest with the committed one.
func (r *run) verify(key, d string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.writing {
		r.digests[key] = d
		return true
	}
	if want, ok := r.expected[key]; ok && want == d {
		return true
	}
	r.mismatch++
	if r.mismatch <= 5 {
		fmt.Fprintf(os.Stderr, "memwallbench: %s: digest %s, want %q\n", key, d, r.expected[key])
	}
	return false
}

// op counts one operation: a cell of a batch workload, a request of
// serve-mix.
func (r *run) op(ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check verifies one batch cell and counts it as an operation.
func (r *run) check(key, d string) { r.op(r.verify(key, d)) }

// fail counts one operation that failed before its output could be
// checked (an error, a refused or non-200 request).
func (r *run) fail(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "memwallbench: %s: %v\n", what, err)
	}
}

// sample records one sample of a metric.
func (r *run) sample(name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[name] = append(r.samples[name], v)
	r.units[name] = unit
}

// count adds to one of this pass's exact work counts.
func (r *run) count(name string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += v
}

// endPassCounts checks that this pass did exactly the work of the first.
func (r *run) endPassCounts() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.firstPass == nil {
		r.firstPass = r.counts
	} else {
		for k, v := range r.counts {
			if r.firstPass[k] != v && r.countErr == "" {
				r.countErr = fmt.Sprintf("count %s: %d in a later pass, %d in the first", k, v, r.firstPass[k])
			}
		}
	}
	r.counts = map[string]int64{}
}

// setupPhase times one part of the set-up into a per-layer sample.
func (r *run) setupPhase(name string, f func() error) error {
	t := time.Now()
	err := f()
	r.sample(name, "s", time.Since(t).Seconds())
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// maxRSSMB returns the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("memwallbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig3-grid, traffic-sweep or serve-mix")
	seed := fs.Uint64("seed", 1, "workload seed; it orders the inputs")
	seconds := fs.Float64("seconds", 30, "measured time per run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build", "directory for ledgers and trace output")
	expected := fs.String("expected", "memwallbench/expected.json", "committed per-cell output digests")
	writeExpected := fs.Bool("write-expected", false, "write the digests of this run to -expected instead of checking them")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "memwallbench: unknown workload %q\n", *name)
		return 2
	}
	r := newRun(*workdir)
	r.writing = *writeExpected
	if !r.writing {
		b, err := os.ReadFile(*expected)
		if err == nil {
			err = json.Unmarshal(b, &r.expected)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "memwallbench: reading expected digests: %v\n", err)
			return 1
		}
	}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "memwallbench: %v\n", err)
		return 1
	}
	metrics, err := measure(r, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memwallbench: %s: %v\n", w.name, err)
		return 1
	}
	if r.writing {
		if err := writeDigests(*expected, r.digests); err != nil {
			fmt.Fprintf(os.Stderr, "memwallbench: %v\n", err)
			return 1
		}
	}
	if r.countErr != "" {
		fmt.Fprintf(os.Stderr, "memwallbench: %s\n", r.countErr)
	}
	printResult(r, metrics)
	return 0
}

// measure sets the workload up, runs its passes and returns the metrics
// of the run's kind.
func measure(r *run, w bench, seed uint64, seconds float64, traced bool) (map[string]metric, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6d656d77616c6c)) // "memwall"
	var inst instance
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		// Only the last set-up's phase timings are kept as samples.
		r.mu.Lock()
		for k := range r.samples {
			delete(r.samples, k)
		}
		r.mu.Unlock()
		var err error
		inst, err = w.setup(r, rng)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	out := map[string]metric{}
	if traced {
		var err error
		if out, err = layerMetrics(r, inst, w, seconds); err != nil {
			return nil, err
		}
	} else {
		var passes []float64
		start := time.Now()
		for n := 0; n < w.minPasses || time.Since(start).Seconds() < seconds; n++ {
			t := time.Now()
			if err := inst.pass(r); err != nil {
				return nil, err
			}
			passes = append(passes, time.Since(t).Seconds())
			fmt.Fprintf(os.Stderr, "pass %d: %.4f s\n", n, passes[n])
			r.endPassCounts()
		}
		out["pass_s"] = metric{Value: median(passes), Unit: "s", samples: len(passes)}
		out["max_rss_mb"] = metric{Value: maxRSSMB(), Unit: "MB", samples: 1}
		out["setup_s"] = metric{Value: median(setups), Unit: "s", samples: len(setups)}
	}
	return out, nil
}

// printResult prints every metric as a table row and then the JSON
// result line.
func printResult(r *run, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %16s %-7s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := metrics[n]
		fmt.Printf("%-28s %16.6g %-7s %d\n", n, m.Value, m.Unit, m.samples)
	}
	correct := r.failed == 0 && r.countErr == "" && r.attempted > 0
	fmt.Printf("operations: %d attempted, %d failed; outputs %s\n", r.attempted, r.failed,
		map[bool]string{true: "match the committed digests", false: "DO NOT match"}[correct])
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memwallbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// writeDigests merges this run's digests into the expected file, so each
// workload can add its own cells.
func writeDigests(path string, digests map[string]string) error {
	all := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range digests {
		all[k] = v
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
