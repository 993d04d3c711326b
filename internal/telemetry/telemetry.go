// Package telemetry is the simulator's instrumentation layer: counters,
// gauges, fixed-bucket histograms, span-style phase tracing in Chrome
// trace-event format, a progress heartbeat, pprof wiring, and a run
// manifest that fingerprints a simulation's configuration so results can
// be compared run-to-run.
//
// The package is designed for hot simulator loops:
//
//   - every instrument method is nil-safe — a nil *Counter, *Gauge,
//     *Histogram, *Registry, *Tracer, or *Progress turns the call into a
//     cheap nil-check no-op, so instrumented code pays (almost) nothing
//     when no sink is attached (see BenchmarkCounterDisabled);
//   - updates use sync/atomic, so instruments shared across goroutines
//     (for example the shared-L2 bus of a simulated multiprocessor
//     cluster) are race-clean under `go test -race`;
//   - the fast paths allocate nothing.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil *Counter discards updates.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Add adds d (d may be any sign, but counters are conventionally
// monotonic).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n.Add(d)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value-wins float64 instrument. The zero value is ready
// to use; a nil *Gauge discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set records v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last recorded value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: bounds are inclusive upper
// bounds, and one overflow bucket catches everything above the last
// bound. Buckets are fixed at construction so Observe never allocates.
// A nil *Histogram discards observations.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 running sum, CAS-updated
}

// NewHistogram builds a histogram over the given inclusive upper bounds,
// which must be sorted ascending. It panics on unsorted or empty bounds
// (instrument construction is programmer-controlled, not data-driven).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: invariant violated: histogram needs at least one bucket bound, got none")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: invariant violated: histogram bounds must be strictly ascending, got bounds[%d] = %v <= bounds[%d] = %v", i, bounds[i], i-1, bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// LinearBuckets returns n bounds start, start+width, ..., spaced width
// apart — the natural shape for small integer distributions such as MSHR
// occupancy.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic(fmt.Sprintf("telemetry: invariant violated: LinearBuckets needs n >= 1, got n = %d", n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; linear is competitive for
	// the small bucket counts used here, but binary keeps worst cases flat.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has one extra
	// trailing overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the sample mean (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the bucket upper bound containing the q-quantile
// sample (q is clamped to [0, 1]). The second result is false when the
// histogram is empty — there is no sample to rank, and returning a bare
// 0 would be indistinguishable from a real zero-valued bound. A single
// sample is its own quantile for every q. Samples in the overflow bucket
// report the last finite bound (the histogram does not know how far
// above it they fell); callers needing an exact tail must widen the
// bounds.
func (s HistogramSnapshot) Quantile(q float64) (float64, bool) {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0, false
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1], true
			}
			return s.Bounds[i], true
		}
	}
	// Counts sum short of Count only via a torn concurrent snapshot;
	// answer with the largest bound rather than failing.
	return s.Bounds[len(s.Bounds)-1], true
}

// Snapshot copies the histogram's current state. A nil histogram yields a
// zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry is a named collection of instruments. Instruments are created
// on first use and live for the registry's lifetime, so hot code fetches
// its instruments once and holds the pointers. A nil *Registry hands out
// nil instruments, which in turn discard updates — the whole
// instrumentation chain collapses to nil-checks when telemetry is off.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds if needed (later calls reuse the first bounds). Returns nil on a
// nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// encoding/json writes map keys in sorted order, so serialised snapshots
// are deterministic for a given set of values.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state (empty snapshot for nil).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.ctrs {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Names returns the sorted names of all instruments (for tests and
// human-readable dumps).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for n := range r.ctrs {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Observation bundles the optional instrumentation hooks threaded through
// a simulation: the metrics registry, the event tracer, and a progress
// heartbeat called periodically with (instructions retired, simulated
// cycles). The zero value disables everything.
//
// Every hook is safe to share across concurrent simulations: Registry
// instruments update via sync/atomic, the Tracer's sink serialises under
// a mutex, and the Progress heartbeat behind the Progress func locks
// internally. The parallel runner (internal/runner) hands each worker a
// copy of the sweep's Observation with only the Tracer rebased (WithTID)
// so concurrent spans land on separate trace tracks.
type Observation struct {
	Metrics  *Registry
	Tracer   *Tracer
	Progress func(insts, cycles int64)
}

// marshalSorted renders v as JSON with a stable field order (maps are
// already sorted by encoding/json; this is a convenience wrapper that
// fails loudly on unserialisable values — only our own snapshot structs
// pass through here, so failure is a programming error, not bad input).
func marshalSorted(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("telemetry: invariant violated: snapshot value of type %T is not JSON-serialisable: %v", v, err))
	}
	return b
}
